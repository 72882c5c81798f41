"""Sphere displacement tests, lens groups, and the flat/hyperbolic probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from homoglab.compact_lie import haar_orthogonal
from homoglab.constant_curvature import (
    EuclideanMotion,
    HyperbolicMotion,
    euclidean_bounded,
    haar_sphere,
    hyperbolic_bounded_probe,
    invariant_geodesic_check,
    is_clifford_sphere,
    is_free_on_sphere,
    lens_group,
    rotation_block,
    sphere_displacement,
    sphere_displacement_profile,
)
from homoglab.errors import (
    InvalidParameter,
    NonCoprimeExponent,
    NotClifford,
    NotClosed,
    NonOrthogonalInput,
)
from homoglab.finite_groups import GroupType, left_translation_matrix, named_binary_group


def test_left_translations_are_clifford():
    g = named_binary_group(GroupType.binary_dihedral(3))
    for q in g.elements:
        ok, angle = is_clifford_sphere(left_translation_matrix(q))
        assert ok
        # displacement angle equals the quaternion's rotation angle arccos(w)
        assert np.isclose(angle, np.arccos(np.clip(q.w, -1, 1)), atol=1e-12)


def test_unequal_angles_are_not_clifford():
    g = block_diag(rotation_block(0.4), rotation_block(1.1))
    ok, angle = is_clifford_sphere(g)
    assert not ok and angle is None


def test_clifford_eigen_test_matches_sampling_oracle(rng):
    for n in (4, 6):
        for _ in range(60):
            g = haar_orthogonal(n, rng)
            exact, _ = is_clifford_sphere(g)
            prof = sphere_displacement_profile(g, 400, rng)
            assert exact == (prof.gap <= 1e-7)


def test_displacement_requires_unit_point():
    from homoglab.errors import NonUnitPoint

    with pytest.raises(NonUnitPoint):
        sphere_displacement(np.eye(3), np.array([1.0, 1.0, 0.0]))


def test_rejects_non_orthogonal():
    with pytest.raises(NonOrthogonalInput):
        is_clifford_sphere(np.eye(4) * 2.0)


def test_lens_all_ones_clifford_and_free():
    for k in range(2, 13):
        mats = lens_group(k, (1, 1))
        assert len(mats) == k
        assert is_free_on_sphere(mats).free
        for m in mats:
            ok, _ = is_clifford_sphere(m)
            assert ok


@pytest.mark.parametrize("k,exps", [(5, (1, 2)), (7, (1, 2))])
def test_lens_mixed_exponents_not_clifford(rng, k, exps):
    mats = lens_group(k, exps)
    assert is_free_on_sphere(mats).free
    gaps = []
    for m in mats[1:]:
        ok, _ = is_clifford_sphere(m)
        assert not ok
        gaps.append(sphere_displacement_profile(m, 500, rng).gap)
    assert min(gaps) > 0.1


def test_lens_exponent_validation():
    with pytest.raises(NonCoprimeExponent):
        lens_group(6, (1, 2))
    with pytest.raises(NonCoprimeExponent):
        lens_group(5, (1, 0))
    with pytest.raises(InvalidParameter):
        lens_group(1, (1,))


def test_lens_higher_dimension():
    mats = lens_group(5, (1, 1, 1))
    assert mats[0].shape == (6, 6)
    assert all(is_clifford_sphere(m)[0] for m in mats)


def test_free_group_detects_fixed_axis():
    group = [block_diag(rotation_block(2 * np.pi * j / 5), np.eye(2)) for j in range(5)]
    res = is_free_on_sphere(group)
    assert not res.free
    assert res.offender in range(1, 5)


def first_fixing_element(mats, tol=1e-9):
    """Reference: the per-element loop, identity skipped, list order."""
    for idx, m in enumerate(mats):
        if np.max(np.abs(m - np.eye(len(m)))) <= tol:
            continue
        if np.min(np.abs(np.linalg.eigvals(m) - 1.0)) <= tol:
            return idx
    return None


@pytest.mark.parametrize("k,q", [(4, 2), (5, 0), (6, 2), (6, 3), (9, 3), (12, 4)])
def test_free_group_offender_matches_per_element_loop(rng, k, q):
    # diag(R(2 pi j / k), R(2 pi q j / k)) fixes a plane exactly when k | q j
    mats = [
        block_diag(rotation_block(2 * np.pi * j / k), rotation_block(2 * np.pi * q * j / k))
        for j in range(k)
    ]
    mats = [mats[i] for i in rng.permutation(k)]
    res = is_free_on_sphere(mats)
    assert res.offender == first_fixing_element(mats)
    assert res.free == (res.offender is None)


def test_free_group_requires_closure():
    with pytest.raises(NotClosed):
        is_free_on_sphere([np.eye(4), block_diag(rotation_block(0.3), rotation_block(0.7))])


def test_geodesic_slide_for_clifford_maps(rng):
    g = left_translation_matrix(named_binary_group(GroupType.cyclic(8)).elements[1])
    for _ in range(5):
        x = haar_sphere(4, 1, rng)[0]
        assert invariant_geodesic_check(g, x, grid=100, tol=1e-8)


def test_geodesic_slide_antipodal_and_identity(rng):
    x = haar_sphere(4, 1, rng)[0]
    assert invariant_geodesic_check(-np.eye(4), x)
    with pytest.raises(InvalidParameter):
        invariant_geodesic_check(np.eye(4), x)


def test_geodesic_slide_rejects_non_clifford(rng):
    g = block_diag(rotation_block(0.4), rotation_block(1.1))
    x = haar_sphere(4, 1, rng)[0]
    with pytest.raises(NotClifford):
        invariant_geodesic_check(g, x)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_clifford_displacement_constant_everywhere(seed):
    rng = np.random.default_rng(seed)
    q = haar_sphere(4, 1, rng)[0]
    from homoglab.finite_groups import Quaternion

    g = left_translation_matrix(Quaternion(*q))
    x, y = haar_sphere(4, 2, rng)
    assert np.isclose(sphere_displacement(g, x), sphere_displacement(g, y), atol=1e-12)


# ---------------------------------------------------------------------------
# noncompact probes


def test_euclidean_translation_is_bounded():
    motion = EuclideanMotion(np.eye(3), np.array([2.0, 0.0, 1.0]))
    bounded, growth = euclidean_bounded(motion)
    assert bounded
    # pure translation: displacement is |b| at every radius
    assert np.allclose(growth, np.linalg.norm(motion.translation), atol=1e-12)


def test_euclidean_screw_motion_grows():
    A = block_diag(rotation_block(0.7), 1.0)
    motion = EuclideanMotion(A, np.array([0.0, 0.0, 3.0]))
    bounded, growth = euclidean_bounded(motion, radii=(1.0, 10.0, 100.0))
    assert not bounded
    assert growth[0] < growth[1] < growth[2]
    # the sup over radius R is exactly sqrt((2 sin(theta/2) R)^2 + |axis shift|^2)
    want = [np.hypot(2 * np.sin(0.35) * R, 3.0) for R in (1.0, 10.0, 100.0)]
    assert np.allclose(growth, want, rtol=1e-9)


def test_euclidean_verdict_matches_rotation_part(rng):
    for k in range(40):
        dim = 2 + (k % 3)
        pure = k % 2 == 0
        A = np.eye(dim) if pure else haar_orthogonal(dim, rng)
        motion = EuclideanMotion(A, rng.standard_normal(dim))
        bounded, _ = euclidean_bounded(motion)
        assert bounded == pure


def test_hyperbolic_distance_closed_form():
    # diag(a, 1/a) moves i to a^2 i at distance 2 ln a
    a = 1.7
    m = HyperbolicMotion(np.diag([a, 1 / a]))
    assert np.isclose(m.displacement(1j), 2 * np.log(a), atol=1e-12)


def test_hyperbolic_loxodromic_and_parabolic_grow():
    for mat in [np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.0, 1.0]])]:
        bounded, sups = hyperbolic_bounded_probe(HyperbolicMotion(mat))
        assert not bounded
        assert all(b > a for a, b in zip(sups, sups[1:]))


def test_hyperbolic_central_motions_are_trivial():
    for sign in (1.0, -1.0):
        bounded, sups = hyperbolic_bounded_probe(HyperbolicMotion(sign * np.eye(2)))
        assert bounded
        assert max(sups) == 0.0


def test_hyperbolic_elliptic_still_unbounded(rng):
    # rotation around i: even elliptic motions have unbounded displacement
    t = 0.6
    mat = np.array([[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]])
    bounded, sups = hyperbolic_bounded_probe(HyperbolicMotion(mat))
    assert not bounded
    assert all(b > a for a, b in zip(sups, sups[1:]))


def test_hyperbolic_motion_validation():
    with pytest.raises(InvalidParameter):
        HyperbolicMotion(np.array([[2.0, 0.0], [0.0, 1.0]]))
