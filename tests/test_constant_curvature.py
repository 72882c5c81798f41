"""Sphere displacement tests, lens groups, and the flat/hyperbolic probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from homoglab.compact_lie import haar_orthogonal
from homoglab import constant_curvature
from homoglab.constant_curvature import (
    EuclideanMotion,
    HyperbolicMotion,
    check_orthogonal,
    clifford_evidence,
    cyclic_powers,
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


# ---------------------------------------------------------------------------
# stacked sphere kernels against the per-matrix code they replaced


def clifford_oracle(g, tol=1e-9):
    n = g.shape[0]
    c = float(np.trace(g)) / n
    if np.max(np.abs((g + g.T) / 2.0 - c * np.eye(n))) <= tol:
        return True, float(np.arccos(np.clip(c, -1.0, 1.0)))
    return False, None


def _norms(v):
    return np.sqrt(np.einsum("si,si->s", v, v))


def profile_oracle(g, samples, rng):
    x = rng.standard_normal((samples, g.shape[0]))
    pts = x / _norms(x)[:, None]
    gx = pts @ g.T
    vals = 2.0 * np.arctan2(_norms(pts - gx), _norms(pts + gx))  # Kahan's angle
    return vals.min(), vals.max(), vals.mean(), vals.size


def _stacks():
    rng = np.random.default_rng(7)
    quats = named_binary_group(GroupType.binary_icosahedral()).left_translation_matrices()
    yield "binary-icosahedral", quats
    yield "lens-9-1-2-4", np.stack(lens_group(9, (1, 2, 4)))
    yield "lens-12-1-1-1-1", np.stack(lens_group(12, (1, 1, 1, 1)))
    yield "mixed-s4", np.concatenate([haar_orthogonal(5, rng, size=6), np.eye(5)[None], -np.eye(5)[None]])


STACKS = dict(_stacks())


@pytest.mark.parametrize("name", STACKS)
def test_stacked_clifford_test_equals_the_per_matrix_test(name):
    stack = STACKS[name]
    ok, angle = is_clifford_sphere(stack)
    for g, c, a in zip(stack, ok, angle):
        want_ok, want_angle = clifford_oracle(g)
        assert c == want_ok
        assert np.isnan(a) if not c else a == want_angle
        assert is_clifford_sphere(g) == (want_ok, want_angle)


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("samples,block", [(20, 4096), (20, 50), (60, 50), (7, 13), (1, 5)])
def test_stacked_profiles_equal_per_matrix_draws(monkeypatch, name, samples, block):
    # block 50 holds two matrices of 20 samples, and one of 60 (at least one)
    monkeypatch.setattr(constant_curvature, "_SAMPLE_BLOCK", block)
    stack = STACKS[name]
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    profiles = sphere_displacement_profile(stack, samples, rng)
    assert len(profiles) == len(stack)
    for g, p in zip(stack, profiles):
        assert (p.min, p.max, p.mean, p.samples) == profile_oracle(g, samples, ref)
    assert rng.standard_normal() == ref.standard_normal()


def test_single_matrix_profile_is_a_stack_of_one(rng):
    g = lens_group(5, (1, 2))[1]
    seed = rng.integers(2**32)
    single = sphere_displacement_profile(g, 30, np.random.default_rng(seed))
    (stacked,) = sphere_displacement_profile(g[None], 30, np.random.default_rng(seed))
    assert single == stacked


def test_clifford_evidence_samples_only_non_constant_matrices():
    stack = STACKS["lens-9-1-2-4"]
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    constant, values = clifford_evidence(stack, 25, rng)
    for g, c, v in zip(stack, constant, values):
        ok, angle = clifford_oracle(g)
        assert c == ok
        if ok:
            assert v == angle
        else:
            lo, hi, _, _ = profile_oracle(g, 25, ref)
            assert v == hi - lo
    assert rng.standard_normal() == ref.standard_normal()


def test_check_orthogonal_checks_every_member_of_a_stack():
    stack = STACKS["lens-9-1-2-4"].copy()
    assert check_orthogonal(stack).shape == stack.shape
    stack[4, 0, 0] += 1e-6
    with pytest.raises(NonOrthogonalInput):
        check_orthogonal(stack)
    bad = np.eye(4)
    bad[2, 2] = np.nan
    for g in (bad, [np.eye(3), np.eye(4)], np.zeros((0, 3, 3)), np.eye(3)[0], np.ones((2, 3))):
        with pytest.raises(NonOrthogonalInput):
            check_orthogonal(g)
    with pytest.raises(NonOrthogonalInput):
        is_free_on_sphere([np.eye(4), bad])


def cyclic_closure_oracle(M, limit=10_000):
    n = M.shape[0]
    out, g = [np.eye(n)], M
    while np.max(np.abs(g - np.eye(n))) > 1e-9:
        out.append(g)
        g = g @ M
        if len(out) > limit:
            raise InvalidParameter("matrix does not generate a finite cyclic group")
    return out


def lens_oracle(k, exps):
    r = len(exps)
    gen = np.zeros((2 * r, 2 * r))
    for i, q in enumerate(exps):
        gen[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation_block(2.0 * np.pi * q / k)
    out = [np.eye(2 * r)]
    for _ in range(k - 1):
        out.append(out[-1] @ gen)
    return out


@pytest.mark.parametrize("k,exps", [(2, (1,)), (5, (1, 2)), (7, (1, 2)), (9, (1, 2, 4)), (12, (1, 5, 7, 11)), (60, (1, 7))])
def test_lens_groups_and_matrix_powers_share_one_power_closure(k, exps):
    mats = lens_group(k, exps)
    want = lens_oracle(k, exps)
    assert len(mats) == k
    assert all(np.array_equal(a, b) for a, b in zip(mats, want))
    rng = np.random.default_rng(k)
    r = haar_orthogonal(mats[0].shape[0], rng)
    M = r @ mats[1] @ r.T
    got, ref = cyclic_powers(M), cyclic_closure_oracle(M)
    assert len(got) == len(ref) == k
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))


def test_matrix_powers_refuse_an_infinite_cyclic_group():
    M = rotation_block(1.0)
    for powers in (cyclic_powers, cyclic_closure_oracle):
        with pytest.raises(InvalidParameter):
            powers(M, limit=200)
    # NaN never compares close to the identity: refused, not a group of one
    with pytest.raises(InvalidParameter):
        cyclic_powers(np.full((2, 2), np.nan), limit=50)


def scalar_displacement(matrix, z):
    """d(z, mz) with Python complex arithmetic, one point at a time."""
    a, b = matrix[0]
    c, d = matrix[1]
    w = (a * z + b) / (c * z + d)
    arg = 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
    return float(np.arccosh(max(arg, 1.0)))


def probe_oracle(matrix, radii=(1.0, 2.0, 4.0, 8.0), angles=64):
    """The scalar probe: the running sup of one displacement at a time."""
    sups, best = [], scalar_displacement(matrix, 1j)
    for R in sorted(radii):
        theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
        w = np.tanh(R / 2.0) * np.exp(1j * theta)
        pts = 1j * (1.0 + w) / (1.0 - w)
        best = max(best, max(scalar_displacement(matrix, complex(z)) for z in pts))
        sups.append(best)
    return sups


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1.0, 2.0, 4.0, 8.0), (3.0, 0.5), (2.0,)]))
def test_vectorised_hyperbolic_probe_matches_the_scalar_one(seed, radii):
    m = np.random.default_rng(seed).standard_normal((2, 2))
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    m = m / np.sqrt(np.linalg.det(m))
    motion = HyperbolicMotion(m)
    _, sups = hyperbolic_bounded_probe(motion, radii=radii, angles=16)
    assert np.allclose(sups, probe_oracle(m, radii, 16), rtol=1e-12, atol=1e-12)
    z = complex(0.3, 1.7)
    assert np.isclose(motion.displacement(z), scalar_displacement(m, z), rtol=1e-12, atol=1e-12)


def test_central_hyperbolic_motions_have_exactly_zero_sups():
    for sign in (1.0, -1.0):
        _, sups = hyperbolic_bounded_probe(HyperbolicMotion(sign * np.eye(2)), angles=16)
        assert sups == [0.0] * 4 == probe_oracle(sign * np.eye(2), angles=16)
