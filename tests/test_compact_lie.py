"""Bi-invariant geometry of SU/SO/Sp: exp/log, distances, translations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import compact_lie
from homoglab.compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    algebra_basis,
    biinvariant_distance,
    center_elements,
    check_in_algebra,
    check_in_group,
    compose,
    conjugacy_class_distance,
    group_displacement_profile,
    group_exp,
    group_log,
    haar_sample,
    is_central,
    is_constant_displacement_translation,
    is_identity_isometry,
    isometry_inverse,
    min_displacement,
    minimal_angles,
    one_parameter,
    random_algebra_element,
    symplectic_structure,
    translation_displacement,
)
from homoglab.errors import InvalidParameter, NotInGroup
from homoglab.profiles import DisplacementProfile

SU2 = CompactGroupSpec("SU", 2)
SU3 = CompactGroupSpec("SU", 3)
SO3 = CompactGroupSpec("SO", 3)
SO4 = CompactGroupSpec("SO", 4)
SO5 = CompactGroupSpec("SO", 5)
SP2 = CompactGroupSpec("Sp", 2)

ALL_SPECS = (SU2, SU3, SO3, SO4, SO5, SP2)


# ---------------------------------------------------------------------------
# oracle: bi-invariant distance by brute-force branch enumeration


def _block_angles(u):
    """Rotation angles of a real-orthogonal or symplectic matrix, one per
    plane: conjugate eigenvalue pairs give one angle, -1's pair into pi."""
    phases = np.angle(np.linalg.eigvals(u))
    pos = sorted(p for p in phases if 1e-8 < p < np.pi - 1e-8)
    n_pi = sum(1 for p in phases if abs(abs(p) - np.pi) <= 1e-8)
    assert n_pi % 2 == 0
    return np.array(pos + [np.pi] * (n_pi // 2))


def oracle_distance(spec, g, h):
    u = np.asarray(g).conj().T @ np.asarray(h)
    if spec.family == "SU":
        theta = np.angle(np.linalg.eigvals(u))
        best = np.inf
        for s in itertools.product((-1, 0, 1), repeat=len(theta)):
            t = theta + 2 * np.pi * np.array(s)
            if abs(t.sum()) < 1e-6:
                best = min(best, float(np.sqrt(np.sum(t**2))))
        return best
    theta = _block_angles(u)
    if len(theta) == 0:
        return 0.0
    best = np.inf
    for s in itertools.product((-1, 0, 1), repeat=len(theta)):
        t = theta + 2 * np.pi * np.array(s)
        best = min(best, float(np.sqrt(2.0 * np.sum(t**2))))
    return best


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_distance_matches_branch_enumeration_oracle(spec, rng):
    for _ in range(15):
        g, h = haar_sample(spec, rng), haar_sample(spec, rng)
        d = biinvariant_distance(spec, g, h)
        assert np.isclose(d, oracle_distance(spec, g, h), atol=1e-8)


def test_distance_identity_to_minus_identity_su2():
    d = biinvariant_distance(SU2, np.eye(2), -np.eye(2))
    assert abs(d - np.pi * np.sqrt(2.0)) < 1e-12


def test_distance_bi_invariance_and_symmetry(rng):
    for spec in (SU2, SO4):
        g, h, a, b = (haar_sample(spec, rng) for _ in range(4))
        d = biinvariant_distance(spec, g, h)
        assert np.isclose(d, biinvariant_distance(spec, h, g), atol=1e-9)
        assert np.isclose(
            d, biinvariant_distance(spec, a @ g @ b, a @ h @ b), atol=1e-9
        )


def test_triangle_inequality(rng):
    for _ in range(50):
        g, h, k = (haar_sample(SU3, rng) for _ in range(3))
        assert biinvariant_distance(SU3, g, h) <= (
            biinvariant_distance(SU3, g, k) + biinvariant_distance(SU3, k, h) + 1e-9
        )


# ---------------------------------------------------------------------------
# exp / log / sampling


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_haar_samples_live_in_group(spec, rng):
    for _ in range(10):
        check_in_group(spec, haar_sample(spec, rng))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_algebra_basis_orthonormal_and_closed(spec, rng):
    basis = algebra_basis(spec)
    assert len(basis) == spec.algebra_dim
    for X in basis:
        check_in_algebra(spec, X)
    gram = np.array(
        [[-np.trace(X @ Y).real for Y in basis] for X in basis]
    )
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-10
    # closure under brackets
    X = random_algebra_element(spec, rng)
    Y = random_algebra_element(spec, rng)
    check_in_algebra(spec, X @ Y - Y @ X)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_exp_log_round_trip(spec, rng):
    for _ in range(10):
        X = 0.4 * random_algebra_element(spec, rng, unit=True)
        g = group_exp(X)
        check_in_group(spec, g)
        assert np.max(np.abs(group_log(spec, g) - X)) < 1e-9


def test_log_handles_minus_one_eigenvalues():
    # a pi-rotation block: eigenvalues -1, -1, +1, +1
    g = np.diag([-1.0, -1.0, 1.0, 1.0])
    X = group_log(SO4, g)
    check_in_algebra(SO4, X)
    assert np.max(np.abs(group_exp(X) - g)) < 1e-12
    assert np.isclose(np.sqrt(-np.trace(X @ X).real), np.pi * np.sqrt(2.0), atol=1e-12)
    # symplectic -identity
    m = -np.eye(4, dtype=complex)
    Y = group_log(SP2, m)
    check_in_algebra(SP2, Y)
    assert np.max(np.abs(group_exp(Y) - m)) < 1e-12


def test_log_rejects_outside_group():
    with pytest.raises(NotInGroup):
        group_log(SU2, np.eye(2) * 2.0)


def test_one_parameter_flow_is_homomorphism(rng):
    X = random_algebra_element(SU3, rng, unit=True)
    flow = one_parameter(X)
    s, t = 0.3, 1.1
    assert np.max(np.abs(flow(s + t) - flow(s) @ flow(t))) < 1e-12
    assert np.max(np.abs(flow(1.0) - group_exp(X))) < 1e-12


def test_minimal_angles_sum_zero_for_su(rng):
    for _ in range(20):
        u = haar_sample(SU3, rng)
        ang = minimal_angles(SU3, u)
        assert abs(np.sum(ang)) < 1e-8


def test_symplectic_structure_commutation(rng):
    J = symplectic_structure(2)
    g = haar_sample(SP2, rng)
    assert np.max(np.abs(g @ J - J @ g.conj())) < 1e-10


# ---------------------------------------------------------------------------
# centers and two-sided translations


def test_center_elements():
    assert len(center_elements(SU2)) == 2
    assert len(center_elements(SU3)) == 3
    assert len(center_elements(SO4)) == 2
    assert len(center_elements(SO5)) == 1
    assert len(center_elements(SP2)) == 2
    for z in center_elements(SU3):
        assert is_central(SU3, z)


def test_is_central_detects_noncentral(rng):
    g = haar_sample(SU3, rng)
    # Haar samples are almost surely not central
    assert not is_central(SU3, g)


def test_two_sided_apply_compose_inverse(rng):
    g1, g2, h1, h2 = (haar_sample(SU3, rng) for _ in range(4))
    a = TwoSidedIsometry(g1, g2)
    b = TwoSidedIsometry(h1, h2)
    x = haar_sample(SU3, rng)
    assert np.allclose(compose(a, b).apply(x), b.apply(a.apply(x)), atol=1e-12)
    assert np.allclose(isometry_inverse(a).apply(a.apply(x)), x, atol=1e-12)
    ident = TwoSidedIsometry(np.eye(3, dtype=complex), np.eye(3, dtype=complex))
    assert is_identity_isometry(SU3, ident)
    # g1 = g2 = same central element is the identity map
    z = center_elements(SU3)[1]
    assert is_identity_isometry(SU3, TwoSidedIsometry(z, z))
    assert not is_identity_isometry(SU3, TwoSidedIsometry(z, np.eye(3, dtype=complex)))


def test_left_translation_displacement_is_constant(rng):
    a = haar_sample(SU2, rng)
    iso = TwoSidedIsometry(a.conj().T, np.eye(2, dtype=complex))
    d_e = biinvariant_distance(SU2, np.eye(2), a)
    for _ in range(10):
        x = haar_sample(SU2, rng)
        assert np.isclose(translation_displacement(SU2, iso, x), d_e, atol=1e-9)


def test_constancy_verdict_agrees_with_centrality(rng):
    for spec in (SU2, SU3, SO4):
        for trial in range(12):
            if trial % 3 == 0:
                z = center_elements(spec)[trial % len(center_elements(spec))]
                iso = TwoSidedIsometry(z.astype(complex), haar_sample(spec, rng))
            elif trial % 3 == 1:
                iso = TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng))
            else:
                z = center_elements(spec)[trial % len(center_elements(spec))]
                iso = TwoSidedIsometry(haar_sample(spec, rng), z.astype(complex))
            res = is_constant_displacement_translation(
                spec, iso, samples=150, rng=rng
            )
            assert res.constant == res.centrality.predicts_constant
            assert res.centrality.agrees_with_sampling


def test_inverted_isometry_example_values():
    g1 = np.diag([np.exp(1j * np.pi / 3), np.exp(-1j * np.pi / 3)])
    iso = TwoSidedIsometry(g1, np.eye(2, dtype=complex), inverted=True)
    at_identity = translation_displacement(SU2, iso, np.eye(2))
    j_point = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
    at_j = translation_displacement(SU2, iso, j_point)
    assert np.isclose(at_identity, np.sqrt(2.0) * np.pi / 3.0, atol=1e-9)
    assert np.isclose(at_j, 2.0 * np.sqrt(2.0) * np.pi / 3.0, atol=1e-9)
    assert at_j - at_identity > 0.1


def test_inverted_isometries_reach_zero_displacement(rng):
    for spec in (SU2, SO4):
        iso = TwoSidedIsometry(
            haar_sample(spec, rng), haar_sample(spec, rng), inverted=True
        )
        val, argmin = min_displacement(spec, iso, multistarts=6, rng=rng)
        assert val <= 1e-6
        check_in_group(spec, argmin)


def test_min_displacement_of_constant_translation(rng):
    a = haar_sample(SU2, rng)
    iso = TwoSidedIsometry(a.conj().T, np.eye(2, dtype=complex))
    want = biinvariant_distance(SU2, np.eye(2), a)
    val, _ = min_displacement(SU2, iso, multistarts=4, rng=rng)
    assert np.isclose(val, want, atol=1e-6)


def test_group_displacement_profile_constant_for_central(rng):
    z = center_elements(SU2)[1]
    iso = TwoSidedIsometry(z, haar_sample(SU2, rng))
    prof = group_displacement_profile(SU2, iso, 100, rng)
    assert prof.gap <= 1e-9


def test_spec_validation():
    with pytest.raises(InvalidParameter):
        CompactGroupSpec("SU", 1)
    with pytest.raises(InvalidParameter):
        CompactGroupSpec("SO", 2)
    with pytest.raises(InvalidParameter):
        CompactGroupSpec("E", 8)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_distance_vanishes_only_on_equal_elements(seed):
    rng = np.random.default_rng(seed)
    g = haar_sample(SU2, rng)
    assert biinvariant_distance(SU2, g, g) < 1e-9
    h = haar_sample(SU2, rng)
    if np.max(np.abs(g - h)) > 1e-6:
        assert biinvariant_distance(SU2, g, h) > 1e-8


# ---------------------------------------------------------------------------
# conjugacy-class distance


def _torus_element(spec, angles):
    """The maximal-torus element with the given angles: one per diagonal entry
    of SU(n), one per rotation plane of SO(n) and Sp(n)."""
    if spec.family == "SU":
        return np.diag(np.exp(1j * angles))
    if spec.family == "Sp":
        return np.diag(np.exp(1j * np.concatenate([angles, -angles])))
    g = np.eye(spec.n)
    for j, t in enumerate(angles):
        g[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    return g


def _weyl_orbit(spec, angles):
    """Every image of the torus angles under the Weyl group: permutations for
    SU(n), signed permutations for SO(2m+1) and Sp(n), signed permutations
    with an even number of sign changes for SO(2m)."""
    for perm in itertools.permutations(range(len(angles))):
        if spec.family == "SU":
            yield angles[list(perm)]
            continue
        for signs in itertools.product((1.0, -1.0), repeat=len(angles)):
            if spec.family == "SO" and spec.n % 2 == 0 and np.prod(signs) < 0:
                continue
            yield np.array(signs) * angles[list(perm)]


def _random_torus_angles(spec, rng):
    if spec.family == "SU":
        a = rng.uniform(-np.pi, np.pi, spec.n)
        return a - a.mean()
    return rng.uniform(-np.pi, np.pi, spec.matrix_size // 2)


def _conjugate(spec, g, rng):
    q = haar_sample(spec, rng)
    return q @ g @ q.conj().T


def test_conjugacy_distance_su2_closed_form(rng):
    """SU(2) classes are labelled by the half-angle alpha in [0, pi] of the
    eigenvalues exp(+-i alpha); the class distance is sqrt(2) |alpha - beta|."""
    for _ in range(50):
        alpha, beta = rng.uniform(0.0, np.pi, 2)
        a = _conjugate(SU2, _torus_element(SU2, np.array([alpha, -alpha])), rng)
        b = _conjugate(SU2, _torus_element(SU2, np.array([beta, -beta])), rng)
        d = conjugacy_class_distance(SU2, a, b)
        assert abs(d - np.sqrt(2.0) * abs(alpha - beta)) <= 1e-12


@pytest.mark.parametrize("spec", (SU3, SO3, SO4, SO5, SP2), ids=lambda s: s.name)
def test_conjugacy_distance_matches_weyl_enumeration(spec, rng):
    """The class distance is the least torus distance over the whole Weyl
    orbit; the torus distance itself minimises over the lattice of logs."""
    special = np.array([0.0, np.pi, np.pi / 3, 2 * np.pi / 3, 1e-9])
    for trial in range(40):
        if trial % 4 == 3:  # eigenvalues +-1 and repeated angles
            alpha = rng.choice(special, len(_random_torus_angles(spec, rng)))
            beta = rng.choice(special, len(alpha))
            if spec.family == "SU":
                alpha[-1], beta[-1] = -alpha[:-1].sum(), -beta[:-1].sum()
        else:
            alpha, beta = _random_torus_angles(spec, rng), _random_torus_angles(spec, rng)
        ta = _torus_element(spec, alpha)
        want = min(
            biinvariant_distance(spec, ta, _torus_element(spec, w))
            for w in _weyl_orbit(spec, beta)
        )
        a = _conjugate(spec, ta, rng)
        b = _conjugate(spec, _torus_element(spec, beta), rng)
        assert abs(conjugacy_class_distance(spec, a, b) - want) <= 1e-9


def test_conjugacy_distance_separates_so4_orientations(rng):
    """With no eigenvalue +-1, g and its conjugate by a reflection share a
    spectrum but are not conjugate in SO(4)."""
    r = np.diag([1.0, 1.0, 1.0, -1.0])
    for _ in range(20):
        alpha = np.sort(rng.uniform(0.1, np.pi - 0.1, 2))[::-1]
        g = _conjugate(SO4, _torus_element(SO4, alpha), rng)
        d = conjugacy_class_distance(SO4, g, r @ g @ r.T)
        # flip the second angle, or send the first to 2 pi minus itself
        want = np.sqrt(2.0) * min(2.0 * alpha[1], 2.0 * np.pi - 2.0 * alpha[0])
        assert d > 0.1
        assert abs(d - want) <= 1e-9
        assert conjugacy_class_distance(SO4, g, _conjugate(SO4, g, rng)) <= 1e-9


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.sampled_from(ALL_SPECS), st.integers(0, 2**32 - 1))
def test_conjugacy_distance_bounds_the_descent(spec, seed):
    """min_displacement returns a displacement it reached, so it can only lie
    above the exact least displacement."""
    rng = np.random.default_rng(seed)
    g1, g2 = haar_sample(spec, rng), haar_sample(spec, rng)
    val, _ = min_displacement(
        spec, TwoSidedIsometry(g1, g2), multistarts=1, refine_steps=5, rng=rng
    )
    assert conjugacy_class_distance(spec, g1, g2) <= val + 1e-9


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.sampled_from(ALL_SPECS), st.integers(0, 2**32 - 1))
def test_conjugate_pairs_have_zero_class_distance(spec, seed):
    rng = np.random.default_rng(seed)
    g, x = haar_sample(spec, rng), haar_sample(spec, rng)
    assert conjugacy_class_distance(spec, g, x @ g @ x.conj().T) <= 1e-9


# ---------------------------------------------------------------------------
# batched kernels against one-at-a-time draws and evaluations

SAMPLED_SPECS = (SU2, SU3, SO3, SO4, SO5, SP2, CompactGroupSpec("Sp", 3))


def _sequential(spec, seed, size):
    rng = np.random.default_rng(seed)
    return np.stack([haar_sample(spec, rng) for _ in range(size)])


@pytest.mark.parametrize("spec", SAMPLED_SPECS, ids=lambda s: s.name)
def test_haar_stack_is_bit_equal_to_single_draws(spec, monkeypatch):
    # a small block makes a stack of 11 cross two block boundaries
    monkeypatch.setattr(compact_lie, "_SAMPLE_BLOCK", 4)
    stack = haar_sample(spec, np.random.default_rng(5), size=11)
    assert stack.shape == (11, spec.matrix_size, spec.matrix_size)
    assert np.array_equal(stack, _sequential(spec, 5, 11))
    check_in_group(spec, stack)


@pytest.mark.parametrize("spec", (SU2, SO3), ids=lambda s: s.name)
def test_haar_stack_crossing_the_real_block_size(spec):
    size = compact_lie._SAMPLE_BLOCK + 3
    stack = haar_sample(spec, np.random.default_rng(8), size=size)
    assert np.array_equal(stack, _sequential(spec, 8, size))


def test_haar_stack_leaves_the_generator_where_single_draws_do():
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    haar_sample(SP2, a, size=6)
    _ = [haar_sample(SP2, b) for _ in range(6)]
    assert a.standard_normal() == b.standard_normal()


def test_haar_stack_rejects_empty_size(rng):
    with pytest.raises(InvalidParameter):
        haar_sample(SU2, rng, size=0)


@pytest.mark.parametrize("spec", (SU3, SO4, SO5, SP2), ids=lambda s: s.name)
@pytest.mark.parametrize("inverted", [False, True], ids=["pair", "inverted"])
def test_displacement_profile_equals_per_point_loop(spec, inverted, monkeypatch):
    monkeypatch.setattr(compact_lie, "_SAMPLE_BLOCK", 16)
    rng = np.random.default_rng(12)
    iso = TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng), inverted=inverted)
    prof = group_displacement_profile(spec, iso, 40, np.random.default_rng(4))
    pts = _sequential(spec, 4, 40)
    ref = DisplacementProfile.from_values(
        [translation_displacement(spec, iso, x, validate=False) for x in pts]
    )
    assert prof == ref
    stacked = translation_displacement(spec, iso, pts)
    assert np.array_equal(stacked, [translation_displacement(spec, iso, x) for x in pts])


def test_branch_shift_by_rows_matches_one_row_at_a_time(rng):
    u = haar_sample(CompactGroupSpec("SU", 4), rng, size=200)
    rows = minimal_angles(CompactGroupSpec("SU", 4), u)
    assert np.max(np.abs(rows.sum(axis=1))) < 1e-12
    for one, row in zip(u, rows):
        assert np.array_equal(minimal_angles(CompactGroupSpec("SU", 4), one), row)


# ---------------------------------------------------------------------------
# check_in_group on stacks: one bad member fails the whole stack


def _bad_member(spec, rng, fault):
    d = spec.matrix_size
    g = haar_sample(spec, rng)
    if fault == "unitary":
        return 1.01 * g
    if fault == "determinant":
        return np.exp(0.3j) * g
    if fault == "real":
        return np.diag([1j, -1j] + [1.0] * (d - 2)) @ g
    if fault == "orientation":
        return np.diag([-1.0] + [1.0] * (d - 1)) @ g
    return np.diag([1j] + [1.0] * (d - 1)) @ g  # commutes with J no longer


@pytest.mark.parametrize(
    "spec,fault,message",
    [
        (SU3, "unitary", "not unitary"),
        (SU3, "determinant", "determinant is not 1"),
        (SO4, "unitary", "not unitary"),
        (SO4, "real", "not real"),
        (SO4, "orientation", "determinant is not [+]1"),
        (SP2, "unitary", "not unitary"),
        (SP2, "quaternionic", "quaternionic structure"),
    ],
)
def test_stack_with_one_bad_member_is_rejected(spec, fault, message, rng):
    stack = haar_sample(spec, rng, size=6)
    assert check_in_group(spec, stack) is stack
    stack = stack.astype(complex)
    stack[3] = _bad_member(spec, rng, fault)
    with pytest.raises(NotInGroup, match=message):
        check_in_group(spec, stack)
    # the bad member fails on its own too, and the others pass
    with pytest.raises(NotInGroup, match=message):
        check_in_group(spec, stack[3])
    check_in_group(spec, np.delete(stack, 3, axis=0))


def test_stack_of_the_wrong_shape_is_rejected(rng):
    with pytest.raises(NotInGroup):
        check_in_group(SU3, haar_sample(SU2, rng, size=4))
    ragged = list(haar_sample(SU3, rng, size=3)) + [np.eye(2)]
    with pytest.raises(NotInGroup):
        check_in_group(SU3, ragged)
    with pytest.raises(NotInGroup):
        check_in_group(SU3, np.zeros((2, 3, 3, 3)))


@pytest.mark.parametrize(
    "spec", [SU2, CompactGroupSpec("SO", 3), SP2], ids=lambda s: s.name
)
def test_nan_matrix_is_not_in_the_group(spec, rng):
    """Sp(1) is SU(2) and is not a spec of its own: Sp(2) stands in for it."""
    d = spec.matrix_size
    with pytest.raises(NotInGroup):
        check_in_group(spec, np.full((d, d), np.nan))
    stack = haar_sample(spec, rng, size=3).astype(complex)
    stack[1, 0, 0] = np.nan
    with pytest.raises(NotInGroup):
        check_in_group(spec, stack)
