"""Bi-invariant geometry of SU/SO/Sp: exp/log, distances, translations."""

import inspect
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm  # a test-only oracle: homoglab itself runs on numpy

from homoglab import _linalg, compact_lie
from homoglab.compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    algebra_basis,
    biinvariant_distance,
    center_elements,
    check_in_algebra,
    check_in_group,
    clifford_wolf_evidence,
    group_displacement_profile,
    group_exp,
    haar_sample,
    min_displacement,
    minimal_angles,
    one_parameter,
    random_algebra_element,
    symplectic_structure,
    translation_displacement,
)
from homoglab._tol import DISPLACEMENT
from homoglab.errors import InvalidParameter, NotInGroup
from homoglab.profiles import DisplacementProfile
from oracles import (
    SO4_HALVES,
    ad_constancy_flags,
    clifford_wolf_commutator,
    trace_coords_einsum,
    group_log,
    haar_symplectic_gram_schmidt,
    inverted_fixed_point,
)

SU2 = CompactGroupSpec("SU", 2)
SU3 = CompactGroupSpec("SU", 3)
SO3 = CompactGroupSpec("SO", 3)
SO4 = CompactGroupSpec("SO", 4)
SO5 = CompactGroupSpec("SO", 5)
SP2 = CompactGroupSpec("Sp", 2)

ALL_SPECS = (SU2, SU3, SO3, SO4, SO5, SP2)


# ---------------------------------------------------------------------------
# oracle: bi-invariant distance by brute-force branch enumeration


def test_two_sided_isometries_compare_by_identity_and_hash():
    """A two-sided isometry holds arrays, so == is identity: it answers a
    bool, and an isometry can be a member of a set."""
    a, b = (TwoSidedIsometry(SU2.identity(), SU2.identity()) for _ in range(2))
    assert (a == a) is True and (a == b) is False and (a != b) is True
    assert a in {a} and b not in {a} and len({a, b}) == 2


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


BASIS_SPECS = (
    [CompactGroupSpec("SU", n) for n in range(2, 9)]
    + [CompactGroupSpec("SO", n) for n in range(3, 10)]
    + [CompactGroupSpec("Sp", n) for n in range(2, 6)]
)


@pytest.mark.parametrize("spec", BASIS_SPECS, ids=lambda s: s.name)
def test_algebra_basis_orthonormal_and_closed(spec, rng):
    basis = algebra_basis(spec)
    assert len(basis) == spec.algebra_dim
    for X in basis:
        check_in_algebra(spec, X)
    gram = np.array(
        [[-np.trace(X @ Y).real for Y in basis] for X in basis]
    )
    assert np.max(np.abs(gram - np.eye(len(basis)))) < 1e-14
    # closure under brackets
    X = random_algebra_element(spec, rng)
    Y = random_algebra_element(spec, rng)
    check_in_algebra(spec, X @ Y - Y @ X)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_trace_coords_matches_the_einsum_oracle(spec, rng):
    """The one GEMM of ``trace_coords`` against the einsum oracle, within
    2e-15 max-abs: on the basis itself (its Gram matrix), one matrix, stacks
    of rank 3 and 4 (also transposed, so not contiguous), an empty basis and
    an empty stack; real and complex bases against real and complex X, so
    also a real basis with complex X and a complex basis with real X."""
    B = compact_lie._basis_stack(spec)
    d = spec.matrix_size
    bases = (B, B.real.copy(), B.astype(complex), B[:0])
    Z = rng.standard_normal((2, 3, 4, d, d)) + 1j * rng.standard_normal((2, 3, 4, d, d))
    xs = (B, Z[0, 0, 0], Z[0], Z, Z.real.copy(), Z.swapaxes(-1, -2), Z[0, :0])
    for basis in bases:
        for X in xs:
            got, want = _linalg.trace_coords(basis, X), trace_coords_einsum(basis, X)
            assert got.shape == want.shape == X.shape[:-2] + (len(basis),)
            assert np.max(np.abs(got - want), initial=0.0) <= 2e-15


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_cached_arrays_are_read_only(spec):
    """Every array of a process-wide cache of ``compact_lie`` refuses a write
    and keeps its values: one in-place write would reach every later run."""
    cached = (*algebra_basis(spec), compact_lie._basis_stack(spec),
              compact_lie._range_points(spec), center_elements(spec))
    for arr in cached:
        before = arr.copy()
        with pytest.raises(ValueError, match="read-only"):
            arr *= 2.0
        with pytest.raises(ValueError, match="read-only"):
            arr[...] = 0.0
        np.testing.assert_array_equal(arr, before)


@pytest.mark.parametrize("n", range(2, 9))
def test_su_cartan_elements_are_gram_schmidt_of_simple_coroots(n):
    """The last n - 1 elements of the SU(n) basis, in order, are the
    Gram-Schmidt orthonormalisation of i(e_k - e_{k+1}), k = 1..n-1."""
    oracle = []
    for k in range(n - 1):
        w = np.zeros((n, n), dtype=complex)
        w[k, k], w[k + 1, k + 1] = 1j, -1j
        for b in oracle:
            w = w - (-np.trace(b @ w).real) * b
        oracle.append(w / np.sqrt(-np.trace(w @ w).real))
    cartan = algebra_basis(CompactGroupSpec("SU", n))[-(n - 1):]
    np.testing.assert_allclose(np.stack(cartan), np.stack(oracle), rtol=0, atol=1e-15)


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


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_group_exp_matches_scipy_expm(spec, rng):
    for scale in (0.3, 1.0, 3.0, 10.0):
        X = scale * random_algebra_element(spec, rng, unit=True)
        g = group_exp(X)
        assert np.iscomplexobj(g) == spec.is_complex
        assert np.max(np.abs(g - expm(X))) < 1e-12


@pytest.mark.parametrize(
    "X",
    [
        np.array([[0.0, 1.0], [1.0, 0.0]]),  # symmetric
        1j * np.array([[0.0, 1.0], [-1.0, 0.0]]),  # hermitian
        np.array([[1e-3, 0.0], [0.0, -1e-3]]),  # not skew on the diagonal
        np.full((2, 2), np.nan),
        np.zeros((2, 3)),
        np.zeros(3),
        np.zeros((2, 2, 2)),
    ],
    ids=["symmetric", "hermitian", "diagonal", "nan", "not-square", "vector", "stack"],
)
def test_group_exp_refuses_what_is_not_skew_hermitian(X):
    with pytest.raises(InvalidParameter):
        group_exp(X)


def _conjugated_sp2_reflection(rng):
    q = haar_sample(SP2, rng)
    return q @ np.diag([-1.0, 1.0, -1.0, 1.0]) @ q.conj().T


@pytest.mark.parametrize(
    "spec,make",
    [
        (SO4, lambda rng: -np.eye(4)),
        (SP2, _conjugated_sp2_reflection),
        (SU3, lambda rng: center_elements(SU3)[1]),
        (SU3, lambda rng: center_elements(SU3)[2]),
        (SU3, lambda rng: _conjugate(SU3, _torus_element(SU3, np.array([1.0, 1.0, -2.0])), rng)),
        (SO4, lambda rng: _conjugate(SO4, _torus_element(SO4, np.array([1.0, 1.0])), rng)),
        (SO5, lambda rng: _conjugate(SO5, _torus_element(SO5, np.array([np.pi, np.pi])), rng)),
    ],
    ids=["SO4-minus-identity", "Sp2-conjugate-of-diag(-1,1,-1,1)", "SU3-center-1",
         "SU3-center-2", "SU3-conjugate-of-angles(1,1,-2)", "SO4-conjugate-of-angles(1,1)",
         "SO5-conjugate-of-angles(pi,pi)"],
)
def test_log_of_repeated_eigen_angles(spec, make, rng):
    """Every eigen-angle of g is repeated: the log lies in the algebra, maps
    back to g, and has the least norm among all logs (the branch oracle)."""
    for _ in range(5):
        g = make(rng)
        X = group_log(spec, g)
        check_in_algebra(spec, X)
        assert np.max(np.abs(group_exp(X) - g)) < 1e-12
        norm = np.sqrt(-np.trace(X @ X).real)
        assert abs(norm - oracle_distance(spec, spec.identity(), g)) < 1e-12


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


def test_center_elements(rng):
    assert len(center_elements(SU2)) == 2
    assert len(center_elements(SU3)) == 3
    assert len(center_elements(SO4)) == 2
    assert len(center_elements(SO5)) == 1
    assert len(center_elements(SP2)) == 2
    # one cached read-only stack per group, complex only on SU
    for spec in ALL_SPECS:
        Z = center_elements(spec)
        assert Z is center_elements(spec) and not Z.flags.writeable
        assert np.iscomplexobj(Z) == (spec.family == "SU")
        check_in_group(spec, Z)
    # a central factor on either side makes a translation pair constant
    g = haar_sample(SU3, rng)
    isos = [TwoSidedIsometry(z, g) for z in center_elements(SU3)]
    isos += [TwoSidedIsometry(g, z) for z in center_elements(SU3)]
    constant, _ = clifford_wolf_evidence(SU3, isos)
    assert constant.all()


def test_haar_pairs_are_not_constant(rng):
    # Haar samples are almost surely not central, so the pair is not constant
    isos = [TwoSidedIsometry(haar_sample(SU3, rng), haar_sample(SU3, rng)) for _ in range(4)]
    constant, gaps = clifford_wolf_evidence(SU3, isos)
    assert not constant.any()
    assert (gaps > 1e-3).all()


def _is_identity_map(spec, g1, g2):
    """``_identity_maps`` of the one pair (g1, g2)."""
    return bool(compact_lie._identity_maps(compact_lie._center_distance(spec, np.stack([g1, g2])[None]))[0])


def test_two_sided_apply_compose_inverse(rng):
    eye = np.eye(3, dtype=complex)
    assert _is_identity_map(SU3, eye, eye)
    # g1 = g2 = same central element is the identity map
    z = center_elements(SU3)[1]
    assert _is_identity_map(SU3, z, z)
    assert not _is_identity_map(SU3, z, eye)


def test_left_translation_displacement_is_constant(rng):
    a = haar_sample(SU2, rng)
    iso = TwoSidedIsometry(a.conj().T, np.eye(2, dtype=complex))
    d_e = biinvariant_distance(SU2, np.eye(2), a)
    for _ in range(10):
        x = haar_sample(SU2, rng)
        assert np.isclose(translation_displacement(SU2, iso, x), d_e, atol=1e-9)


def test_clifford_wolf_evidence_on_central_and_haar_pairs(rng):
    """Central pairs are constant, with their least displacement as the
    value, which is the displacement d(g1, g2) at the identity; Haar pairs
    are not, with the spread of their attained displacement range as the
    value."""
    for spec in (SU2, SU3, SO4, SP2):
        isos = []
        for trial in range(12):
            z = center_elements(spec)[trial % len(center_elements(spec))]
            if trial % 3 == 0:
                isos.append(TwoSidedIsometry(z.astype(complex), haar_sample(spec, rng)))
            elif trial % 3 == 1:
                isos.append(TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng)))
            else:
                isos.append(TwoSidedIsometry(haar_sample(spec, rng), z.astype(complex)))
        constant, values = clifford_wolf_evidence(spec, isos)
        np.testing.assert_array_equal(constant, [t % 3 != 1 for t in range(12)])
        for iso, c, v in zip(isos, constant, values):
            profile = group_displacement_profile(spec, iso, 150, rng)
            if c:
                assert v == min_displacement(spec, iso)
                assert abs(v - biinvariant_distance(spec, iso.g1, iso.g2)) <= 1e-12
                assert profile.gap <= 1e-9 and abs(profile.mean - v) <= 1e-9
            else:
                assert v > 1e-3 and profile.gap > 1e-3


def test_inverted_isometries_are_never_constant(rng):
    z = center_elements(SU2)[1]
    isos = [TwoSidedIsometry(z, haar_sample(SU2, rng), inverted=True),
            TwoSidedIsometry(np.eye(2, dtype=complex), np.eye(2, dtype=complex), inverted=True)]
    constant, gaps = clifford_wolf_evidence(SU2, isos)
    assert not constant.any()
    assert (gaps > 1e-3).all()


def test_clifford_wolf_evidence_checks_its_inputs():
    with pytest.raises(NotInGroup):
        clifford_wolf_evidence(SU2, [TwoSidedIsometry(2 * np.eye(2), np.eye(2))])
    with pytest.raises(NotInGroup):
        clifford_wolf_evidence(SU2, [])


def so4_half_element(half, rng):
    """exp(t X) for a random unit X in one half of so(4) and t in [0.5, 3.5],
    away from the exp(t X) = +-I of t = 2 pi and 4 pi."""
    X = np.tensordot(rng.standard_normal(3), half, axes=1)
    return group_exp(rng.uniform(0.5, 3.5) * X / np.sqrt(-np.trace(X @ X)))


def test_so4_exact_verdict_matches_sampling(rng):
    """so(4) is the sum of two simple ideals, so x -> g1^-1 x g2 is constant
    when Ad(g1) fixes one half and Ad(g2) the other, with neither factor
    central.  120 pairs: aligned (one self-dual and one anti-self-dual
    exponential, either way round), same-half, Haar and central pairs."""
    isos, kinds = [], []
    for trial in range(120):
        kind = ("aligned", "same-half", "haar", "central")[trial % 4]
        h, other = SO4_HALVES[trial // 4 % 2], SO4_HALVES[1 - trial // 4 % 2]
        if kind == "aligned":
            g1, g2 = so4_half_element(h, rng), so4_half_element(other, rng)
        elif kind == "same-half":
            g1, g2 = so4_half_element(h, rng), so4_half_element(h, rng)
        elif kind == "haar":
            g1, g2 = haar_sample(SO4, rng), haar_sample(SO4, rng)
        else:
            g1, g2 = -np.eye(4), haar_sample(SO4, rng)
        if trial // 8 % 2:
            g1, g2 = g2, g1
        isos.append(TwoSidedIsometry(g1, g2))
        kinds.append(kind)
    constant, _ = clifford_wolf_evidence(SO4, isos)
    sampled = [group_displacement_profile(SO4, iso, 200, rng).gap <= 1e-7 for iso in isos]
    np.testing.assert_array_equal(constant, sampled)
    np.testing.assert_array_equal(constant, [k in ("aligned", "central") for k in kinds])


# ---------------------------------------------------------------------------
# displacement ranges: the closed-form least value against the range points


def _ranges(spec, isos):
    d = spec.matrix_size
    pairs = check_in_group(spec, [g for iso in isos for g in (iso.g1, iso.g2)])
    inverted = np.array([iso.inverted for iso in isos], dtype=bool)
    return compact_lie._translation_ranges(spec, pairs.reshape(-1, 2, d, d), inverted)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_deck_blocks_leave_the_kernels_unchanged(monkeypatch, spec, rng):
    """With blocks of one element, the ranges and the mean of Ad of a mixed
    stack (Haar, central and inverted maps) equal those of one block; the
    constancy flags take no blocks."""
    isos = [TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng), k % 3 == 0)
            for k in range(7)]
    isos += [TwoSidedIsometry(z, haar_sample(spec, rng)) for z in center_elements(spec)]
    d = spec.matrix_size
    pairs = check_in_group(spec, [g for iso in isos for g in (iso.g1, iso.g2)])
    pairs = pairs.reshape(-1, 2, d, d)
    inverted = np.array([iso.inverted for iso in isos])

    def kernels():
        constant = compact_lie._constancy(spec, pairs, compact_lie._center_distance(spec, pairs))[0]
        return (*compact_lie._translation_ranges(spec, pairs, inverted), constant), \
            compact_lie._adjoint_pass(spec, pairs)

    whole, whole_mean = kernels()
    entries = 2 * len(algebra_basis(spec)) * d * d  # the largest temporaries per element
    assert len(list(_linalg._blocks(len(pairs), entries))) == 1
    monkeypatch.setattr(_linalg, "_BLOCK", 1)
    assert len(list(_linalg._blocks(len(pairs), pairs[0].size))) == len(pairs)
    blocked, blocked_mean = kernels()
    for a, b in zip(whole, blocked):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(blocked_mean, whole_mean, rtol=0, atol=1e-14)
    assert whole[2].tolist() == [False] * 7 + [True] * len(center_elements(spec))


PAIR_SPECS = [CompactGroupSpec("SU", n) for n in (2, 3, 4, 5)] + [
    CompactGroupSpec("SO", n) for n in (3, 4, 5, 6)] + [CompactGroupSpec("Sp", n) for n in (2, 3)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.sampled_from(PAIR_SPECS), st.integers(0, 2**32 - 1))
def test_center_distance_flags_equal_the_ad_flags(spec, seed):
    """The constancy flags of ``_constancy``, read off each factor's distance
    to the center, equal the Ad test that decided them before
    (``oracles.ad_constancy_flags``) and the commutator test on Haar pairs,
    central pairs, near-central pairs z exp(tX) on either side or both (t from
    1e-4, well above ``CENTRAL``, down to 1e-12; 1e-6 is not central, 1e-8 is),
    and on SO(4) pairs aligned with the two halves of so(4)."""
    rng = np.random.default_rng(seed)
    center = center_elements(spec)

    def near_central(t):
        z = center[rng.integers(len(center))]
        return z @ group_exp(t * random_algebra_element(spec, rng, unit=True))

    pairs = [(haar_sample(spec, rng), haar_sample(spec, rng)) for _ in range(4)]
    pairs += [(z, haar_sample(spec, rng)) for z in center] + [(haar_sample(spec, rng), z) for z in center]
    for t in (1e-4, 1e-5, 1e-6, 1e-8, 1e-9, 1e-12):
        pairs += [(near_central(t), haar_sample(spec, rng)), (haar_sample(spec, rng), near_central(t)),
                  (near_central(t), near_central(t))]
    if spec == SO4:
        for k in range(4):
            h, other = SO4_HALVES[k % 2], SO4_HALVES[1 - k % 2]
            pairs += [(so4_half_element(h, rng), so4_half_element(other, rng)),
                      (so4_half_element(h, rng), so4_half_element(h, rng))]
    pairs = check_in_group(spec, [g for pair in pairs for g in pair]).reshape(
        -1, 2, spec.matrix_size, spec.matrix_size)
    constant = compact_lie._constancy(spec, pairs, compact_lie._center_distance(spec, pairs))[0]
    want = ad_constancy_flags(spec, pairs)
    np.testing.assert_array_equal(constant, want)
    np.testing.assert_array_equal(want, clifford_wolf_commutator(spec, pairs))
    n = 4 + 2 * len(center)
    assert want[4:n].all() and not want[:4].any()
    assert not want[n : n + 9].any() and want[n + 9 : n + 18].all()


def test_so4_basis_lists_its_two_ideals():
    """The halves of ``algebra_basis(SO(4))`` are the self-dual and the
    anti-self-dual ideal of so(4): each is closed under brackets, and
    brackets across them vanish."""
    basis = np.stack(algebra_basis(SO4))
    halves = basis[:3], basis[3:]
    for half, want in zip(halves, SO4_HALVES):
        # the same span as the halves built from the coordinate planes
        np.testing.assert_allclose(np.tensordot(half, half, axes=(0, 0)),
                                   np.tensordot(want, want, axes=(0, 0)), rtol=0, atol=1e-15)
        for X, Y in itertools.product(half, half):
            bracket = X @ Y - Y @ X
            inside = np.tensordot(-np.einsum("kij,ji->k", half, bracket), half, axes=1)
            assert np.max(np.abs(bracket - inside)) <= 1e-15
    for X, Y in itertools.product(*halves):
        assert np.max(np.abs(X @ Y - Y @ X)) <= 1e-15


def _rotation_z(t):
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.name)
def test_range_points_lie_above_the_least_displacement(spec, rng):
    """Every displacement at the range points is at least min_displacement,
    and the upper end of the range is the largest of them, attained there."""
    points = compact_lie._range_points(spec)
    assert len(points) == 1 + spec.algebra_dim
    check_in_group(spec, points)
    for inverted in (False, True):
        isos = [TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng), inverted)
                for _ in range(4)]
        lo, hi = _ranges(spec, isos)
        for iso, a, b in zip(isos, lo, hi):
            values = translation_displacement(spec, iso, points)
            assert a == min_displacement(spec, iso)
            assert np.min(values) >= a - 1e-12
            assert b == max(np.max(values), a)


def test_range_spread_vanishes_on_constant_pairs(rng):
    """Central factors on either side, and SO(4) pairs aligned with its two
    halves: every range point moves by the least displacement."""
    for spec in ALL_SPECS:
        isos = []
        for z in center_elements(spec):
            g = haar_sample(spec, rng)
            isos += [TwoSidedIsometry(z, g), TwoSidedIsometry(g, z)]
        lo, hi = _ranges(spec, isos)
        assert np.max(hi - lo) <= 1e-12, spec.name
    aligned = []
    for k in range(8):
        h, other = SO4_HALVES[k % 2], SO4_HALVES[1 - k % 2]
        aligned.append(TwoSidedIsometry(so4_half_element(h, rng), so4_half_element(other, rng)))
    assert clifford_wolf_evidence(SO4, aligned)[0].all()
    lo, hi = _ranges(SO4, aligned)
    assert np.max(hi - lo) <= 1e-12


def test_range_spread_is_positive_on_non_constant_pairs(rng):
    """Haar pairs of every family, and the SO(3) pair (R_z(pi), R_z(1)), at
    which all displacements over the Weyl orbit of the class pair coincide:
    the range points still see a spread, 0.807."""
    for spec in ALL_SPECS:
        isos = [TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng))
                for _ in range(6)]
        lo, hi = _ranges(spec, isos)
        assert np.min(hi - lo) > DISPLACEMENT, spec.name
    iso = TwoSidedIsometry(_rotation_z(np.pi), _rotation_z(1.0))
    constant, values = clifford_wolf_evidence(SO3, [iso])
    assert not constant[0]
    assert abs(values[0] - 0.807476517502) <= 1e-9
    assert group_displacement_profile(SO3, iso, 400, rng).gap > 1.0


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
        x = inverted_fixed_point(spec, iso)
        check_in_group(spec, x)
        assert translation_displacement(spec, iso, x) <= 1e-6


def test_min_displacement_of_constant_translation(rng):
    a = haar_sample(SU2, rng)
    iso = TwoSidedIsometry(a.conj().T, np.eye(2, dtype=complex))
    want = biinvariant_distance(SU2, np.eye(2), a)
    assert np.isclose(min_displacement(SU2, iso), want, rtol=0.0, atol=1e-12)


EXACT_SPECS = tuple(CompactGroupSpec("SU", n) for n in (2, 3, 4)) + tuple(
    CompactGroupSpec("SO", n) for n in (3, 4, 5, 6)
) + tuple(CompactGroupSpec("Sp", n) for n in (2, 3))


def test_min_displacement_takes_no_sampling_settings():
    assert list(inspect.signature(min_displacement).parameters) == ["spec", "iso"]


@pytest.mark.parametrize("spec", EXACT_SPECS, ids=lambda s: s.name)
def test_min_displacement_is_exact(spec, rng):
    """Translation pairs: the class distance, bit for bit.  Inverted maps: a
    fixed point, also when g1 g2^-1 is central (every center element)."""
    for _ in range(10):
        g1, g2 = haar_sample(spec, rng), haar_sample(spec, rng)
        pair = TwoSidedIsometry(g1, g2)
        assert min_displacement(spec, pair) == float(compact_lie._class_distance(spec, g1, g2))
        assert min_displacement(spec, TwoSidedIsometry(g1, g2, inverted=True)) <= 1e-13
    g2 = haar_sample(spec, rng)
    for z in center_elements(spec):
        iso = TwoSidedIsometry(z @ g2, g2, inverted=True)
        assert min_displacement(spec, iso) <= 1e-13


@pytest.mark.parametrize("spec", EXACT_SPECS, ids=lambda s: s.name)
def test_inverted_min_displacement_is_exactly_zero(spec, rng):
    """x -> g1 x^-1 g2 fixes y g2 for every square root y of g1 g2^-1 (the
    oracle takes y from the log): the least displacement is 0 by theorem,
    and the spread that clifford_wolf_evidence reports is the upper end."""
    points = compact_lie._range_points(spec)
    for _ in range(5):
        iso = TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng), inverted=True)
        assert min_displacement(spec, iso) == 0.0
        assert translation_displacement(spec, iso, inverted_fixed_point(spec, iso)) <= 1e-6
        constant, values = clifford_wolf_evidence(spec, [iso])
        assert not constant[0]
        assert values[0] == np.max(translation_displacement(spec, iso, points))


def test_group_displacement_profile_constant_for_central(rng):
    z = center_elements(SU2)[1]
    iso = TwoSidedIsometry(z, haar_sample(SU2, rng))
    prof = group_displacement_profile(SU2, iso, 100, rng)
    assert prof.gap <= 1e-9


@pytest.mark.parametrize(
    "g1,g2",
    [
        (2.0 * np.eye(2), np.eye(2)),
        (np.full((2, 2), np.nan), np.eye(2)),
        (np.eye(3), np.eye(3)),
    ],
    ids=["scaled", "nan", "3x3"],
)
def test_group_displacement_profile_refuses_a_pair_off_the_group(g1, g2, rng):
    with pytest.raises(NotInGroup):
        group_displacement_profile(SU2, TwoSidedIsometry(g1, g2), 20, rng)


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


def class_distance(spec, a, b):
    """The distance between the classes of a and b: the least displacement
    of x -> a^-1 x b."""
    return min_displacement(spec, TwoSidedIsometry(a, b))


def test_conjugacy_distance_su2_closed_form(rng):
    """SU(2) classes are labelled by the half-angle alpha in [0, pi] of the
    eigenvalues exp(+-i alpha); the class distance is sqrt(2) |alpha - beta|."""
    for _ in range(50):
        alpha, beta = rng.uniform(0.0, np.pi, 2)
        a = _conjugate(SU2, _torus_element(SU2, np.array([alpha, -alpha])), rng)
        b = _conjugate(SU2, _torus_element(SU2, np.array([beta, -beta])), rng)
        d = class_distance(SU2, a, b)
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
        assert abs(class_distance(spec, a, b) - want) <= 1e-9


def test_conjugacy_distance_separates_so4_orientations(rng):
    """With no eigenvalue +-1, g and its conjugate by a reflection share a
    spectrum but are not conjugate in SO(4)."""
    r = np.diag([1.0, 1.0, 1.0, -1.0])
    for _ in range(20):
        alpha = np.sort(rng.uniform(0.1, np.pi - 0.1, 2))[::-1]
        g = _conjugate(SO4, _torus_element(SO4, alpha), rng)
        d = class_distance(SO4, g, r @ g @ r.T)
        # flip the second angle, or send the first to 2 pi minus itself
        want = np.sqrt(2.0) * min(2.0 * alpha[1], 2.0 * np.pi - 2.0 * alpha[0])
        assert d > 0.1
        assert abs(d - want) <= 1e-9
        assert class_distance(SO4, g, _conjugate(SO4, g, rng)) <= 1e-9


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.sampled_from(ALL_SPECS), st.integers(0, 2**32 - 1))
def test_conjugacy_distance_bounds_reached_displacements(spec, seed):
    """The exact least displacement lies below every displacement the map
    reaches, here at a stack of Haar points."""
    rng = np.random.default_rng(seed)
    g1, g2 = haar_sample(spec, rng), haar_sample(spec, rng)
    reached = translation_displacement(spec, TwoSidedIsometry(g1, g2), haar_sample(spec, rng, 50))
    assert class_distance(spec, g1, g2) <= reached.min() + 1e-9


@settings(deadline=None, max_examples=30, derandomize=True)
@given(st.sampled_from(ALL_SPECS), st.integers(0, 2**32 - 1))
def test_conjugate_pairs_have_zero_class_distance(spec, seed):
    rng = np.random.default_rng(seed)
    g, x = haar_sample(spec, rng), haar_sample(spec, rng)
    assert class_distance(spec, g, x @ g @ x.conj().T) <= 1e-9


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


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_symplectic_draws_match_quaternionic_gram_schmidt(n):
    for seed in (0, 1, 2):
        draws = haar_sample(CompactGroupSpec("Sp", n), np.random.default_rng(seed), size=50)
        ref = haar_symplectic_gram_schmidt(n, np.random.default_rng(seed), 50)
        assert np.max(np.abs(draws - ref)) <= 1e-13
        # exact form [[A, -conj(B)], [B, conj(A)]]
        assert np.array_equal(draws[:, n:, n:], draws[:, :n, :n].conj())
        assert np.array_equal(draws[:, :n, n:], -draws[:, n:, :n].conj())


# (spec, E tr(g^2)): the Frobenius-Schur indicator of the defining
# representation, +1 real, 0 complex, -1 quaternionic; E |tr g|^2 = 1 for each,
# as the representation is irreducible
HAAR_MOMENTS = [(SU2, -1), (SU3, 0), (CompactGroupSpec("SU", 4), 0), (SO3, 1), (SO4, 1),
                (SO5, 1), (SP2, -1), (CompactGroupSpec("Sp", 3), -1)]


@pytest.mark.parametrize("spec,indicator", HAAR_MOMENTS, ids=[s.name for s, _ in HAAR_MOMENTS])
def test_haar_draws_have_the_moments_of_haar_measure(spec, indicator):
    g = haar_sample(spec, np.random.default_rng(31), size=4000)
    tr = np.trace(g, axis1=-2, axis2=-1)
    squares = np.trace(g @ g, axis1=-2, axis2=-1)
    for values, want in ((np.abs(tr) ** 2, 1.0), (squares.real, indicator), (squares.imag, 0.0)):
        se = np.std(values) / np.sqrt(len(values))
        assert abs(np.mean(values) - want) <= 6 * se + 1e-12


@pytest.mark.parametrize("spec", (SU3, SO4, SO5, SP2), ids=lambda s: s.name)
@pytest.mark.parametrize("inverted", [False, True], ids=["pair", "inverted"])
def test_displacement_profile_equals_per_point_loop(spec, inverted, monkeypatch):
    monkeypatch.setattr(compact_lie, "_SAMPLE_BLOCK", 16)
    rng = np.random.default_rng(12)
    iso = TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng), inverted=inverted)
    prof = group_displacement_profile(spec, iso, 40, np.random.default_rng(4))
    pts = _sequential(spec, 4, 40)
    ref = DisplacementProfile.from_values(
        [translation_displacement(spec, iso, x) for x in pts]
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


_ALGEBRA_FAULTS = {
    # a hermitian part; i times a scalar, skew-hermitian with nonzero trace;
    # i times a real diagonal, skew-hermitian but not real; i e_11, which
    # does not commute with the quaternionic structure
    "skew-hermitian": lambda d: 0.1 * np.eye(d),
    "traceless": lambda d: 0.1j * np.eye(d),
    "real": lambda d: 0.1j * np.diag([1.0, -1.0] + [0.0] * (d - 2)),
    "quaternionic": lambda d: 0.1j * np.diag([1.0] + [0.0] * (d - 1)),
}


@pytest.mark.parametrize(
    "spec,fault",
    [(SU3, "skew-hermitian"), (SU3, "traceless"), (SO4, "skew-hermitian"), (SO4, "real"),
     (SP2, "skew-hermitian"), (SP2, "quaternionic")],
    ids=lambda x: getattr(x, "name", x),
)
def test_algebra_stack_with_one_bad_member_is_rejected(spec, fault, rng):
    stack = np.stack([random_algebra_element(spec, rng) for _ in range(6)]).astype(complex)
    assert check_in_algebra(spec, stack) is stack
    stack[3] += _ALGEBRA_FAULTS[fault](spec.matrix_size)
    with pytest.raises(InvalidParameter, match=fault):
        check_in_algebra(spec, stack)
    # the bad member fails on its own too, and the others pass
    with pytest.raises(InvalidParameter, match=fault):
        check_in_algebra(spec, stack[3])
    check_in_algebra(spec, np.delete(stack, 3, axis=0))


def test_algebra_stack_of_the_wrong_shape_is_rejected(rng):
    for bad in (np.zeros((3, 2, 2)), np.zeros((2, 2, 3, 3)), np.zeros(3),
                [np.zeros((3, 3)), np.zeros((2, 2))]):
        with pytest.raises(InvalidParameter, match="expected"):
            check_in_algebra(SU3, bad)
    # an empty stack holds no bad member
    assert check_in_algebra(SU3, np.zeros((0, 3, 3))).shape == (0, 3, 3)
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
    with pytest.raises(InvalidParameter, match="skew-hermitian"):
        check_in_algebra(spec, np.full((d, d), np.nan))
    stack = haar_sample(spec, rng, size=3).astype(complex)
    stack[1, 0, 0] = np.nan
    with pytest.raises(NotInGroup):
        check_in_group(spec, stack)
