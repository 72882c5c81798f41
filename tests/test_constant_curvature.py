"""Sphere displacement tests, lens groups, and the flat/hyperbolic probes."""

import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from homoglab import _tol, constant_curvature
from homoglab._linalg import _at_identity
from homoglab.compact_lie import haar_orthogonal
from homoglab.constant_curvature import (
    EuclideanMotion,
    HyperbolicMotion,
    check_orthogonal,
    clifford_evidence,
    cyclic_powers,
    euclidean_bounded,
    hyperbolic_bounded_probe,
    invariant_geodesic_check,
    is_clifford_sphere,
    is_free_on_sphere,
    lens_group,
    rotation_block,
    sphere_displacement_range,
)
from homoglab.errors import (
    InvalidParameter,
    NonCoprimeExponent,
    NotClifford,
    NotClosed,
    NonOrthogonalInput,
)
from homoglab.finite_groups import GroupType, left_translation_matrix, named_binary_group
from homoglab.verifier import sphere_deck
import oracles
from oracles import haar_sphere, sphere_displacement_profile


def test_left_translations_are_clifford():
    g = named_binary_group(GroupType.binary_dihedral(3))
    for q in g.elements:
        ok, angle = is_clifford_sphere(left_translation_matrix(q))
        assert ok
        # displacement angle equals the quaternion's rotation angle arccos(w)
        assert np.isclose(angle, np.arccos(np.clip(q[0], -1, 1)), atol=1e-12)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_constant_displacement_is_exact_near_0_and_pi(n):
    """The constant angle of a rotation by theta in every plane, conjugated
    at random, is theta to round-off, also near 0 and pi, where
    arccos(trace(g) / n) is off by about sqrt(eps)."""
    rng = np.random.default_rng(n)
    for theta in (0.0, 1e-12, 1e-8, 1e-4, 1.0, np.pi - 1e-8, np.pi):
        g = block_diag(*[rotation_block(theta)] * (n // 2))
        q = haar_orthogonal(n, rng, size=50)
        stack = q @ g @ np.swapaxes(q, 1, 2)
        ok, angles = clifford_evidence(stack)
        assert ok.all()
        assert np.max(np.abs(angles - theta)) <= 1e-14, theta


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


@pytest.mark.parametrize(
    "a,b", [(1e-5, 2e-5), (np.pi - 1e-5, np.pi - 2e-5)], ids=["near-0", "near-pi"]
)
def test_unequal_angles_near_0_and_pi_are_not_clifford(a, b):
    """The symmetric part of these maps is scalar to about 1e-10, but their
    eigen-angles differ by 1e-5."""
    g = block_diag(rotation_block(a), rotation_block(b))
    assert is_clifford_sphere(g) == (False, None)
    ok, value = clifford_evidence(np.stack([g, g.T, np.eye(4)]))
    assert ok.tolist() == [False, False, True]
    assert (np.abs(value[:2] - 1e-5) <= 1e-14).all() and value[2] == 0.0


def test_geodesic_check_requires_unit_point():
    from homoglab.errors import NonUnitPoint

    g = left_translation_matrix(named_binary_group(GroupType.cyclic(6)).elements[1])
    with pytest.raises(NonUnitPoint):
        invariant_geodesic_check(g, np.array([1.0, 1.0, 0.0, 0.0]))


def test_rejects_non_orthogonal():
    with pytest.raises(NonOrthogonalInput):
        is_clifford_sphere(np.eye(4) * 2.0)


def test_clifford_predicate_takes_one_matrix_and_the_evidence_a_stack():
    with pytest.raises(NonOrthogonalInput, match="square matrix"):
        is_clifford_sphere(np.stack([np.eye(4), -np.eye(4)]))
    assert clifford_evidence(np.eye(4))[0].tolist() == [True]


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
    with pytest.raises(InvalidParameter, match="at least one exponent"):
        lens_group(5, ())


def test_motions_compare_by_identity_and_hash():
    """A motion holds arrays, so == is identity: it answers a bool, and a
    motion can be a member of a set."""
    motions = [EuclideanMotion(np.eye(2), np.zeros(2)), EuclideanMotion(np.eye(2), np.zeros(2)),
               HyperbolicMotion(np.eye(2)), HyperbolicMotion(np.eye(2))]
    for a, b in zip(motions[::2], motions[1::2]):
        assert (a == a) is True and (a == b) is False and (a != b) is True
        assert a in {a} and b not in {a}
    assert len(set(motions)) == 4


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
    # closure is the deck's to check; freeness tests each element on its own
    mats = [np.eye(4), block_diag(rotation_block(0.3), rotation_block(0.7))]
    with pytest.raises(NotClosed):
        sphere_deck(mats)
    assert is_free_on_sphere(mats).free


def test_free_group_builds_no_cayley_table(monkeypatch):
    def refuse(mats):
        raise AssertionError("is_free_on_sphere closed its list")

    for name, module in list(sys.modules.items()):
        for closure in ("cayley_table", "closure_certificate"):
            if name.split(".")[0] == "homoglab" and hasattr(module, closure):
                monkeypatch.setattr(module, closure, refuse)
    assert is_free_on_sphere(lens_group(7, (1, 2, 3))).free
    assert is_free_on_sphere(named_binary_group(GroupType.binary_icosahedral())
                             .left_translation_matrices()).free


def test_geodesic_slide_for_clifford_maps(rng):
    g = left_translation_matrix(named_binary_group(GroupType.cyclic(8)).elements[1])
    for _ in range(5):
        x = haar_sphere(4, 1, rng)[0]
        assert invariant_geodesic_check(g, x)


def test_geodesic_slide_antipodal_and_identity(rng):
    x = haar_sphere(4, 1, rng)[0]
    assert invariant_geodesic_check(-np.eye(4), x)
    with pytest.raises(InvalidParameter):
        invariant_geodesic_check(np.eye(4), x)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3, 4]))
def test_geodesic_slide_holds_on_the_sampled_circle(seed, planes):
    """A random Clifford map, complex scalar multiplication on C^m in a
    random orthonormal frame, passes the exact test, and the circle it
    selects is slid along itself at 100 points of a full period."""
    rng = np.random.default_rng(seed)
    n = 2 * planes
    q = haar_orthogonal(n, rng)
    g = q @ block_diag(*[rotation_block(rng.uniform(0.1, 3.0))] * planes) @ q.T
    x = haar_sphere(n, 1, rng)[0]
    assert invariant_geodesic_check(g, x)
    c = _point_displacement(g, x)
    u = (g @ x - np.cos(c) * x) / np.sin(c)
    ts = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
    sigma = np.outer(np.cos(ts), x) + np.outer(np.sin(ts), u)
    shifted = np.outer(np.cos(ts + c), x) + np.outer(np.sin(ts + c), u)
    assert np.max(np.abs(sigma @ g.T - shifted)) <= 1e-12


def test_geodesic_slide_refutes_a_map_that_does_not_slide(monkeypatch, rng):
    """Let through the constancy gate, a rotation by two different angles
    moves the circle through x and gx off itself, and the test says so."""
    g = block_diag(rotation_block(0.4), rotation_block(1.1))
    x = haar_sphere(4, 1, rng)[0]
    c = _point_displacement(g, x)
    monkeypatch.setattr(constant_curvature, "is_clifford_sphere", lambda m: (True, c))
    assert not invariant_geodesic_check(g, x)


def test_geodesic_slide_rejects_non_clifford(rng):
    g = block_diag(rotation_block(0.4), rotation_block(1.1))
    x = haar_sphere(4, 1, rng)[0]
    with pytest.raises(NotClifford):
        invariant_geodesic_check(g, x)


@settings(deadline=None, max_examples=40, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_clifford_displacement_constant_everywhere(seed):
    rng = np.random.default_rng(seed)
    g = left_translation_matrix(haar_sphere(4, 1, rng)[0])
    x, y = haar_sphere(4, 2, rng)
    assert np.isclose(_point_displacement(g, x), _point_displacement(g, y), atol=1e-12)


def _point_displacement(g, x):
    """angle(x, gx) at one unit point, by Kahan's 2 atan2(|x - gx|, |x + gx|)."""
    gx = g @ x
    return 2.0 * np.arctan2(np.linalg.norm(x - gx), np.linalg.norm(x + gx))


# ---------------------------------------------------------------------------
# noncompact probes


def test_euclidean_translation_is_bounded():
    motion = EuclideanMotion(np.eye(3), np.array([2.0, 0.0, 1.0]))
    bounded, growth = euclidean_bounded(motion)
    assert bounded
    # the linear part is I: it moves no point, whatever the radius
    assert growth == [0.0, 0.0, 0.0]


def test_euclidean_screw_motion_grows():
    A = block_diag(rotation_block(0.7), 1.0)
    motion = EuclideanMotion(A, np.array([0.0, 0.0, 3.0]))
    bounded, growth = euclidean_bounded(motion)
    assert not bounded
    assert growth[0] < growth[1] < growth[2]
    # the linear part moves the ball of radius R by at most 2 sin(theta/2) R
    radii = (1.0, 10.0, 100.0)
    assert np.allclose(growth, [2 * np.sin(0.35) * R for R in radii], rtol=1e-12)
    assert np.allclose(growth, oracles.linear_growth(A, radii), rtol=1e-12)


def test_euclidean_growth_is_the_greatest_singular_value(rng):
    """R sigma_max(A - I) from A's greatest eigen-angle matches the SVD, and
    with b added no point of the ball moves by more than |b| beyond it."""
    radii = (1.0, 10.0, 100.0)
    for k in range(40):
        dim = 2 + (k % 4)
        A = haar_orthogonal(dim, rng)
        b = rng.standard_normal(dim)
        _, growth = euclidean_bounded(EuclideanMotion(A, b))
        want = oracles.linear_growth(A, radii)
        assert np.allclose(growth, want, rtol=1e-12, atol=1e-12)
        x = oracles.haar_sphere(dim, 200, rng)
        for R, g in zip(radii, growth):
            disp = np.linalg.norm(R * x @ (A - np.eye(dim)).T + b, axis=1)
            assert disp.max() <= g + np.linalg.norm(b) + 1e-9 * R


def test_euclidean_verdict_matches_rotation_part(rng):
    for k in range(40):
        dim = 2 + (k % 3)
        pure = k % 2 == 0
        A = np.eye(dim) if pure else haar_orthogonal(dim, rng)
        motion = EuclideanMotion(A, rng.standard_normal(dim))
        bounded, _ = euclidean_bounded(motion)
        assert bounded == pure


def test_hyperbolic_distance_closed_form():
    # diag(a, 1/a) moves i to a^2 i at distance 2 ln a, and the ball of radius
    # R about i by cosh D(R) = alpha^2 + rho^2 cosh 2R with alpha, rho the
    # means of a, 1/a and a, -1/a
    a = 1.7
    m = np.diag([a, 1 / a])
    assert np.isclose(oracles.moebius_displacement(m, 1j), 2 * np.log(a), atol=1e-12)
    _, sups = hyperbolic_bounded_probe(HyperbolicMotion(m))
    alpha, rho = (a + 1 / a) / 2, (a - 1 / a) / 2
    want = [np.arccosh(alpha**2 + rho**2 * np.cosh(2 * R)) for R in (1.0, 2.0, 4.0, 8.0)]
    assert np.allclose(sups, want, rtol=1e-12)


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
    # NaN and inf entries are refused without a numpy warning
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParameter):
                HyperbolicMotion(np.full((2, 2), bad))


@pytest.mark.parametrize(
    "cls, args, refused",
    [
        pytest.param(EuclideanMotion, (np.eye(2), [1.0, 2.0]), False, id="list-translation"),
        pytest.param(EuclideanMotion, ([[0.0, -1.0], [1.0, 0.0]], np.ones(2)), False, id="list-rotation"),
        pytest.param(EuclideanMotion, (np.eye(2), np.array([np.nan, 0.0])), True, id="nan-translation"),
        pytest.param(EuclideanMotion, (np.eye(3), np.array([0.0, np.inf, 0.0])), True, id="inf-translation"),
        pytest.param(EuclideanMotion, (np.eye(2), np.array([1j, 0.0])), True, id="complex-translation"),
        pytest.param(HyperbolicMotion, ([[2.0, 0.0], [0.0, 0.5]],), False, id="list-hyperbolic"),
        pytest.param(HyperbolicMotion, (np.array([[1.0, 1j], [0.0, 1.0]]),), True, id="complex-hyperbolic"),
    ],
)
def test_motion_input_is_read_as_an_array_or_refused(cls, args, refused):
    """A list is read as the array it spells, and the motion stores that
    array; complex, NaN and infinite entries are refused with
    InvalidParameter, with no numpy warning and no imaginary part dropped."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(InvalidParameter):
                cls(*args)
            return
        motion = cls(*args)
    arrays = cls(*(np.asarray(a, dtype=float) for a in args))
    for a, b in zip(vars(motion).values(), vars(arrays).values()):
        assert isinstance(a, np.ndarray) and np.array_equal(a, b)
    probe = euclidean_bounded if cls is EuclideanMotion else hyperbolic_bounded_probe
    assert probe(motion) == probe(arrays)


def test_a_stack_of_motions_answers_row_by_row_as_one_motion_each(rng):
    """A stack call returns (k,) verdicts and (k, R) values whose rows are, bit
    for bit, the one-motion answers (bool, list) for the same matrices:
    Euclidean motions in dimensions 2 to 4, pure and Haar, hyperbolic draws of
    det 1 and +-I.  The values also match the closed forms of the tests'
    references, from the SVD and the cosh form.  A stack of one still gives
    arrays."""
    cases = []
    for dim in (2, 3, 4):
        A = np.concatenate([np.tile(np.eye(dim), (3, 1, 1)), haar_orthogonal(dim, rng, 20)])
        cases.append((euclidean_bounded, EuclideanMotion, (A, rng.standard_normal((23, dim))), [True] * 3,
                      lambda A, b: oracles.linear_growth(A, (1.0, 10.0, 100.0))))
    a = np.exp(rng.standard_normal(30))
    b, c = rng.standard_normal((2, 30))
    m = np.stack([a, b, c, (1.0 + b * c) / a], axis=-1).reshape(-1, 2, 2)
    m = np.concatenate([np.stack([np.eye(2), -np.eye(2)]), m])
    cases.append((hyperbolic_bounded_probe, HyperbolicMotion, (m,), [True] * 2, closed_form_sups))
    for probe, cls, stacks, central, reference in cases:
        bounded, values = probe(cls(*stacks))
        assert bounded.dtype == bool and values.shape == (len(bounded), len(values[0]))
        assert bounded.tolist() == central + [False] * (len(bounded) - len(central))
        rows = [probe(cls(*row)) for row in zip(*stacks)]
        assert all(type(v) is bool and type(g) is list for v, g in rows)
        assert rows == [(bool(v), g.tolist()) for v, g in zip(bounded, values)]
        np.testing.assert_allclose(values, [reference(*row) for row in zip(*stacks)], rtol=1e-9, atol=1e-12)
        one_bounded, one_values = probe(cls(*(s[:1] for s in stacks)))
        assert one_bounded.shape == (1,) and np.array_equal(one_values, values[:1])


# ---------------------------------------------------------------------------
# stacked sphere kernels against the per-matrix code they replaced


def clifford_oracle(g, tol=1e-9):
    angles = np.abs(np.angle(np.linalg.eigvals(g)))
    if angles.max() - angles.min() <= tol:
        return True, float(np.mean(angles))
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
    """The range test agrees flag for flag with the eigen-angle oracle, its
    angle with the oracle's mean eigen-angle to round-off, and each row of
    the stacked test with the test of its matrix alone."""
    stack = STACKS[name]
    ok, angle = clifford_evidence(stack)
    for g, c, a in zip(stack, ok, angle):
        want_ok, want_angle = clifford_oracle(g)
        assert c == want_ok
        assert not c or abs(a - want_angle) <= 1e-14
        assert is_clifford_sphere(g) == ((True, a) if c else (False, None))


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("samples,block", [(20, 4096), (20, 50), (60, 50), (7, 13), (1, 5)])
def test_stacked_profiles_equal_per_matrix_draws(monkeypatch, name, samples, block):
    # block 50 holds two matrices of 20 samples, and one of 60 (at least one)
    monkeypatch.setattr(oracles, "_SAMPLE_BLOCK", block)
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


@pytest.mark.parametrize("name", STACKS)
def test_clifford_evidence_reads_the_exact_range_of_non_constant_matrices(name):
    stack = STACKS[name]
    constant, values = clifford_evidence(stack)
    lo, hi = sphere_displacement_range(stack)
    for g, c, v, a, b in zip(stack, constant, values, lo, hi):
        ok, _ = clifford_oracle(g)
        assert c == ok
        assert v == (a if ok else b - a)
    assert sphere_displacement_range(stack[1]) == (lo[1], hi[1])


# rotation angles at and near 0 and pi, where arccos-based ranges lose digits
_ANGLES = st.sampled_from([0.0, 1e-12, 1e-8, np.pi - 1e-8, np.pi - 1e-12, np.pi]) | st.floats(
    0.0, np.pi
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(3, 8), st.lists(_ANGLES, min_size=4, max_size=4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_sphere_range_is_exact(n, angles, reflect, seed):
    """On O(n): the range equals the singular-value range of the oracle,
    sampled displacements never leave it, and freeness flags exactly the
    non-identity maps whose least displacement is at most ``_tol.EIGEN``."""
    rng = np.random.default_rng(seed)
    blocks = [rotation_block(t) for t in angles[: n // 2]]
    if n % 2:
        blocks.append(np.array([[-1.0 if reflect else 1.0]]))
    elif reflect:
        blocks[-1] = np.diag([1.0, -1.0])
    q = haar_orthogonal(n, rng)
    g = q @ block_diag(*blocks) @ q.T
    lo, hi = sphere_displacement_range(g)
    want_lo, want_hi = oracles.kahan_sphere_range(g)
    assert abs(lo - want_lo) <= 1e-14
    assert abs(hi - want_hi) <= 1e-14
    prof = sphere_displacement_profile(g, 2000, rng)
    assert lo - 1e-14 <= prof.min and prof.max <= hi + 1e-14
    moving = np.max(np.abs(g - np.eye(n))) > _tol.CLOSURE
    assert is_free_on_sphere([g]).free == (not moving or want_lo > _tol.EIGEN)


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


def test_complex_input_is_refused_where_sphere_matrices_enter():
    """A float cast would drop the imaginary part: I + 0.5i I would pass as I,
    and {I, (-1 + 2i) I} as the deck {I, -I}."""
    eye = np.eye(4)
    with pytest.raises(NonOrthogonalInput, match="real"):
        check_orthogonal(eye + 0.5j * eye)
    with pytest.raises(NonOrthogonalInput, match="real"):
        sphere_deck([eye, (-1 + 2j) * eye])


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
    with pytest.raises(InvalidParameter):
        cyclic_closure_oracle(M, limit=200)
    # the powers stop where their Cayley table would pass check_table_work;
    # NaN never compares close to the identity: refused, not a group of one
    for M in (rotation_block(1.0), np.full((2, 2), np.nan)):
        with pytest.raises(InvalidParameter, match="^matrix powers: a Cayley table of 2049 matrices"):
            cyclic_powers(M)


def closed_form_sups(m):
    """The probe's sups in cosh form, cosh D(R) = alpha^2 +
    (beta^2 + rho^2) cosh 2R + 2 |beta| rho sinh 2R."""
    alpha, beta = (m[0, 0] + m[1, 1]) / 2, (m[0, 1] - m[1, 0]) / 2
    rho = np.hypot((m[0, 0] - m[1, 1]) / 2, (m[0, 1] + m[1, 0]) / 2)
    return [
        float(np.arccosh(max(alpha**2 + (beta**2 + rho**2) * np.cosh(2 * R)
                             + 2 * abs(beta) * rho * np.sinh(2 * R), 1.0)))
        for R in (1.0, 2.0, 4.0, 8.0)
    ]


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_vectorised_hyperbolic_probe_matches_the_scalar_one(seed):
    """No point of a circle about i moves by more than the probe's D(R)
    beyond round-off, and 20 000 points per circle come within 1e-5 relative
    of it; the cosh form of D(R) agrees with the probe's sinh form."""
    m = np.random.default_rng(seed).standard_normal((2, 2))
    if np.linalg.det(m) < 0:
        m[0] = -m[0]
    m = m / np.sqrt(np.linalg.det(m))
    _, sups = hyperbolic_bounded_probe(HyperbolicMotion(m))
    assert np.allclose(sups, closed_form_sups(m), rtol=1e-9)
    for R, sup in zip((1.0, 2.0, 4.0, 8.0), sups):
        sampled = oracles.moebius_displacement(m, oracles.hyperbolic_circle(R, 20000)).max()
        assert sampled <= sup * (1 + 1e-12)
        assert sampled >= sup * (1 - 1e-5)


def test_central_hyperbolic_motions_have_exactly_zero_sups():
    for sign in (1.0, -1.0):
        _, sups = hyperbolic_bounded_probe(HyperbolicMotion(sign * np.eye(2)))
        assert sups == [0.0] * 4 == closed_form_sups(sign * np.eye(2))
        circle = oracles.hyperbolic_circle(8.0, 64)
        assert oracles.moebius_displacement(sign * np.eye(2), circle).max() <= 1e-6


def _closed_sphere_decks():
    """The 682 lens decks of the tier-1 sweep, then cyclic-1024,
    binary-dihedral-256 and the three polyhedral groups on s3, as stacks."""
    for K, exps in oracles.lens_decks((24, 16, 10)):
        yield np.stack(lens_group(K, exps))
    for tag in (GroupType.cyclic(1024), GroupType.binary_dihedral(256),
                GroupType.binary_tetrahedral(), GroupType.binary_octahedral(),
                GroupType.binary_icosahedral()):
        yield named_binary_group(tag).left_translation_matrices()


def test_sphere_decisions_keep_clear_of_eigen_on_closed_decks():
    """An element g of a closed deck of order k has g^k = I, so its
    eigen-angles lie on the lattice (2 pi / k) Z.  Its spread hi - lo, and
    its least angle lo when it moves, are therefore round-off or at least
    2 pi / k, here at least 2 pi / 1024: 10^3 times ``_tol.EIGEN`` and more,
    so the constancy and freeness decisions at ``EIGEN`` have that margin."""
    zero, clear = 0.0, np.inf
    for stack in _closed_sphere_decks():
        lo, hi = sphere_displacement_range(stack)
        for x in (hi - lo, lo[~_at_identity(stack)]):
            near = x < 1e-12
            zero = max(zero, x[near].max(initial=0.0))
            clear = min(clear, x[~near].min(initial=np.inf))
    assert zero <= 1e-13
    assert 2 * np.pi / 1024 - 1e-12 <= clear and clear >= 1e3 * _tol.EIGEN
