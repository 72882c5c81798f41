"""Reductive quotients, Killing-field lengths, Weyl orders, Berger metrics,
and the homogeneous-space catalog."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab import _tol, compact_lie, homogeneous
from homoglab._linalg import trace_inner
from homoglab.compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    algebra_basis,
    group_displacement_profile,
    haar_sample,
    random_algebra_element,
)
from homoglab.errors import (
    InvalidCoefficients,
    InvalidParameter,
    InvariantViolated,
    NotASubalgebra,
    ParseError,
    UnsupportedType,
    ZeroField,
)
from homoglab.homogeneous import (
    NOT_EQUAL_RANK,
    HomogeneousSpaceSpec,
    berger_right_isometry_algebra,
    bracket,
    catalog_load,
    catalog_verify,
    euler_characteristic,
    group_space,
    hopf_sphere_space,
    killing_length_profile,
    principal_so3_in_so5,
    so5_so3_space,
    su2_half_pauli_basis,
    su_block_subalgebra,
    u1_centralizer_direction,
    weyl_group_order,
)
from oracles import berger_isometry_oracle

SU3 = CompactGroupSpec("SU", 3)


def test_reductive_complement_dimensions():
    assert len(hopf_sphere_space(1).complement_basis) == 3
    assert len(hopf_sphere_space(2).complement_basis) == 5
    assert len(so5_so3_space().complement_basis) == 7


def _trace_gram(A, B):
    return np.array([[trace_inner(a, b) for b in B] for a in A]).reshape(len(A), len(B))


@pytest.mark.parametrize(
    "group,isotropy",
    [
        *[(CompactGroupSpec("SU", m + 1), su_block_subalgebra(m + 1, m)) for m in range(1, 5)],
        (CompactGroupSpec("SO", 5), principal_so3_in_so5()),
        (SU3, tuple(2.0 * X for X in su_block_subalgebra(3, 2))),
    ],
    ids=["hopf-1", "hopf-2", "hopf-3", "hopf-4", "so5-so3", "hopf-2-scaled"],
)
def test_reductive_complement_is_an_invariant_orthonormal_complement(group, isotropy):
    m = HomogeneousSpaceSpec("G/H", group, isotropy).complement_basis
    assert len(m) == group.algebra_dim - len(isotropy)
    np.testing.assert_allclose(_trace_gram(m, m), np.eye(len(m)), rtol=0, atol=1e-14)
    assert np.max(np.abs(_trace_gram(isotropy, m)), initial=0.0) < 1e-14
    # [h, x] ⊆ 𝔪: nothing is left after subtracting its 𝔪-projection
    for h in isotropy:
        for x in m:
            r = bracket(h, x)
            residual = r - sum(trace_inner(y, r) * y for y in m)
            assert np.max(np.abs(residual)) < 1e-12


def test_reductive_complement_rejects_a_dependent_isotropy_basis():
    h = su_block_subalgebra(3, 2)
    with pytest.raises(InvalidParameter, match="linearly dependent"):
        HomogeneousSpaceSpec("dependent", SU3, h + (h[0] - 0.5 * h[1],))
    with pytest.raises(InvalidParameter, match="linearly dependent"):
        HomogeneousSpaceSpec("zero", SU3, (np.zeros((3, 3), dtype=complex),))


def test_reductive_complement_rejects_non_subalgebra():
    # two root directions whose bracket escapes their span
    full = algebra_basis(SU3)
    with pytest.raises(NotASubalgebra, match="not closed"):
        HomogeneousSpaceSpec("roots", SU3, full[0:1] + full[2:3])


def test_space_spec_guards_the_invariance_of_its_complement(monkeypatch):
    """[h, m] ⊆ m follows from the invariant form once h is closed; the
    guard that checks it raises InvariantViolated when it fails."""
    answers = iter([True, False])  # closed under brackets, then not invariant
    monkeypatch.setattr(homogeneous, "_bracket_free", lambda basis, brackets: next(answers))
    with pytest.raises(InvariantViolated, match="isotropy-invariant"):
        HomogeneousSpaceSpec("S5", SU3, su_block_subalgebra(3, 2))


def test_principal_so3_brackets_close():
    h = principal_so3_in_so5()
    assert len(h) == 3
    span = np.array([X.ravel() for X in h])
    for a in h:
        for b in h:
            c = bracket(a, b).ravel()
            residual = c - span.T @ np.linalg.lstsq(span.T, c, rcond=None)[0]
            assert np.max(np.abs(residual)) < 1e-10


def test_u1_direction_centralizes_block():
    d = u1_centralizer_direction(3, 2)
    for h in su_block_subalgebra(3, 2):
        assert np.max(np.abs(bracket(d, h))) < 1e-12
    assert np.isclose(-np.trace(d @ d).real, 1.0, atol=1e-12)


def _assert_read_only(arr):
    """A write into ``arr`` raises ValueError and leaves its values as they were."""
    before = arr.copy()
    assert not arr.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arr *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        arr[...] = 0.0
    np.testing.assert_array_equal(arr, before)


@pytest.mark.parametrize(
    "build",
    [lambda: group_space(SU3), lambda: group_space(CompactGroupSpec("Sp", 2)),
     lambda: hopf_sphere_space(1), lambda: hopf_sphere_space(2), so5_so3_space],
    ids=["su3", "sp2", "hopf-1", "hopf-2", "so5-so3"],
)
def test_a_named_space_is_built_once_and_read_only(build):
    """Each space constructor returns the one space it built on a repeated
    call, and that space hands out its bases as read-only stacks."""
    space = build()
    assert build() is space
    assert len(space.isotropy_basis) + len(space.complement_basis) == space.group.algebra_dim
    _assert_read_only(space.isotropy_basis)
    _assert_read_only(space.complement_basis)


@pytest.mark.parametrize("group", [CompactGroupSpec("SO", 5), SU3], ids=["so5", "su3"])
def test_casimir_components_are_built_once_and_read_only(group):
    components = homogeneous.casimir_components(group)
    assert homogeneous.casimir_components(group) is components
    assert isinstance(components, tuple)
    for _, Q in components:
        _assert_read_only(Q)


@pytest.mark.parametrize("as_stack", [False, True], ids=["list", "stack"])
def test_space_spec_holds_read_only_copies_of_its_bases(as_stack):
    """The spec copies the isotropy basis it is given into one stack: the
    caller's arrays stay writable, and a later write into them leaves the
    spec as it was."""
    h = [X.copy() for X in su_block_subalgebra(3, 2)]
    if as_stack:
        h = np.stack(h)
    space = HomogeneousSpaceSpec("S5", SU3, h)
    held = space.complement_basis.copy()
    h[0] *= 2.0
    np.testing.assert_array_equal(space.complement_basis, held)
    np.testing.assert_array_equal(space.isotropy_basis[1:], np.stack(h[1:]))
    assert np.max(np.abs(space.isotropy_basis[0] - h[0] / 2.0)) == 0.0
    _assert_read_only(space.isotropy_basis)
    _assert_read_only(space.complement_basis)


def test_group_space_complement_is_the_algebra_basis():
    for spec in (SU3, CompactGroupSpec("SO", 5), CompactGroupSpec("Sp", 2)):
        space = group_space(spec)
        assert space.isotropy_basis.shape == (0,) + space.complement_basis.shape[1:]
        np.testing.assert_array_equal(space.complement_basis, np.stack(algebra_basis(spec)))


# ---------------------------------------------------------------------------
# Killing length profiles


def test_group_manifold_fields_have_constant_length(rng):
    for spec in (CompactGroupSpec("SU", 2), CompactGroupSpec("SO", 4)):
        space = group_space(spec)
        xi = random_algebra_element(spec, rng, unit=True)
        prof = killing_length_profile(space, xi, samples=120, rng=rng)
        assert prof.relative_gap <= 1e-10


def test_hopf_right_field_constant_left_field_not(rng):
    space = hopf_sphere_space(2)
    d = u1_centralizer_direction(3, 2)
    right = killing_length_profile(space, None, samples=150, rng=rng, right=d)
    assert right.gap <= 1e-10
    left = killing_length_profile(space, d, samples=150, rng=rng)
    assert left.relative_gap > 0.3


def _left_lengths(space, xi, pts):
    """Length of the left field of xi at the coset of each point."""
    g = np.stack(pts)
    return space.tangent_length(np.swapaxes(g.conj(), -1, -2) @ xi @ g)


def test_left_profile_is_conjugation_equivariant(rng):
    """The field of Ad(h)xi at the coset of h*g has the same length as the
    field of xi at the coset of g."""
    space = hopf_sphere_space(2)
    xi = random_algebra_element(space.group, rng)
    h = haar_sample(space.group, rng)
    pts = [haar_sample(space.group, rng) for _ in range(8)]
    base = _left_lengths(space, xi, pts)
    moved = _left_lengths(space, h @ xi @ h.conj().T, [h @ g for g in pts])
    np.testing.assert_allclose(base, moved, atol=1e-12)


def _ambient_split(xi, x):
    """|ξx|² and v², v the component of the ambient field ξx at x along the
    fibre direction i·x of S⁵ → CP²."""
    y = xi @ x
    v = np.vdot(1j * x, y).real
    return np.vdot(y, y).real, v * v


def test_left_field_length_matches_ambient_sphere_field(rng):
    """Cross-oracle: on S⁵ = SU(3)/SU(2) with the normal metric, the field of
    xi at the coset of g has length² = 2|(ξx)_h|² + (3/2)|(ξx)_v|² for the
    ambient linear field at x = g e3, split into its part v along the fibre
    direction i·x and the rest h: the normal metric is the round one scaled
    by 2 across the fibres and by 3/2 along them."""
    space = hopf_sphere_space(2)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    for _ in range(20):
        xi = random_algebra_element(SU3, rng)
        g = haar_sample(SU3, rng)
        quotient = space.tangent_length(g.conj().T @ xi @ g)
        total, v2 = _ambient_split(xi, g @ e3)
        assert np.isclose(quotient**2, 2 * (total - v2) + 1.5 * v2, atol=1e-10)


def test_right_field_length_matches_ambient(rng):
    space = hopf_sphere_space(2)
    e3 = np.array([0.0, 0.0, 1.0], dtype=complex)
    d = u1_centralizer_direction(3, 2)
    prof = killing_length_profile(space, None, samples=25, rng=rng, right=d)
    assert prof.gap <= 1e-12
    # d e3 lies along the fibre: the ambient field has no part across it
    total, v2 = _ambient_split(d, e3)
    assert np.isclose(v2, total, atol=1e-15)
    assert np.isclose(prof.mean, np.sqrt(1.5 * v2), atol=1e-12)


def test_so5_so3_has_no_constant_direction(rng):
    space = so5_so3_space()
    worst = np.inf
    for _ in range(25):
        xi = random_algebra_element(space.group, rng, unit=True)
        prof = killing_length_profile(space, xi, samples=150, rng=rng)
        worst = min(worst, prof.relative_gap)
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# constant-length certificates

# highest weights of the components of Sym²𝔤 in orthonormal ε coordinates,
# with the positive roots and ρ: B2 = so(5) and A2 = su(3)
_B2_ROOTS = np.array([[1, 0], [0, 1], [1, -1], [1, 1]])
_A2_ROOTS = np.array([[1, -1, 0], [1, 0, -1], [0, 1, -1]])
_SYM2_WEIGHTS = {
    "SO": (_B2_ROOTS, [[0, 0], [1, 0], [2, 0], [2, 2]]),
    "SU": (_A2_ROOTS, [[0, 0, 0], [1, 0, -1], [2, 0, -2]]),
}


@pytest.mark.parametrize("family,n", [("SO", 5), ("SU", 3)])
def test_casimir_components_match_the_weyl_formulas(family, n):
    roots, weights = _SYM2_WEIGHTS[family]
    rho = roots.sum(axis=0) / 2
    weights = np.array(weights, dtype=float)
    # Weyl dimension formula, and the Casimir value <λ, λ + 2ρ> up to one scale
    dims = [round(np.prod((roots @ (w + rho)) / (roots @ rho))) for w in weights]
    casimir = np.einsum("ij,ij->i", weights, weights + 2 * rho)
    components = homogeneous.casimir_components(CompactGroupSpec(family, n))
    assert [len(Q) for _, Q in components] == dims
    values = np.array([v for v, _ in components])
    assert abs(values[0]) <= 1e-12
    np.testing.assert_allclose(values[1:] / casimir[1:], values[-1] / casimir[-1], rtol=1e-12)
    for _, Q in components:
        assert np.max(np.abs(Q - np.swapaxes(Q, 1, 2))) == 0.0
        flat = Q.reshape(len(Q), -1)
        np.testing.assert_allclose(flat @ flat.T, np.eye(len(Q)), atol=1e-12)


def test_so5_so3_metric_form_touches_only_the_trivial_and_35_components():
    space = so5_so3_space()
    basis = algebra_basis(space.group)
    m = np.array([[trace_inner(b, X) for b in basis] for X in space.complement_basis])
    S = m.T @ m
    norms = {
        len(Q): np.linalg.norm(np.tensordot(Q, S, axes=2))
        for _, Q in homogeneous.casimir_components(space.group)
    }
    assert norms[5] <= 1e-12 and norms[14] <= 1e-12
    assert norms[1] > 1.0 and norms[35] > 1.0
    cert = homogeneous.killing_constancy_certificate(space, homogeneous._so5_torus())
    assert cert.component_dims == (1, 5, 14, 35) and cert.touched_dims == (35,)
    assert cert.untouched_max <= 1e-12


def test_so5_so3_certified_minimum_bounds_sampled_directions():
    space = so5_so3_space()
    cert = homogeneous.killing_constancy_certificate(space, homogeneous._so5_torus())
    assert abs(cert.min_norm - 1 / np.sqrt(2)) <= 1e-12
    (Q,) = [Q for _, Q in homogeneous.casimir_components(space.group) if len(Q) == 35]
    basis = np.stack(algebra_basis(space.group))
    rng = np.random.default_rng(35)
    for _ in range(200):
        xi = random_algebra_element(space.group, rng, unit=True)
        x = np.array([trace_inner(b, xi) for b in basis])
        assert np.linalg.norm(np.tensordot(Q, np.outer(x, x), axes=2)) >= cert.min_norm - 1e-12
        # the sampled profile stays the oracle: the field is not constant
        assert killing_length_profile(space, xi, samples=16, rng=rng).relative_gap > 0


def _su3_torus():
    return np.stack(algebra_basis(SU3)[-2:])  # the two diagonal elements


@pytest.mark.parametrize(
    "group,torus",
    [(CompactGroupSpec("SO", 5), homogeneous._so5_torus), (SU3, _su3_torus)],
    ids=["so5", "su3"],
)
def test_a_group_space_touches_no_nontrivial_component(group, torus):
    cert = homogeneous.killing_constancy_certificate(group_space(group), torus())
    assert cert.touched_dims == ()
    assert cert.min_norm == 0.0
    assert cert.untouched_max <= 1e-12


def test_normal_s5_has_no_constant_left_field():
    """By the ambient cross-oracle the squared length on the normal S⁵ is
    2|ξx|² − v²/2; on a torus direction ξ = i diag(a) that is
    Σ 2a_k² p_k − (Σ a_k p_k)²/2 in p_k = |x_k|², constant only for a = 0.
    Every direction is conjugate into the torus: the certificate agrees."""
    cert = homogeneous.killing_constancy_certificate(hopf_sphere_space(2), _su3_torus())
    assert cert.touched_dims and cert.min_norm > 0.1


def test_certificate_refuses_a_bad_torus():
    space = so5_so3_space()
    t = homogeneous._so5_torus()
    with pytest.raises(InvalidParameter, match="orthonormal"):
        homogeneous.killing_constancy_certificate(space, t[:1])
    with pytest.raises(InvalidParameter, match="orthonormal"):
        homogeneous.killing_constancy_certificate(space, np.stack([t[0], t[0]]))
    # the rotations of the planes e1e2 and e2e3 do not commute
    crossed = np.stack([t[0], np.roll(t[0], 1, axis=(0, 1))])
    with pytest.raises(InvalidParameter, match="commute"):
        homogeneous.killing_constancy_certificate(space, crossed)


def test_certificate_refuses_roots_that_miss_the_grid_minimum(monkeypatch):
    # a single root at θ = π/4, where the norm is largest rather than least
    monkeypatch.setattr(np, "roots", lambda coeffs: np.array([np.exp(0.25j * np.pi)]))
    with pytest.raises(InvariantViolated, match="grid minimum"):
        catalog_verify(10)


def test_profile_rejects_zero_field(rng):
    space = hopf_sphere_space(2)
    with pytest.raises(ZeroField):
        killing_length_profile(space, np.zeros((3, 3)), samples=10, rng=rng)


@pytest.mark.parametrize("field", ["left", "right"])
def test_profile_refuses_a_nan_direction_as_not_in_the_algebra(field, rng):
    space = hopf_sphere_space(2)
    nan = np.full((3, 3), np.nan)
    xi, right = (nan, None) if field == "left" else (None, nan)
    with pytest.raises(InvalidParameter, match="skew-hermitian"):
        killing_length_profile(space, xi, samples=10, rng=rng, right=right)


def test_right_component_must_normalize_isotropy(rng):
    space = hopf_sphere_space(2)
    bad = np.zeros((3, 3), dtype=complex)
    bad[0, 2], bad[2, 0] = 1.0, -1.0  # moves the su(2) block
    with pytest.raises(InvalidParameter):
        killing_length_profile(space, None, samples=10, rng=rng, right=bad)


def _per_point_lengths(space, xi, right, pts):
    """One tangent_length per point, and the same lengths from the
    coordinates -trace(B X) one basis element at a time."""
    looped, by_coords = [], []
    for g in pts:
        Y = np.zeros_like(g, dtype=complex)
        if xi is not None:
            Y = Y + g.conj().T @ xi @ g
        if right is not None:
            Y = Y + right
        looped.append(space.tangent_length(Y))
        coords = np.array([trace_inner(b, Y) for b in space.complement_basis])
        by_coords.append(np.sqrt(np.sum(coords**2)))
    return np.array(looped), np.array(by_coords)


@pytest.mark.parametrize(
    "make_space,field",
    [
        (lambda: group_space(SU3), "left"),
        (lambda: group_space(CompactGroupSpec("Sp", 2)), "left"),
        (so5_so3_space, "left"),
        (lambda: hopf_sphere_space(2), "left"),
        (lambda: hopf_sphere_space(2), "both"),
        (lambda: hopf_sphere_space(1), "left"),
    ],
    ids=["su3", "sp2", "so5-so3", "hopf-2", "hopf-2-both", "hopf-1"],
)
def test_killing_profile_matches_per_point_lengths(make_space, field, monkeypatch):
    monkeypatch.setattr(compact_lie, "_SAMPLE_BLOCK", 32)
    space = make_space()
    rng = np.random.default_rng(9)
    xi = random_algebra_element(space.group, rng)
    right = u1_centralizer_direction(3, 2) if field == "both" else None
    prof = killing_length_profile(space, xi, samples=70, rng=np.random.default_rng(6), right=right)
    draw = np.random.default_rng(6)
    pts = [haar_sample(space.group, draw) for _ in range(70)]
    looped, by_coords = _per_point_lengths(space, xi, right, pts)
    for ref in (looped, by_coords):
        np.testing.assert_allclose(
            (prof.min, prof.max, prof.mean), (ref.min(), ref.max(), ref.mean()), rtol=0, atol=1e-12
        )


@pytest.mark.parametrize("profile", ["displacement", "killing"])
def test_long_so5_profile_holds_one_block_at_a_time(profile):
    """50 000 SO(5) samples as one stack would take 40-60 MB here; drawn and
    evaluated in blocks the profile peaks near 6 MB."""
    spec = CompactGroupSpec("SO", 5)
    rng = np.random.default_rng(1)
    if profile == "displacement":
        iso = TwoSidedIsometry(haar_sample(spec, rng), haar_sample(spec, rng))
        run = lambda: group_displacement_profile(spec, iso, 50_000, rng)  # noqa: E731
    else:
        space = so5_so3_space()
        xi = random_algebra_element(spec, rng, unit=True)
        run = lambda: killing_length_profile(space, xi, samples=50_000, rng=rng)  # noqa: E731
    tracemalloc.start()
    try:
        prof = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prof.samples == 50_000
    assert peak < 16 * 2**20


# ---------------------------------------------------------------------------
# Weyl orders and Euler characteristics

WEYL_CLOSED_FORMS = [
    ("A", 1, 2),
    ("A", 2, 6),
    ("A", 3, 24),
    ("A", 4, 120),
    ("A", 5, 720),
    ("B", 2, 8),
    ("B", 3, 48),
    ("B", 4, 384),
    ("C", 2, 8),
    ("C", 3, 48),
    ("D", 4, 192),
    ("D", 5, 1920),
    ("G2", 2, 12),
]


@pytest.mark.parametrize("series,rank,order", WEYL_CLOSED_FORMS)
def test_weyl_group_orders(series, rank, order):
    assert weyl_group_order(series, rank) == order


def test_weyl_rejects_unknown_series():
    with pytest.raises(UnsupportedType):
        weyl_group_order("E", 8)
    with pytest.raises(UnsupportedType):
        weyl_group_order("G2", 3)
    with pytest.raises(UnsupportedType, match="out of the supported range"):
        weyl_group_order("A", 9)


def test_euler_characteristics():
    assert euler_characteristic(("A", 2), [("T", 2)]) == 6  # full flag of SU(3)
    assert euler_characteristic(("A", 2), [("A", 1), ("T", 1)]) == 3  # CP^2
    assert euler_characteristic(("A", 3), [("A", 2), ("T", 1)]) == 4  # CP^3
    assert euler_characteristic(("G2", 2), [("A", 2)]) == 2  # 6-sphere
    assert euler_characteristic(("C", 3), [("C", 1), ("C", 1), ("C", 1)]) == 6
    assert euler_characteristic(("B", 2), [("B", 1)]) == NOT_EQUAL_RANK
    assert euler_characteristic(("B", 2), [("T", 2)]) == 8


def test_euler_characteristic_rank_guard():
    with pytest.raises(InvalidParameter):
        euler_characteristic(("A", 1), [("T", 2)])
    with pytest.raises(InvalidParameter, match="torus rank"):
        euler_characteristic(("A", 2), [("T", 0)])
    # equal rank, but |W(B2)| = 8 does not divide |W(A2)| = 6
    with pytest.raises(InvalidParameter, match="does not divide"):
        euler_characteristic(("A", 2), [("B", 2)])


# ---------------------------------------------------------------------------
# squashed 3-sphere isometry algebras


def test_half_pauli_bracket_relations():
    t1, t2, t3 = su2_half_pauli_basis()
    assert np.max(np.abs(bracket(t1, t2) - t3)) < 1e-12
    assert np.max(np.abs(bracket(t2, t3) - t1)) < 1e-12
    assert np.max(np.abs(bracket(t3, t1) - t2)) < 1e-12


def test_berger_dimensions():
    assert berger_right_isometry_algebra(1.0, 1.0).dimension == 3
    assert berger_right_isometry_algebra(0.5, 1.0).dimension == 1
    assert berger_right_isometry_algebra(0.3, 0.7).dimension == 0
    # equal squashed coefficients still leave the single rotation
    assert berger_right_isometry_algebra(0.5, 0.5).dimension == 1


def test_berger_round_case_recovers_full_algebra():
    rep = berger_right_isometry_algebra(1.0, 1.0)
    assert len(rep.matrix_basis) == 3
    for X in rep.matrix_basis:
        assert np.max(np.abs(X + X.conj().T)) < 1e-10


def _berger_pairs(rng):
    """A 10 x 10 grid of 0 < a <= b <= 1, and random pairs: a < b < 1, on the
    edge a = b and on the edge b = 1."""
    grid = np.linspace(0.1, 1.0, 10)
    pairs = [(a, b) for a in grid for b in grid if a <= b] + [(1e-9, 1e-9), (1e-9, 1.0)]
    a, b = np.sort(rng.uniform(1e-6, 1.0, size=(2, 1000)), axis=0)
    return pairs + [*zip(a, b), *zip(a, a), *zip(a, np.ones_like(a))]


def test_berger_closed_form_matches_the_null_space_oracle(rng):
    """The closed form spans the oracle's null space: the same dimension,
    and the oracle's basis is the chosen T_k up to sign."""
    T = np.stack(su2_half_pauli_basis())
    for a, b in _berger_pairs(rng):
        rep = berger_right_isometry_algebra(a, b)
        want = berger_isometry_oracle(a, b)
        assert rep.dimension == want.shape[1] == len(rep.matrix_basis), (a, b)
        got = np.stack([np.einsum("k,kij->ij", c, T) for c in want.T]) if rep.dimension else []
        for X, Y in zip(rep.matrix_basis, got):
            assert min(np.max(np.abs(X - Y)), np.max(np.abs(X + Y))) <= 1e-12, (a, b)


def test_berger_near_round_fibre_is_not_a_berger_metric():
    """b = 1 - 1e-12 is not 1: no T_k has equal other coefficients, so the
    algebra is 0, where the thresholded SVD of the oracle still answers 1."""
    a, b = 0.5, 1 - 1e-12
    assert berger_right_isometry_algebra(a, b).dimension == 0
    assert berger_isometry_oracle(a, b).shape[1] == 1


def test_berger_rejects_bad_coefficients():
    with pytest.raises(InvalidCoefficients):
        berger_right_isometry_algebra(0.0, 1.0)
    with pytest.raises(InvalidCoefficients):
        berger_right_isometry_algebra(-1.0, 0.5)


# ---------------------------------------------------------------------------
# catalog


def test_catalog_loads_all_entries():
    entries = catalog_load()
    assert len(entries) == 19
    assert [e.id for e in entries] == list(range(1, 20))
    first = entries[0]
    assert first.G.startswith("SO") and first.H.startswith("SO")
    assert "clifford-rotation" in first.checks


def test_bundled_catalog_is_read_once_and_each_caller_gets_its_own_list(monkeypatch, tmp_path):
    bundled = homogeneous.default_catalog_path()
    reads = []

    class CountingResource:
        def read_text(self, encoding):
            reads.append(encoding)
            return bundled.read_text(encoding=encoding)

    monkeypatch.setattr(homogeneous, "default_catalog_path", CountingResource)
    homogeneous._bundled_catalog.cache_clear()
    try:
        first, second = catalog_load(), catalog_load()
        assert len(reads) == 1
        assert first == second and first is not second
        first.clear()
        assert catalog_load() == second and len(second) == 19
        assert len(reads) == 1
    finally:
        homogeneous._bundled_catalog.cache_clear()
    # a catalog given by path is read on every call
    custom = tmp_path / "custom.txt"
    row = "id: {} | name: x | G: a | H: b | isometry_group: c | fibration: d | checks: informational\n"
    custom.write_text(row.format(1))
    assert [e.id for e in catalog_load(custom)] == [1]
    custom.write_text(row.format(1) + row.format(2))
    assert [e.id for e in catalog_load(custom)] == [1, 2]


def test_catalog_parse_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("id: 1 | name: x | G: a | H: b | isometry_group: c | fibration: d | checks: y\nnot a record\n")
    with pytest.raises(ParseError) as err:
        catalog_load(bad)
    assert "line 2" in str(err.value)
    dup = tmp_path / "dup.txt"
    row = "id: 1 | name: x | G: a | H: b | isometry_group: c | fibration: d | checks: y\n"
    dup.write_text(row + row)
    with pytest.raises(ParseError):
        catalog_load(dup)
    for text, message in [
        (row.replace("fibration: d | ", ""), r"line 1: missing fields \['fibration'\]"),
        (row.replace("id: 1", "id: one"), "line 1: id is not an integer"),
    ]:
        bad.write_text(text)
        with pytest.raises(ParseError, match=message):
            catalog_load(bad)


def test_catalog_verify_documented_entries():
    for entry_id, key in [(1, "angle"), (10, "certified_min"), (15, "relative_gap")]:
        rep = catalog_verify(entry_id)
        assert rep.status == "passed"
        assert key in rep.evidence
    assert catalog_verify(17).evidence["dimensions"] == [3, 1, 0]
    assert catalog_verify(4).status == "informational"


def test_hopf_entry_reads_its_fixed_frame_and_draws_no_point(monkeypatch):
    """A right field that normalizes the isotropy algebra has the frame
    proj_m(r) at every point, so catalog entry 15 decides from it alone."""
    def no_draw(*args, **kwargs):
        raise AssertionError("catalog entry 15 drew a point")

    monkeypatch.setattr(homogeneous, "_haar_blocks", no_draw)
    monkeypatch.setattr(compact_lie, "_gaussian_qr", no_draw)
    rep = catalog_verify(15)
    assert rep.status == "passed"
    assert rep.evidence == {"relative_gap": 0.0, "length": 1.0000000000000002}
    assert rep.tolerances == {"bracket": _tol.BRACKET}
    # a direction that moves the isotropy su(2) out of itself fails the entry
    tilted = np.zeros((3, 3), dtype=complex)
    tilted[0, 2], tilted[2, 0] = np.sqrt(0.5), -np.sqrt(0.5)
    monkeypatch.setattr(homogeneous, "u1_centralizer_direction", lambda n, k: tilted)
    assert catalog_verify(15).status == "failed"


def test_every_bundled_check_name_is_known():
    names = {c for e in catalog_load() for c in e.checks}
    assert names <= set(homogeneous._CATALOG_CHECKS)


def test_catalog_verify_unknown_entry():
    with pytest.raises(InvalidParameter):
        catalog_verify(99)


@settings(deadline=None, max_examples=20, derandomize=True)
@given(st.integers(0, 2**32 - 1))
def test_jacobi_identity_su3(seed):
    r = np.random.default_rng(seed)
    X, Y, Z = (random_algebra_element(SU3, r) for _ in range(3))
    total = (
        bracket(X, bracket(Y, Z))
        + bracket(Y, bracket(Z, X))
        + bracket(Z, bracket(X, Y))
    )
    assert np.max(np.abs(total)) < 1e-10
