"""End-to-end homogeneity pipeline: deck validation, centralizers,
transitivity witnesses, verdicts, and report determinism."""

import json

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab.cli import group_manifold_deck
from homoglab._linalg import _vec, null_space, rank_rel
from homoglab.compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    center_elements,
    haar_sample,
)
from homoglab.constant_curvature import haar_sphere, is_clifford_sphere, lens_group
from homoglab.errors import (
    EmptyAmbient,
    InvalidParameter,
    ModelMismatch,
    NotClosed,
)
from homoglab.finite_groups import GroupType, named_binary_group
from homoglab.verifier import (
    HOMOGENEOUS_WITNESS_FOUND,
    NO_WITNESS_IN_AMBIENT,
    NOT_CONSTANT_DISPLACEMENT,
    NOT_FREE,
    DeckGroup,
    GroupManifoldModel,
    SphereModel,
    VerifyConfig,
    centralizer_algebra,
    group_ambient_basis,
    group_deck,
    left_translation_isometry,
    sphere_ambient_basis,
    sphere_deck,
    sphere_deck_from_quaternions,
    transitivity_rank,
    verdict_from_evidence,
    verify_instance,
)

SU2 = CompactGroupSpec("SU", 2)
GROUP_SPECS = (
    SU2,
    CompactGroupSpec("SU", 3),
    CompactGroupSpec("Sp", 2),
    CompactGroupSpec("SO", 3),
    CompactGroupSpec("SO", 4),
)


def _ad_sphere(g, X):
    return g @ X @ g.T


# ---------------------------------------------------------------------------
# centralizer algebra


def test_binary_dihedral_centralizer_is_right_multiplication_copy(rng):
    deck = sphere_deck_from_quaternions(named_binary_group(GroupType("binary_dihedral", 3)))
    Z = centralizer_algebra(deck, sphere_ambient_basis(4))
    assert len(Z) == 3
    # invariance under every deck element
    for g in deck.elements:
        for X in Z:
            assert np.max(np.abs(_ad_sphere(g, X) - X)) <= 1e-8
    # orthonormality in -tr(XY)/... the flattened real inner product
    G = np.array([[np.sum(a * b) for b in Z] for a in Z])
    np.testing.assert_allclose(G, np.eye(3), atol=1e-10)


def test_identity_deck_centralizer_is_full_ambient():
    deck = sphere_deck([np.eye(4)])
    Z = centralizer_algebra(deck, sphere_ambient_basis(4))
    assert len(Z) == 6


def test_centralizer_requires_nonempty_ambient():
    deck = sphere_deck([np.eye(4)])
    with pytest.raises(EmptyAmbient):
        centralizer_algebra(deck, [])


def test_restricted_ambient_loses_the_witness():
    """Handing the pipeline only a torus worth of ambient directions must
    produce a no-witness verdict even for a genuinely homogeneous quotient."""
    deck = sphere_deck(lens_group(5, (1, 1)))
    torus = []
    for (a, b) in [(0, 1), (2, 3)]:
        E = np.zeros((4, 4))
        E[a, b], E[b, a] = 1.0, -1.0
        torus.append(E / np.sqrt(2.0))
    Z = centralizer_algebra(deck, torus)
    assert len(Z) == 2
    min_rank, dim = transitivity_rank(Z, deck.model)
    assert min_rank < dim
    assert verdict_from_evidence(True, True, min_rank, dim) == NO_WITNESS_IN_AMBIENT


# ---------------------------------------------------------------------------
# verify_instance on sphere decks


def test_antipodal_quotient_is_homogeneous():
    report = verify_instance(sphere_deck([np.eye(4), -np.eye(4)]))
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    assert report.free
    assert report.centralizer_dim == 6


@pytest.mark.parametrize("tag", ["binary_tetrahedral", "binary_octahedral", "binary_icosahedral"])
def test_binary_polyhedral_quotients_are_homogeneous(tag):
    deck = sphere_deck_from_quaternions(named_binary_group(GroupType(tag, None)))
    report = verify_instance(deck)
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    assert report.centralizer_dim == 3
    assert report.forward_max_gap is not None
    assert report.forward_max_gap <= report.tolerances["displacement"]


def test_homogeneous_lens_space():
    report = verify_instance(sphere_deck(lens_group(5, (1, 1))))
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    assert report.centralizer_dim == 4
    assert all(e.constant for e in report.clifford_per_element)


def test_inhomogeneous_lens_space():
    report = verify_instance(sphere_deck(lens_group(5, (1, 2))))
    assert report.verdict == NOT_CONSTANT_DISPLACEMENT
    assert report.free
    assert report.centralizer_dim == 2
    gaps = [e.value for e in report.clifford_per_element if not e.constant]
    assert gaps and min(gaps) > 0.1


def test_nonfree_deck_reports_offender():
    g = np.eye(4)
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    g[:2, :2] = [[c, -s], [s, c]]  # fixes a circle of the sphere
    report = verify_instance(sphere_deck([np.eye(4), g, g @ g]))
    assert report.verdict == NOT_FREE
    assert not report.free
    assert report.free_offender in (1, 2)


@st.composite
def _lens_or_binary_deck(draw):
    """L(k; q_1, ..., q_m) with every q_i coprime to k, or a binary group."""
    if draw(st.booleans()):
        k = draw(st.integers(2, 12))
        units = [q for q in range(1, k) if gcd(q, k) == 1]
        qs = draw(st.lists(st.sampled_from(units), min_size=2, max_size=3))
        return sphere_deck(lens_group(k, qs))
    tag = draw(st.sampled_from([
        GroupType.cyclic(draw(st.integers(2, 12))),
        GroupType.binary_dihedral(draw(st.integers(2, 6))),
        GroupType.binary_tetrahedral(),
        GroupType.binary_octahedral(),
        GroupType.binary_icosahedral(),
    ]))
    return sphere_deck_from_quaternions(named_binary_group(tag))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_lens_or_binary_deck())
def test_sphere_quotient_is_homogeneous_iff_every_element_is_clifford_wolf(deck):
    """Wolf's theorem on spheres: S^{n-1}/Γ is homogeneous exactly when every
    element of Γ moves all points the same distance."""
    clifford, _ = is_clifford_sphere(deck.matrices)
    report = verify_instance(deck, config=VerifyConfig(samples=10))
    assert (report.verdict == HOMOGENEOUS_WITNESS_FOUND) == bool(clifford.all())


def test_explicit_model_must_match():
    deck = sphere_deck([np.eye(4), -np.eye(4)])
    with pytest.raises(ModelMismatch):
        verify_instance(deck, model=SphereModel(6))


# ---------------------------------------------------------------------------
# verify_instance on group manifolds


def test_central_deck_on_su2():
    deck = group_deck(
        SU2,
        [
            TwoSidedIsometry(np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
            TwoSidedIsometry(-np.eye(2, dtype=complex), np.eye(2, dtype=complex)),
        ],
    )
    report = verify_instance(deck, config=VerifyConfig(samples=40))
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    assert report.centralizer_dim == 6  # central deck constrains nothing


def test_left_cyclic_deck_on_su2():
    z = np.exp(1j * np.pi / 3)
    a = np.diag([z, z.conj()])
    isos = [
        left_translation_isometry(SU2, np.linalg.matrix_power(a, k)) for k in range(6)
    ]
    report = verify_instance(group_deck(SU2, isos), config=VerifyConfig(samples=40))
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    # left circle through a, plus the full right-multiplication su(2)
    assert report.centralizer_dim == 4


def test_pair_equal_up_to_center_is_the_identity_map():
    minus = TwoSidedIsometry(-np.eye(2, dtype=complex), -np.eye(2, dtype=complex))
    deck = group_deck(SU2, [TwoSidedIsometry(np.eye(2, dtype=complex), np.eye(2, dtype=complex)), minus])
    report = verify_instance(deck, config=VerifyConfig(samples=40))
    # (-g1, -g2) acts as x -> g1* x g2: the same map as the identity pair
    assert report.free
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND


def _two_sided_deck(spec, rng):
    """x -> g^-k x (h g^k h^-1), k = 0, 1, 2, with g a random conjugate of an
    order-3 element: every element fixes x = h^-1."""
    q, h = haar_sample(spec, rng), haar_sample(spec, rng)
    # the cyclic-3 deck's second element is x -> c x, c non-central of order 3
    c = group_manifold_deck(spec, "cyclic-3")[1].g1.conj().T
    g = q @ c @ q.conj().T
    isos, p = [], spec.identity()
    for _ in range(3):
        isos.append(TwoSidedIsometry(p, h @ p @ h.conj().T))
        p = p @ g
    return group_deck(spec, isos)


@pytest.mark.parametrize("spec", GROUP_SPECS, ids=lambda s: s.name)
def test_two_sided_decks_are_never_free(spec):
    """Each deck has a real fixed point, which a sampled descent can miss; the
    conjugacy test names the first non-identity element every time."""
    for seed in range(20):
        deck = _two_sided_deck(spec, np.random.default_rng(seed))
        report = verify_instance(deck, config=VerifyConfig(seed=seed, samples=10))
        assert report.verdict == NOT_FREE
        assert report.free_offender == 1


@pytest.mark.parametrize("spec", GROUP_SPECS, ids=lambda s: s.name)
@pytest.mark.parametrize("name", ["center", "cyclic-3"])
def test_left_translation_decks_stay_free(spec, name):
    deck = group_deck(spec, group_manifold_deck(spec, name))
    report = verify_instance(deck, config=VerifyConfig(samples=10))
    assert report.free and report.free_offender is None
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND


# ---------------------------------------------------------------------------
# deck validation


def test_deck_must_be_closed():
    c, s = np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5)
    r = np.array([[c, -s], [s, c]])
    g = np.block([[r, np.zeros((2, 2))], [np.zeros((2, 2)), r]])
    with pytest.raises(NotClosed):
        sphere_deck([np.eye(4), g])


def test_deck_must_contain_identity():
    with pytest.raises(NotClosed):
        sphere_deck([-np.eye(4)])


def test_deck_rejects_non_orthogonal():
    with pytest.raises(ModelMismatch):
        sphere_deck([np.eye(4), 2.0 * np.eye(4)])


def test_deck_rejects_shape_mismatch():
    with pytest.raises(ModelMismatch):
        sphere_deck([np.eye(4), np.eye(3)], ambient_dim=4)


def test_deck_rejects_empty():
    with pytest.raises(InvalidParameter):
        sphere_deck([])


def test_group_deck_rejects_inverted_isometries():
    inv = TwoSidedIsometry(np.eye(2, dtype=complex), np.eye(2, dtype=complex), inverted=True)
    with pytest.raises(ModelMismatch):
        group_deck(SU2, [inv])


def test_group_deck_requires_closure():
    z = np.exp(2j * np.pi / 5)
    a = np.diag([z, z.conj()])
    with pytest.raises(NotClosed):
        group_deck(SU2, [left_translation_isometry(SU2, np.eye(2)), left_translation_isometry(SU2, a)])


def _order5_deck(spec, drop=None):
    """x -> a^-k x a^-k for k = 0..4, a of order 5 (no power of it is
    central); ``drop`` leaves one element out."""
    a = group_manifold_deck(spec, "cyclic-5")[1].g1
    powers = [np.linalg.matrix_power(a, k) for k in range(5)]
    isos = [TwoSidedIsometry(p, p.conj().T) for p in powers]
    if drop is not None:
        del isos[drop]
    return isos


@pytest.mark.parametrize("spec", GROUP_SPECS, ids=lambda s: s.name)
def test_group_deck_closure_sees_products_and_inverses(spec):
    group_deck(spec, _order5_deck(spec))
    with pytest.raises(NotClosed):  # {1, a, a^2, a^3}: a * a^3 = a^4 is missing
        group_deck(spec, _order5_deck(spec, drop=4))
    with pytest.raises(NotClosed):  # {1, a^2, a^3, a^4}: a^4 has no inverse a
        group_deck(spec, _order5_deck(spec, drop=1))


@pytest.mark.parametrize(
    "spec", [s for s in GROUP_SPECS if len(center_elements(s)) > 1], ids=lambda s: s.name
)
def test_group_deck_closure_is_up_to_the_center(spec):
    """(z g1, z g2) is the same map as (g1, g2) for central z: a deck may list
    any central multiple of a pair, the identity pair included."""
    z = center_elements(spec)[-1]
    listed = [TwoSidedIsometry(z @ iso.g1, z @ iso.g2) for iso in _order5_deck(spec)]
    group_deck(spec, listed[::-1])
    # (1, z) is x -> x z, not the identity map: no pair is the identity
    with pytest.raises(NotClosed):
        group_deck(spec, [TwoSidedIsometry(spec.identity(), z)] + listed[1:])


# ---------------------------------------------------------------------------
# rank utilities and verdict table


def test_empty_span_has_rank_zero():
    assert transitivity_rank([], SphereModel(4)) == (0, 3)


def _per_point_rank(Z, model, x):
    if isinstance(model, SphereModel):
        rows = np.array([_vec(np.asarray(X) @ x) for X in Z])
    else:
        rows = np.array([_vec(x.conj().T @ E[0] @ x + E[1]) for E in Z])
    return rank_rel(rows, rel_cutoff=1e-8)


def _per_point_min_rank(Z, model, points, seed):
    rng = np.random.default_rng(seed)
    if isinstance(model, SphereModel):
        base = np.eye(model.ambient_dim)[0]
        pts = [base] + list(haar_sphere(model.ambient_dim, points, rng))
    else:
        pts = [model.spec.identity()] + [haar_sample(model.spec, rng) for _ in range(points)]
    return min(_per_point_rank(Z, model, x) for x in pts)


def _named_group_deck(family, n, name):
    spec = CompactGroupSpec(family, n)
    return group_deck(spec, group_manifold_deck(spec, name))


@pytest.mark.parametrize(
    "make_deck",
    [
        lambda: sphere_deck_from_quaternions(named_binary_group(GroupType("binary_dihedral", 3))),
        lambda: sphere_deck(lens_group(5, (1, 2))),
        lambda: sphere_deck(lens_group(9, (1, 2, 4))),
        lambda: _named_group_deck("SU", 2, "cyclic-3"),
        lambda: _named_group_deck("SU", 3, "cyclic-3"),
        lambda: _named_group_deck("SO", 4, "center"),
        lambda: _named_group_deck("Sp", 2, "cyclic-3"),
    ],
    ids=["s3-dihedral", "s3-lens-5-1-2", "s5-lens-9", "su2-cyclic-3", "su3-cyclic-3", "so4-center", "sp2-cyclic-3"],
)
def test_transitivity_rank_equals_per_point_loop(make_deck):
    """The base-point rank is the least rank over the base point and 12 Haar
    points: the centralizer's rank is the same everywhere.  Lens decks with
    distinct exponents have a torus centralizer, so their rank stays below the
    dimension; the others reach it."""
    deck = make_deck()
    ambient = (
        sphere_ambient_basis(deck.model.ambient_dim)
        if isinstance(deck.model, SphereModel)
        else group_ambient_basis(deck.model.spec)
    )
    Z = centralizer_algebra(deck, ambient)
    rank, dim = transitivity_rank(Z, deck.model)
    assert dim == deck.model.manifold_dim
    assert rank == _per_point_min_rank(Z, deck.model, 12, 3)


def test_full_ambient_is_transitive_for_both_models():
    assert transitivity_rank(sphere_ambient_basis(5), SphereModel(5)) == (4, 4)
    rank, dim = transitivity_rank(group_ambient_basis(SU2), GroupManifoldModel(SU2))
    assert rank == dim == 3


@pytest.mark.parametrize(
    "free,constant,rank,dim,expected",
    [
        (False, True, 3, 3, NOT_FREE),
        (True, False, 3, 3, NOT_CONSTANT_DISPLACEMENT),
        (True, True, 3, 3, HOMOGENEOUS_WITNESS_FOUND),
        (True, True, 2, 3, NO_WITNESS_IN_AMBIENT),
    ],
    ids=["not-free", "not-constant", "witness", "no-witness"],
)
def test_verdict_table(free, constant, rank, dim, expected):
    assert verdict_from_evidence(free, constant, rank, dim) == expected


# ---------------------------------------------------------------------------
# report shape and determinism


def test_report_json_contract():
    report = verify_instance(sphere_deck(lens_group(7, (1, 1))))
    payload = report.to_json_dict()
    assert set(payload) == {
        "free",
        "elements",
        "centralizer_dim",
        "rank_evidence",
        "verdict",
        "seed",
        "tolerances",
    }
    assert set(payload["rank_evidence"]) == {
        "points",
        "min_rank",
        "dim",
        "forward_max_gap",
        "scope",
    }
    assert json.loads(report.to_json()) == payload


def test_reports_are_deterministic_per_seed():
    deck = sphere_deck_from_quaternions(named_binary_group(GroupType("binary_tetrahedral", None)))
    a = verify_instance(deck, config=VerifyConfig(seed=11))
    b = verify_instance(deck, config=VerifyConfig(seed=11))
    c = verify_instance(deck, config=VerifyConfig(seed=12))
    assert a.to_json() == b.to_json()
    assert c.verdict == a.verdict  # evidence may differ, conclusion must not


def test_config_validation():
    with pytest.raises(InvalidParameter):
        VerifyConfig(samples=5)
    with pytest.raises(InvalidParameter):
        VerifyConfig(tol=0.0)


def test_config_has_no_descent_settings():
    for knob in ("multistarts", "refine_steps"):
        with pytest.raises(TypeError):
            VerifyConfig(**{knob: 4})


def test_transitivity_is_decided_at_one_point():
    """No sampling knob is left: the report states one point and its scope."""
    with pytest.raises(TypeError):
        VerifyConfig(points=20)
    rank_evidence = verify_instance(sphere_deck(lens_group(7, (1, 1)))).to_json_dict()["rank_evidence"]
    assert rank_evidence["points"] == 1
    assert "base point" in rank_evidence["scope"]


# ---------------------------------------------------------------------------
# the stacked centralizer against the per-element, per-direction loop


def _ad_isometry_oracle(model, gamma, b):
    if isinstance(model, SphereModel):
        g = np.asarray(gamma)
        return g @ b @ g.T
    g1, g2 = gamma.g1, gamma.g2
    return np.stack([g1.conj().T @ b[0] @ g1, g2.conj().T @ b[1] @ g2])


def centralizer_oracle(deck, ambient_basis):
    basis = list(ambient_basis)
    M = np.vstack([
        np.column_stack([_vec(_ad_isometry_oracle(deck.model, g, b) - b) for b in basis])
        for g in deck.elements
    ])
    coeff = np.eye(len(basis)) if np.max(np.abs(M)) <= 1e-12 else null_space(M, rel_cutoff=1e-8)
    return tuple(np.tensordot(coeff.T, np.stack(basis), axes=1))


@pytest.mark.parametrize(
    "make_deck",
    [
        lambda: sphere_deck_from_quaternions(named_binary_group(GroupType.binary_icosahedral())),
        lambda: sphere_deck_from_quaternions(named_binary_group(GroupType.cyclic(12))),
        lambda: sphere_deck(lens_group(9, (1, 2, 4))),
        lambda: sphere_deck(lens_group(12, (1, 1, 1, 1))),
        lambda: sphere_deck([np.eye(4)]),
        lambda: _named_group_deck("SU", 2, "cyclic-3"),
        lambda: _named_group_deck("SU", 3, "center"),
        lambda: _named_group_deck("SO", 4, "cyclic-3"),
        lambda: _named_group_deck("Sp", 2, "cyclic-3"),
        lambda: _two_sided_deck(CompactGroupSpec("SU", 3), np.random.default_rng(5)),
    ],
    ids=["s3-icosahedral", "s3-cyclic-12", "s5-lens-9", "s7-lens-12", "s3-identity",
         "su2-cyclic-3", "su3-center", "so4-cyclic-3", "sp2-cyclic-3", "su3-two-sided"],
)
def test_stacked_centralizer_equals_the_per_element_loop(make_deck):
    deck = make_deck()
    ambient = (
        sphere_ambient_basis(deck.model.ambient_dim)
        if isinstance(deck.model, SphereModel)
        else group_ambient_basis(deck.model.spec)
    )
    got, want = centralizer_algebra(deck, ambient), centralizer_oracle(deck, ambient)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    # orthonormal in the _vec dot product, as Gram-Schmidt would leave it
    V = _vec(np.stack(got), lead=1)
    np.testing.assert_allclose(V @ V.T, np.eye(len(got)), rtol=0, atol=1e-12)


def test_sphere_deck_keeps_its_stack_and_checks_every_element():
    deck = sphere_deck(lens_group(7, (1, 2)))
    assert deck.matrices.shape == (7, 4, 4)
    assert all(np.array_equal(a, b) for a, b in zip(deck.matrices, deck.elements))
    mats = lens_group(7, (1, 2))
    mats[3] = mats[3] * (1 + 1e-6)
    with pytest.raises(ModelMismatch):
        sphere_deck(mats)
