"""End-to-end homogeneity pipeline: deck validation, centralizers,
transitivity witnesses, verdicts, and report determinism."""

import itertools
import json
import sys

from collections import Counter
from functools import partial
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from homoglab import _linalg
from homoglab.cli import group_manifold_deck, sphere_group_matrices
from homoglab._linalg import null_space, rank_rel
from homoglab.compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    algebra_basis,
    biinvariant_distance,
    center_elements,
    group_exp,
    haar_sample,
    is_identity_isometry,
    min_displacement,
)
from homoglab.constant_curvature import is_clifford_sphere, lens_group, rotation_block
from homoglab.errors import (
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
    group_deck,
    left_translation_isometry,
    sphere_deck,
    sphere_deck_from_quaternions,
    transitivity_rank,
    verdict_from_evidence,
    verify_instance,
)
from oracles import SO4_HALVES, _vec, haar_sphere, right_translation_matrix, su2_matrix

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


def _ambient_basis(model):
    """Basis of the full isometry algebra: so(n) on a sphere; on a group
    manifold the left fields (X, 0), then the right fields (0, Y), as stacked
    pairs acting through x -> exp(tX) x exp(tY)."""
    if isinstance(model, SphereModel):
        return np.stack(algebra_basis(CompactGroupSpec("SO", model.ambient_dim)))
    basis = np.stack(algebra_basis(model.spec)).astype(complex)
    zero = np.zeros_like(basis)
    return np.concatenate([np.stack([basis, zero], axis=1), np.stack([zero, basis], axis=1)])


def _fields(Z, model):
    """The centralizer's fields as matrices (sphere) or (X, Y) pairs (group
    manifold): its coordinate arrays put on the diagonal of ``_ambient_basis``."""
    return np.tensordot(block_diag(*Z).T, _ambient_basis(model), axes=1)


# ---------------------------------------------------------------------------
# centralizer algebra


def test_binary_dihedral_centralizer_is_right_multiplication_copy(rng):
    deck = sphere_deck_from_quaternions(named_binary_group(GroupType("binary_dihedral", 3)))
    Z = centralizer_algebra(deck)
    fields = _fields(Z, deck.model)
    assert len(fields) == 3
    # invariance under every deck element
    for g in deck.elements:
        for X in fields:
            assert np.max(np.abs(_ad_sphere(g, X) - X)) <= 1e-8
    # orthonormal coordinates, so orthonormal fields in -tr(XY)
    G = np.array([[-np.trace(a @ b) for b in fields] for a in fields])
    np.testing.assert_allclose(G, np.eye(3), atol=1e-10)


def test_identity_deck_centralizer_is_full_ambient():
    deck = sphere_deck([np.eye(4)])
    (C,) = centralizer_algebra(deck)
    assert C.shape == (6, 6)
    assert verify_instance(deck).centralizer_dim == 6


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


def _lens_decks():
    """Every L(K; 1, q_2, ..., q_m) with each q_i a unit mod K, as (K,
    exponents): on s3 for K <= 24, on s5 for K <= 16 and on s7 for K <= 10."""
    for m, top in ((2, 24), (3, 16), (4, 10)):
        for K in range(2, top + 1):
            units = [q for q in range(1, K) if gcd(q, K) == 1]
            for rest in itertools.combinations_with_replacement(units, m - 1):
                yield K, (1, *rest)


def test_lens_decks_match_the_closed_forms():
    """Wolf's classification of homogeneous spherical space forms on lens
    decks L(K; 1, q_2, ..., q_m): the deck is free; it is constant iff every
    q_i = +-1 mod K; its centralizer is the sum of u(m_j) over the classes
    {q, -q} mod K, m_j exponents each (all of so(2m) for K = 2, whose one
    element is -I); and it is a witness iff there is one class."""
    count = 0
    for K, exps in _lens_decks():
        report = verify_instance(sphere_deck(lens_group(K, exps)))
        m = len(exps)
        classes = Counter(min(q % K, -q % K) for q in exps)
        constant = all((q - 1) % K == 0 or (q + 1) % K == 0 for q in exps)
        cdim = m * (2 * m - 1) if K == 2 else sum(c * c for c in classes.values())
        verdict = HOMOGENEOUS_WITNESS_FOUND if len(classes) == 1 else NOT_CONSTANT_DISPLACEMENT
        got = (report.free, all(e.constant for e in report.clifford_per_element),
               report.centralizer_dim, report.verdict)
        assert got == (True, constant, cdim, verdict), (K, exps)
        count += 1
    assert count == 682


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


QUATERNION_DECKS = (
    [GroupType.cyclic(n) for n in (1, 2, 3, 5, 8)]
    + [GroupType.binary_dihedral(m) for m in (2, 3, 6)]
    + [GroupType.binary_tetrahedral(), GroupType.binary_octahedral(),
       GroupType.binary_icosahedral()]
)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("tag", QUATERNION_DECKS, ids=repr)
def test_quaternion_deck_agrees_on_s3_and_su2(tag, side):
    """S^3 is SU(2): the unit quaternions with the round metric of radius 1,
    and SU(2) with -trace(XY), which is the round metric of radius sqrt(2).
    Left or right multiplication by a quaternion deck must give the same
    report in both models, with every displacement scaled by sqrt(2)."""
    group = named_binary_group(tag)
    if side == "left":
        s3_deck = sphere_deck_from_quaternions(group)
        isos = [left_translation_isometry(SU2, su2_matrix(q)) for q in group.elements]
    else:
        s3_deck = sphere_deck([right_translation_matrix(q) for q in group.elements])
        isos = [TwoSidedIsometry(np.eye(2, dtype=complex), su2_matrix(q)) for q in group.elements]
    s3 = verify_instance(s3_deck).to_json_dict()
    su2 = verify_instance(group_deck(SU2, isos)).to_json_dict()
    for key in ("verdict", "free", "centralizer_dim"):
        assert su2[key] == s3[key], key
    assert [e["constant"] for e in su2["elements"]] == [e["constant"] for e in s3["elements"]]
    su2_values = np.array([e["value"] for e in su2["elements"]])
    s3_values = np.array([e["value"] for e in s3["elements"]])
    assert np.max(np.abs(su2_values - np.sqrt(2.0) * s3_values)) <= 1e-12


def test_so4_deck_aligned_with_the_two_halves(rng):
    """g = exp(4 pi/3 s) and h = exp(4 pi/3 a), with s a unit self-dual and a a
    unit anti-self-dual direction, have order 3 and are not central.  The deck
    x -> g^-k x h^k is free, and every element is constant, because Ad(g^k)
    fixes the anti-self-dual half of so(4) and Ad(h^k) the self-dual half."""
    so4 = CompactGroupSpec("SO", 4)
    s, a = (np.tensordot(rng.standard_normal(3), half, axes=1) for half in SO4_HALVES)
    g, h = (group_exp(4 * np.pi / 3 * X / np.sqrt(-np.trace(X @ X))) for X in (s, a))
    for x in (g, h):
        assert not any(np.allclose(x, z) for z in center_elements(so4))
    isos = [TwoSidedIsometry(np.linalg.matrix_power(g, k), np.linalg.matrix_power(h, k))
            for k in range(3)]
    report = verify_instance(group_deck(so4, isos), config=VerifyConfig(samples=200))
    assert report.free
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    assert report.centralizer_dim == 8
    assert [e.constant for e in report.clifford_per_element] == [True] * 3
    # a constant element reports its least displacement, the class distance,
    # which is the displacement d(g1, g2) at the identity
    values = [e.value for e in report.clifford_per_element]
    assert values == [min_displacement(so4, iso) for iso in isos]
    for v, iso in zip(values, isos):
        assert abs(v - biinvariant_distance(so4, iso.g1, iso.g2)) <= 1e-12


def test_pair_equal_up_to_center_is_the_identity_map():
    minus = TwoSidedIsometry(-np.eye(2, dtype=complex), -np.eye(2, dtype=complex))
    # (-g1, -g2) acts as x -> g1* x g2: the same map as the identity pair
    assert is_identity_isometry(SU2, minus)
    # so a deck holding both lists the identity map twice
    with pytest.raises(NotClosed, match="repeats an element"):
        group_deck(SU2, [TwoSidedIsometry(np.eye(2, dtype=complex), np.eye(2, dtype=complex)), minus])


def test_deck_that_lists_an_isometry_twice_is_refused():
    """(-g^k, -I) is the same map as (g^k, I), so these six pairs are the
    three maps of a cyclic deck, each listed twice; on the sphere, I is
    listed twice beside -I."""
    g = group_manifold_deck(SU2, "cyclic-3")[1].g1
    ident = np.eye(2, dtype=complex)
    powers = [ident, g, g @ g]
    twice = [TwoSidedIsometry(p, ident) for p in powers]
    twice += [TwoSidedIsometry(-p, -ident) for p in powers]
    assert len(group_deck(SU2, twice[:3]).elements) == 3
    with pytest.raises(NotClosed, match="repeats an element"):
        group_deck(SU2, twice)
    with pytest.raises(NotClosed, match="repeats an element"):
        sphere_deck([np.eye(4), np.eye(4), -np.eye(4)])


def _two_sided_deck(spec, rng, order=3):
    """x -> g^-k x (h g^k h^-1), k = 0 .. order - 1, with g a random conjugate
    of an element of that order: every element fixes x = h^-1."""
    q, h = haar_sample(spec, rng), haar_sample(spec, rng)
    # the cyclic deck's second element is x -> c x, c non-central of that order
    c = group_manifold_deck(spec, f"cyclic-{order}")[1].g1.conj().T
    g = q @ c @ q.conj().T
    isos, p = [], spec.identity()
    for _ in range(order):
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


def _record_calls(monkeypatch, names):
    """Record the positional arguments of each call of each named function,
    through every homoglab module that binds it, so that a call from inside
    its own module counts too."""
    calls = {name: [] for name in names}
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "homoglab"]
    for name in names:
        original = next(vars(m)[name] for m in modules if name in vars(m))

        def recorded(*args, _name=name, _original=original, **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)

        for m in modules:
            if vars(m).get(name) is original:
                monkeypatch.setattr(m, name, recorded)
    return calls


def _fixing_sphere_deck():
    g = block_diag(rotation_block(2 * np.pi / 3), np.eye(2))
    return sphere_deck([np.eye(4), g, g @ g])


PIPELINE_DECKS = pytest.mark.parametrize(
    "build,want",
    [(lambda: sphere_deck(sphere_group_matrices("binary-icosahedral")), HOMOGENEOUS_WITNESS_FOUND),
     (lambda: sphere_deck(lens_group(5, (1, 2))), NOT_CONSTANT_DISPLACEMENT),
     (_fixing_sphere_deck, NOT_FREE),
     (lambda: group_deck(CompactGroupSpec("SU", 3), group_manifold_deck(
         CompactGroupSpec("SU", 3), "cyclic-3")), HOMOGENEOUS_WITNESS_FOUND),
     (lambda: _two_sided_deck(SU2, np.random.default_rng(0)), NOT_FREE)],
    ids=["s3-witness", "s3-lens-5-1-2", "s3-fixing", "su3-witness", "su2-two-sided"],
)


@PIPELINE_DECKS
def test_each_deck_takes_one_displacement_range(monkeypatch, build, want):
    """verify_instance reads freeness (on a group manifold), constancy, the
    element values and the forward re-check from one range per deck: one
    ``sphere_displacement_range`` on a sphere, and one ``_translation_ranges``
    holding the deck's one class distance on a group manifold."""
    deck = build()
    calls = _record_calls(
        monkeypatch, ["sphere_displacement_range", "_translation_ranges", "_class_distance"]
    )
    assert verify_instance(deck).verdict == want
    sphere = isinstance(deck.model, SphereModel)
    assert {k: len(v) for k, v in calls.items()} == {
        "sphere_displacement_range": int(sphere),
        "_translation_ranges": int(not sphere),
        "_class_distance": int(not sphere)}


@PIPELINE_DECKS
def test_each_deck_factor_is_conjugated_against_the_basis_once(monkeypatch, build, want):
    """verify_instance reads the centralizer and, on a group manifold, the
    constancy flags from one pass of Ad: one ``_adjoint_pass`` over the
    deck's stack of k elements with one factor on a sphere and two on a
    group manifold."""
    deck = build()
    calls = _record_calls(monkeypatch, ["_adjoint_pass"])
    assert verify_instance(deck).verdict == want
    ((spec, maps),) = calls["_adjoint_pass"]
    sphere = isinstance(deck.model, SphereModel)
    assert maps.shape[:2] == (deck.order, 1 if sphere else 2)


CONJECTURE_SPECS = (SU2, CompactGroupSpec("SU", 3), CompactGroupSpec("SO", 4),
                    CompactGroupSpec("Sp", 2))


@st.composite
def _one_sided_deck(draw):
    """A cyclic group of order 2 to 6, generated by a random conjugate of a
    non-central element, times the center, acting by left or by right
    translations; each element is listed once.  (On SU(2) the only element of
    order 2 is central, so the order starts at 3 there.)"""
    spec = draw(st.sampled_from(CONJECTURE_SPECS))
    order = draw(st.integers(3 if spec == SU2 else 2, 6))
    right = draw(st.booleans())
    q = haar_sample(spec, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    gen = group_manifold_deck(spec, f"cyclic-{order}")[1].g1.conj().T
    g = q @ gen @ q.conj().T
    elements, p = [], spec.identity()
    for _ in range(order):
        for z in center_elements(spec):
            e = z @ p
            if all(np.max(np.abs(e - f)) > 1e-9 for f in elements):
                elements.append(e)
        p = p @ g
    if right:
        return group_deck(spec, [TwoSidedIsometry(spec.identity(), e) for e in elements])
    return group_deck(spec, [left_translation_isometry(spec, e) for e in elements])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(_one_sided_deck())
def test_one_sided_decks_are_homogeneous(deck):
    """The conjecture's converse for one-sided decks: translations on the
    other side commute with the deck and act transitively, so every finite
    deck of left (or of right) translations gives a homogeneous quotient."""
    report = verify_instance(deck)
    pts, min_rank, dim = report.transitivity
    assert report.verdict == HOMOGENEOUS_WITNESS_FOUND
    assert report.free
    assert all(e.constant for e in report.clifford_per_element)
    assert min_rank == dim


# ---------------------------------------------------------------------------
# conjugation invariance


def _same_verdict(a, b):
    a, b = a.to_json_dict(), b.to_json_dict()
    for key in ("verdict", "free", "centralizer_dim"):
        assert a[key] == b[key], key


@pytest.mark.parametrize(
    "model,name",
    [("s3", "binary-icosahedral"), ("s3", "binary-dihedral-3"), ("s3", "lens-7-1-2"),
     ("s5", "lens-9-1-2-4"), ("s7", "lens-12-1-1-1-1")],
)
def test_conjugating_a_sphere_deck_keeps_its_verdict(model, name):
    """h G h^-1, for h a random rotation, is the same quotient moved by an
    isometry: the verdict, freeness and centralizer dimension do not change.
    (The rank at the base point may: lens-7-1-2 has rank 1 or 2 depending on
    the point, so min_rank is not compared.)"""
    n = int(model[1:]) + 1
    mats = np.asarray(sphere_group_matrices(name, n))
    h = haar_sample(CompactGroupSpec("SO", n), np.random.default_rng(n))
    _same_verdict(verify_instance(sphere_deck(mats)),
                  verify_instance(sphere_deck(h @ mats @ h.T)))


def _fixing_deck(spec, name):
    """x -> g^-k x g^k: every element fixes the identity."""
    return [TwoSidedIsometry(iso.g1, iso.g1) for iso in group_manifold_deck(spec, name)]


@pytest.mark.parametrize(
    "spec,name,build",
    [(SU2, "center", group_manifold_deck), (SU2, "cyclic-3", group_manifold_deck),
     (CompactGroupSpec("SO", 3), "cyclic-3", group_manifold_deck),
     (CompactGroupSpec("SO", 4), "cyclic-3", group_manifold_deck),
     (CompactGroupSpec("SU", 3), "cyclic-3", group_manifold_deck),
     (CompactGroupSpec("Sp", 2), "cyclic-3", group_manifold_deck),
     (CompactGroupSpec("SU", 3), "cyclic-3", _fixing_deck)],
    ids=["su2-center", "su2-cyclic-3", "so3-cyclic-3", "so4-cyclic-3", "su3-cyclic-3",
         "sp2-cyclic-3", "su3-fixing"],
)
def test_conjugating_a_group_deck_keeps_its_verdict(spec, name, build):
    """(g1, g2) -> (h g1 h^-1, k g2 k^-1) is conjugation by the isometry
    x -> h x k^-1, for any h and k in the group."""
    isos = build(spec, name)
    h, k = haar_sample(spec, np.random.default_rng(spec.matrix_size), size=2)
    moved = [TwoSidedIsometry(h @ iso.g1 @ h.conj().T, k @ iso.g2 @ k.conj().T) for iso in isos]
    _same_verdict(verify_instance(group_deck(spec, isos)),
                  verify_instance(group_deck(spec, moved)))


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan, 1e200])
def test_deck_refuses_an_entry_past_one_before_its_product(entry):
    """Every entry of an orthogonal matrix lies in [-1, 1]: a larger one, or
    NaN, is refused before g^T g could overflow or warn."""
    m = np.eye(4)
    m[0, 1] = entry
    with pytest.raises(ModelMismatch, match="not orthogonal"):
        sphere_deck([np.eye(4), m])


def test_deck_rejects_shape_mismatch():
    with pytest.raises(ModelMismatch):
        sphere_deck([np.eye(4), np.eye(3)])


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
    assert transitivity_rank((np.zeros((6, 0)),), SphereModel(4)) == (0, 3)
    empty = np.zeros((3, 0))
    assert transitivity_rank((empty, empty), GroupManifoldModel(SU2)) == (0, 3)


def _per_point_rank(Z, model, x):
    fields = _fields(Z, model)
    if isinstance(model, SphereModel):
        rows = np.array([_vec(X @ x) for X in fields])
    else:
        rows = np.array([_vec(x.conj().T @ E[0] @ x + E[1]) for E in fields])
    return rank_rel(rows)


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
    Z = centralizer_algebra(deck)
    rank, dim = transitivity_rank(Z, deck.model)
    assert dim == deck.model.manifold_dim
    assert rank == _per_point_min_rank(Z, deck.model, 12, 3)


def test_full_ambient_is_transitive_for_both_models():
    assert transitivity_rank((np.eye(10),), SphereModel(5)) == (4, 4)
    rank, dim = transitivity_rank((np.eye(3), np.eye(3)), GroupManifoldModel(SU2))
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


# one deck of each kind of report: sphere and group manifold, witness,
# non-constant elements, not free
REPORT_DECKS = {
    "s3-binary-tetrahedral": lambda: sphere_deck_from_quaternions(
        named_binary_group(GroupType("binary_tetrahedral", None))
    ),
    "s5-lens-9-1-2-4": lambda: sphere_deck(lens_group(9, (1, 2, 4))),
    "su2-cyclic-3": lambda: group_deck(SU2, group_manifold_deck(SU2, "cyclic-3")),
    "su3-two-sided": lambda: _two_sided_deck(CompactGroupSpec("SU", 3), np.random.default_rng(0)),
}


@pytest.mark.parametrize("name", REPORT_DECKS)
def test_reports_are_deterministic_per_seed(name):
    """No point is drawn, so reports agree across seeds and sample counts
    apart from the seed they record."""
    deck = REPORT_DECKS[name]()
    a = verify_instance(deck, config=VerifyConfig(seed=11)).to_json_dict()
    b = verify_instance(deck, config=VerifyConfig(seed=12, samples=10)).to_json_dict()
    assert (a.pop("seed"), b.pop("seed")) == (11, 12)
    assert a == b


def test_the_pipeline_draws_no_point(monkeypatch, capsys):
    """verify_instance, check-homogeneity and check-clifford run with every
    Haar sampler replaced by one that raises."""
    from homoglab import compact_lie
    from homoglab.cli import main

    decks = [make() for make in REPORT_DECKS.values()]

    def refuse(*args, **kwargs):
        raise AssertionError("a Haar point was drawn")

    for name in ("haar_sample", "_haar_blocks", "_haar_block", "haar_unitary", "haar_orthogonal"):
        monkeypatch.setattr(compact_lie, name, refuse)
    for deck in decks:
        verify_instance(deck)
    for argv in (["check-homogeneity", "--model", "s5", "--group", "lens-9-1-2-4"],
                 ["check-homogeneity", "--model", "so4", "--group", "cyclic-3"],
                 ["check-clifford", "--model", "s3", "--group", "lens-7-1-2"],
                 ["check-clifford", "--model", "s3", "--group", "binary-octahedral"]):
        assert main(argv) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


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


def centralizer_oracle(deck):
    """Orthonormal coordinates on ``_ambient_basis`` of the common null space
    of Ad(γ) − I, one deck element and one basis direction at a time."""
    basis = _ambient_basis(deck.model)
    M = np.vstack([
        np.column_stack([_vec(_ad_isometry_oracle(deck.model, g, b) - b) for b in basis])
        for g in deck.elements
    ])
    return np.eye(len(basis)) if np.max(np.abs(M)) <= 1e-12 else null_space(M, rel_cutoff=1e-8)


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
    """The range of the group-averaged Ad is the oracle's null space: the
    bases differ, so the test compares the projectors onto the two spans."""
    deck = make_deck()
    got, want = block_diag(*centralizer_algebra(deck)), centralizer_oracle(deck)
    assert got.shape == want.shape
    np.testing.assert_allclose(got.T @ got, np.eye(got.shape[1]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(got @ got.T, want @ want.T, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "make_deck",
    [lambda: sphere_deck(lens_group(9, (1, 2, 4))),
     lambda: _named_group_deck("SO", 4, "cyclic-3"),
     lambda: _two_sided_deck(CompactGroupSpec("SU", 3), np.random.default_rng(5))],
    ids=["s5-lens-9", "so4-cyclic-3", "su3-two-sided"],
)
def test_centralizer_average_in_blocks_of_one_element(monkeypatch, make_deck):
    deck = make_deck()
    whole = block_diag(*centralizer_algebra(deck))
    monkeypatch.setattr(_linalg, "_BLOCK", 1)
    blocked = block_diag(*centralizer_algebra(deck))
    assert blocked.shape == whole.shape
    np.testing.assert_allclose(blocked @ blocked.T, whole @ whole.T, rtol=0, atol=1e-12)


def _adjoint_character(family, g):
    """Character of Ad on a stack of SO, SU or Sp matrices: Ad is the
    exterior square of the defining representation on so(n), V ⊗ V* less the
    trivial one on su(n), and the symmetric square on sp(n)."""
    t, t2 = np.trace(g, axis1=-2, axis2=-1), np.trace(g @ g, axis1=-2, axis2=-1)
    if family == "SU":
        return np.abs(t) ** 2 - 1
    return ((t**2 + (1 if family == "Sp" else -1) * t2) / 2).real


def _character_decks():
    """Deck factories by name: the polyhedral s3 decks, lens decks, center
    and cyclic decks on group manifolds, and random two-sided decks."""
    decks = {}
    for tag in ("binary_tetrahedral", "binary_octahedral", "binary_icosahedral"):
        group = GroupType(tag, None)
        decks[f"s3-{tag}"] = lambda g=group: sphere_deck_from_quaternions(named_binary_group(g))
    for k, exps in ((5, (1, 2)), (7, (1, 1)), (9, (1, 2, 4)), (10, (1, 3, 3)), (12, (1, 1, 1, 1))):
        name = "lens-" + "-".join(map(str, (k, *exps)))
        decks[name] = lambda k=k, exps=exps: sphere_deck(lens_group(k, exps))
    for family, n in (("SU", 2), ("SU", 3), ("SU", 4), ("SO", 4), ("SO", 5), ("Sp", 2)):
        for name in ("center", "cyclic-3", "cyclic-5"):
            decks[f"{family.lower()}{n}-{name}"] = partial(_named_group_deck, family, n, name)
    for spec in (SU2, CompactGroupSpec("SU", 3), CompactGroupSpec("SO", 4)):
        for order in (3, 5):
            decks[f"{spec.name}-two-sided-{order}"] = lambda spec=spec, order=order: (
                _two_sided_deck(spec, np.random.default_rng(order), order))
    return decks


CHARACTER_DECKS = _character_decks()


@pytest.mark.parametrize("name", CHARACTER_DECKS)
def test_centralizer_dim_is_the_mean_adjoint_character(name):
    """The fixed space of a representation of a finite group has the
    dimension of the group mean of its character, summed here over the
    factors: so(n) with the deck on a sphere, g1 and g2 on a group manifold."""
    deck = CHARACTER_DECKS[name]()
    if isinstance(deck.model, SphereModel):
        factors = [("SO", deck.matrices)]
    else:
        factors = [(deck.model.spec.family, deck.matrices[:, s]) for s in (0, 1)]
    want = sum(np.mean(_adjoint_character(f, g)) for f, g in factors)
    assert abs(want - round(want)) <= 1e-9
    assert verify_instance(deck).centralizer_dim == round(want)


def test_sphere_deck_keeps_its_stack_and_checks_every_element():
    deck = sphere_deck(lens_group(7, (1, 2)))
    assert deck.matrices.shape == (7, 4, 4)
    assert all(np.array_equal(a, b) for a, b in zip(deck.matrices, deck.elements))
    mats = lens_group(7, (1, 2))
    mats[3] = mats[3] * (1 + 1e-6)
    with pytest.raises(ModelMismatch):
        sphere_deck(mats)
