"""Finite unit-quaternion groups: closure, classification, SL(2,5)."""

import re
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab.cli import group_manifold_deck
from homoglab.compact_lie import CompactGroupSpec, TwoSidedIsometry, haar_orthogonal, haar_unitary
from homoglab.constant_curvature import lens_group
from homoglab.errors import InvalidParameter, InvariantViolated, NonUnitInput, NotClosed
from homoglab import _linalg, _tol, finite_groups, verifier
from homoglab.finite_groups import (
    FiniteQuaternionGroup,
    GroupType,
    cayley_table,
    check_space_form_constraints,
    closure_certificate,
    classify,
    derived_subgroup,
    element_orders,
    generate_closure,
    is_sl25,
    left_translation_matrix,
    named_binary_group,
    subgroup_closure,
    table_identity,
    table_inverses,
)
from oracles import (
    key_paired_table,
    quaternion_product,
    right_translation_matrix,
    special_linear_table,
    su2_matrix,
)

ALL_TAGS = (
    [GroupType.cyclic(n) for n in range(1, 13)]
    + [GroupType.binary_dihedral(m) for m in range(2, 7)]
    + [
        GroupType.binary_tetrahedral(),
        GroupType.binary_octahedral(),
        GroupType.binary_icosahedral(),
    ]
)


ONE, I, J, K = np.eye(4)


def _assert_same_quaternion(p, q, tol=1e-9):
    assert np.max(np.abs(p - q)) <= tol, (p, q)


def test_quaternion_units_multiply_like_ijk():
    mul = quaternion_product
    _assert_same_quaternion(mul(I, J), K)
    _assert_same_quaternion(mul(J, K), I)
    _assert_same_quaternion(mul(K, I), J)
    _assert_same_quaternion(mul(I, I), -ONE)
    _assert_same_quaternion(mul(mul(I, J), K), -ONE)


def test_q8_exact_element_set():
    # binary dihedral with m = 2 is the quaternion group {+-1, +-i, +-j, +-k}
    g = named_binary_group(GroupType.binary_dihedral(2))
    got = sorted(tuple(np.round(q, 9)) for q in g.elements)
    want = sorted(
        tuple(v)
        for v in [
            (1.0, 0.0, 0.0, 0.0),
            (-1.0, 0.0, 0.0, 0.0),
            (0.0, 1.0, 0.0, 0.0),
            (0.0, -1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, -1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
            (0.0, 0.0, 0.0, -1.0),
        ]
    )
    assert got == want


# Klein's list: every named group of order at most 256, and the two of order
# 1024; orders 24, 48 and 120 each hold a cyclic, a binary dihedral and a
# binary polyhedral group, so only the largest element order tells them apart
KLEIN_TAGS = (
    [GroupType.cyclic(n) for n in (*range(1, 257), 1024)]
    + [GroupType.binary_dihedral(m) for m in (*range(2, 65), 256)]
    + [
        GroupType.binary_tetrahedral(),
        GroupType.binary_octahedral(),
        GroupType.binary_icosahedral(),
    ]
)


@pytest.mark.parametrize("tag", KLEIN_TAGS, ids=str)
def test_orders_and_classification_round_trip(tag):
    """Each named group has its order and is classified as itself, and since
    every finite subgroup of S^3 acts freely on S^3 by left translation, it
    passes all three space-form constraints."""
    g = named_binary_group(tag)
    assert g.order == tag.expected_order()
    assert classify(g) == tag
    rep = check_space_form_constraints(g)
    assert rep.abelian_subgroups_cyclic
    assert rep.unique_central_involution
    assert rep.odd_sylow_cyclic


def test_lagrange_divisibility():
    for tag in [GroupType.binary_dihedral(3), GroupType.binary_tetrahedral()]:
        g = named_binary_group(tag)
        table = g.multiplication_table()
        orders = element_orders(table, g.identity_index)
        assert all(g.order % int(o) == 0 for o in orders)


def test_table_inverses_are_two_sided():
    g = named_binary_group(GroupType.binary_octahedral())
    table = g.multiplication_table()
    e = g.identity_index
    inv = table_inverses(table, e)
    n = table.shape[0]
    assert np.all(table[np.arange(n), inv] == e)
    assert np.all(table[inv, np.arange(n)] == e)
    assert table_identity(table) == e


def test_raw_tables_that_are_not_groups_are_refused():
    with pytest.raises(InvalidParameter, match="must be square"):
        check_space_form_constraints(np.zeros((2, 3), dtype=int))
    with pytest.raises(NotClosed, match="no identity"):
        check_space_form_constraints([[1, 0], [0, 0]])
    # 0 is the identity, but no product with 1 gives it
    with pytest.raises(NotClosed, match="without inverse"):
        table_inverses(np.array([[0, 1], [1, 1]]), 0)


def test_klein_four_fails_space_form_constraints():
    # direct-product table of Z/2 x Z/2: abelian but not cyclic
    table = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    rep = check_space_form_constraints(table)
    assert not rep.abelian_subgroups_cyclic


def test_binary_groups_pass_space_form_constraints():
    for tag in [
        GroupType.cyclic(9),
        GroupType.binary_dihedral(3),
        GroupType.binary_icosahedral(),
    ]:
        rep = check_space_form_constraints(named_binary_group(tag))
        assert rep.abelian_subgroups_cyclic, tag
        assert rep.unique_central_involution, tag
        assert rep.odd_sylow_cyclic, tag


def test_sl25_recognition():
    istar = named_binary_group(GroupType.binary_icosahedral())
    assert is_sl25(istar)
    assert not is_sl25(named_binary_group(GroupType.binary_dihedral(30)))
    assert not is_sl25(named_binary_group(GroupType.cyclic(120)))
    assert not is_sl25(named_binary_group(GroupType.binary_octahedral()))


def test_sl25_cross_validation_against_f5_table():
    table = special_linear_table(5)
    assert table.shape == (120, 120)
    assert is_sl25(table)
    # same order spectrum as the icosian group
    istar = named_binary_group(GroupType.binary_icosahedral())
    spec_q = np.bincount(
        element_orders(istar.multiplication_table(), istar.identity_index)
    )
    spec_m = np.bincount(element_orders(table, table_identity(table)))
    assert np.array_equal(spec_q, spec_m)


def test_sl23_is_binary_tetrahedral():
    """Of the groups on Klein's list of order 24, SL(2,3) is not cyclic, has
    no element of order 12 (binary dihedral 6 has one) and has a derived
    subgroup of order 8, as the binary tetrahedral group does."""
    table = special_linear_table(3)
    assert table.shape == (24, 24)
    identity = table_identity(table)
    orders = element_orders(table, identity)
    assert np.max(orders) < 24 and 12 not in orders
    assert len(derived_subgroup(table, identity)) == 8
    tetra = named_binary_group(GroupType.binary_tetrahedral())
    assert len(derived_subgroup(tetra.multiplication_table(), tetra.identity_index)) == 8


def test_classify_refuses_a_raw_table():
    # Klein's list holds inside S^3 only: an abstract table is not classified
    with pytest.raises(InvalidParameter, match="raw table"):
        classify(special_linear_table(3))
    with pytest.raises(InvalidParameter, match="raw table"):
        classify(named_binary_group(GroupType.cyclic(4)).multiplication_table())


def test_classify_refuses_an_order_off_klein_list(monkeypatch):
    # no finite subgroup of S^3 has order 6 and largest element order 3 (that
    # is the symmetric group S_3); fake those orders on the cyclic group of order 6
    group = named_binary_group(GroupType.cyclic(6))
    fake = np.array([1, 3, 3, 2, 2, 2])
    monkeypatch.setattr(finite_groups, "element_orders", lambda table, identity: fake)
    with pytest.raises(InvariantViolated, match="Klein's list"):
        classify(group)


def test_translation_matrices_are_orthogonal_homomorphisms():
    g = named_binary_group(GroupType.binary_dihedral(4))
    for a in g.elements[:6]:
        L = left_translation_matrix(a)
        R = right_translation_matrix(a)
        assert np.allclose(L @ L.T, np.eye(4), atol=1e-12)
        assert np.allclose(R @ R.T, np.eye(4), atol=1e-12)
        for b in g.elements[:6]:
            assert np.allclose(
                left_translation_matrix(quaternion_product(a, b)),
                left_translation_matrix(a) @ left_translation_matrix(b),
                atol=1e-12,
            )
    # left and right translations commute
    a, b = g.elements[1], g.elements[5]
    La, Rb = left_translation_matrix(a), right_translation_matrix(b)
    assert np.allclose(La @ Rb, Rb @ La, atol=1e-12)


def test_left_translation_takes_one_row_or_a_stack():
    g = named_binary_group(GroupType.binary_octahedral())
    stack = left_translation_matrix(g.elements)
    assert stack.shape == (48, 4, 4)
    assert np.array_equal(stack, np.stack([left_translation_matrix(q) for q in g.elements]))
    assert g.identity_index == 0 and np.array_equal(stack[0], np.eye(4))
    with pytest.raises(NonUnitInput, match="norm 1.100000000000"):
        left_translation_matrix(np.concatenate([g.elements, [[1.1, 0.0, 0.0, 0.0]]]))
    with pytest.raises(NotClosed, match="identity"):
        FiniteQuaternionGroup(g.elements[1:2])


def test_su2_embedding_preserves_products():
    g = named_binary_group(GroupType.binary_tetrahedral())
    for a in g.elements[:8]:
        for b in g.elements[:8]:
            assert np.allclose(
                su2_matrix(quaternion_product(a, b)), su2_matrix(a) @ su2_matrix(b), atol=1e-12
            )


def test_transpose_conjugacy_in_su2_embedding():
    """If the transpose of an embedded element is conjugate to it inside the
    group, the transpose is the element itself or its inverse."""
    for tag in [GroupType.binary_dihedral(3), GroupType.binary_tetrahedral()]:
        g = named_binary_group(tag)
        mats = [su2_matrix(q) for q in g.elements]
        for a_idx, A in enumerate(mats):
            At = A.T
            conjugate_in_group = any(
                np.max(np.abs(G @ A @ G.conj().T - At)) < 1e-9 for G in mats
            )
            if conjugate_in_group:
                inv = mats[a_idx].conj().T
                assert (
                    np.max(np.abs(At - A)) < 1e-9 or np.max(np.abs(At - inv)) < 1e-9
                )


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.integers(0, 119), st.integers(0, 119), st.integers(0, 119))
def test_associativity_on_icosians(i, j, k):
    g = named_binary_group(GroupType.binary_icosahedral())
    a, b, c = g.elements[i], g.elements[j], g.elements[k]
    mul = quaternion_product
    _assert_same_quaternion(mul(mul(a, b), c), mul(a, mul(b, c)), tol=1e-12)


# ---------------------------------------------------------------------------
# Cayley tables of matrix groups


def brute_force_table(mats, tol):
    """Reference: each product against every element by max-abs distance."""
    mats = np.asarray(mats)
    k = len(mats)
    table = np.empty((k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            d = np.max(np.abs(mats[i] @ mats[j] - mats), axis=(1, 2))
            assert d.min() <= tol
            table[i, j] = int(np.argmin(d))
    return table


def gemm_table(mats, rows=None):
    """Reference: the nearest-element search cayley_table made before it paired
    products by key rank.  Every product is scored against every element by
    one GEMM per block of left factors, the best score is confirmed by its
    max-abs distance, and the first block that strays raises NotClosed.
    Given ``rows``, only those rows of the table, with those left factors."""
    arr = np.asarray(mats)
    if not np.iscomplexobj(arr):
        arr = arr.astype(float, copy=False)
    k = arr.shape[0]
    left = arr if rows is None else arr[rows]
    flat = arr.reshape(k, -1)
    flat_conj = flat.conj()
    half_sq = 0.5 * np.sum((flat * flat_conj).real, axis=1)
    table = np.empty((len(left), k), dtype=np.int64)
    step = max(1, _linalg._BLOCK // (k * k))
    for i in range(0, len(left), step):
        prods = np.matmul(left[i : i + step, None], arr[None, :]).reshape(-1, flat.shape[1])
        score = (prods @ flat_conj.T).real
        score -= half_sq
        nearest = np.argmax(score, axis=1)
        stray = np.max(np.abs(prods - flat[nearest]))
        if not stray <= 1e-9:
            raise NotClosed(f"products stray {stray:.2e} from the element set")
        table[i : i + step] = nearest.reshape(-1, k)
    return table


def _lens_exponents(k, r):
    units = [q for q in range(1, k) if gcd(q, k) == 1]
    return tuple(units[i % len(units)] for i in range(r))


LENS_CASES = [(k, _lens_exponents(k, r)) for r in (2, 3, 4) for k in range(2, 13)]

NAMED_UP_TO_120 = (
    [GroupType.cyclic(n) for n in range(1, 121)]
    + [GroupType.binary_dihedral(m) for m in range(2, 31)]
    + [
        GroupType.binary_tetrahedral(),
        GroupType.binary_octahedral(),
        GroupType.binary_icosahedral(),
    ]
)


def separated(mats):
    """Whether cayley_table may take its key pairings as nearest elements."""
    flat = np.asarray(mats).reshape(len(mats), -1)
    keys = finite_groups._keys(flat)
    return finite_groups._separated(flat, keys, np.argsort(keys))


def quaternion_matrices(tag):
    return np.stack([left_translation_matrix(q) for q in named_binary_group(tag).elements])


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_cayley_table_of_named_groups_matches_brute_force(tag):
    mats = quaternion_matrices(tag)
    table = cayley_table(mats)
    assert np.array_equal(table, brute_force_table(mats, 1e-9))
    assert np.array_equal(table, named_binary_group(tag).multiplication_table())


@pytest.mark.parametrize("tag", NAMED_UP_TO_120, ids=str)
def test_cayley_table_equals_gemm_search_on_named_groups(tag):
    g = named_binary_group(tag)
    real = g.left_translation_matrices()
    r = haar_orthogonal(4, np.random.default_rng(g.order))
    complex_ = np.stack([su2_matrix(q) for q in g.elements])
    for mats in (real, r @ real @ r.T, complex_):
        assert np.array_equal(cayley_table(mats), gemm_table(mats))


@pytest.mark.parametrize("k,exps", LENS_CASES, ids=str)
def test_cayley_table_of_lens_groups_matches_brute_force(k, exps):
    mats = lens_group(k, exps)
    table = cayley_table(mats)
    assert np.array_equal(table, brute_force_table(mats, 1e-9))
    assert np.array_equal(table, gemm_table(mats))


def test_cayley_table_of_cyclic_1000_is_addition_mod_k():
    # generate_closure lists g^0 .. g^999, so the table is addition mod k; the
    # k^3 GEMM search checks a few rows, at both ends and across the middle
    k = 1000
    mats = named_binary_group(GroupType.cyclic(k)).left_translation_matrices()
    table = cayley_table(mats)
    idx = np.arange(k)
    assert np.array_equal(table, (idx[:, None] + idx[None, :]) % k)
    rows = [0, 1, 2, 499, 500, 501, 997, 998, 999]
    assert np.array_equal(table[rows], gemm_table(mats, rows))


def test_cayley_table_of_large_cyclic_group_in_bounded_memory():
    # lens_group lists gen^0 .. gen^(k-1), so the table is addition mod k;
    # the walk forms one column of k products, and the table holds k^2
    # integers, not k^2 products
    import tracemalloc

    k = 300
    mats = np.stack(lens_group(k, (1, 1)))
    tracemalloc.start()
    try:
        table = cayley_table(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    idx = np.arange(k)
    assert np.array_equal(table, (idx[:, None] + idx[None, :]) % k)
    assert peak < 32 * 2**20


def test_cayley_table_of_antipodal_pair():
    assert np.array_equal(cayley_table([np.eye(4), -np.eye(4)]), [[0, 1], [1, 0]])


def test_cayley_table_of_block_stack_that_repeats_a_map(monkeypatch):
    """(-p, -p) is the same map of SU(2) as (p, p), so the stack of blocks
    diag(z g1, z g2) of a deck holding both lists every block twice, and the
    deck is refused."""
    from homoglab.verifier import group_deck

    stacks = []

    def recording(mats):
        stacks.append(mats)
        return closure_certificate(mats)

    monkeypatch.setattr(verifier, "closure_certificate", recording)
    zeta = np.exp(2j * np.pi * np.arange(12) / 12)
    powers = [np.diag([z, z.conjugate()]) for z in zeta]
    with pytest.raises(NotClosed, match="repeats an element"):
        group_deck(
            CompactGroupSpec("SU", 2),
            [TwoSidedIsometry(s * p, s * p) for s in (1, -1) for p in powers],
        )
    (mats,) = stacks
    assert not separated(mats)


def test_cayley_table_of_elements_closer_than_twice_the_reach():
    """A copy of the identity shifted by 0.3 CLOSURE in each of its 16 entries
    lies 1.2 CLOSURE away in Frobenius norm, under the 8 CLOSURE that makes a
    confirmed pair provably the only match: the list repeats the identity."""
    mats = quaternion_matrices(GroupType.binary_octahedral())
    e = int(np.argmin(np.max(np.abs(mats - np.eye(4)), axis=(1, 2))))
    mats = np.concatenate([mats, mats[e : e + 1] + 0.3e-9])
    assert not separated(mats)
    with pytest.raises(NotClosed, match="repeats an element"):
        cayley_table(mats)


@settings(deadline=None, max_examples=25, derandomize=True)
@given(
    st.sampled_from(
        [GroupType.binary_dihedral(3), GroupType.binary_tetrahedral(), (7, (1, 2, 3))]
    ),
    st.integers(0, 2**32 - 1),
)
def test_cayley_table_is_invariant_under_conjugation(group, seed):
    mats = quaternion_matrices(group) if isinstance(group, GroupType) else np.stack(lens_group(*group))
    r = haar_orthogonal(mats.shape[1], np.random.default_rng(seed))
    conj = r @ mats @ r.T
    assert np.array_equal(cayley_table(conj), cayley_table(mats))


def _broken_lists(tag):
    mats = quaternion_matrices(tag)
    e = int(np.argmin(np.max(np.abs(mats - np.eye(4)), axis=(1, 2))))
    yield np.delete(mats, e, axis=0)
    yield np.delete(mats, (e + 1) % len(mats), axis=0)
    yield np.concatenate([mats, np.full((1, 4, 4), np.nan)])


def _stray(error):
    """The distance d of a refusal "products stray d from the element set",
    which the closure certificate's walk ends with ": the identity is not
    listed" when the element nearest I is that far from it."""
    pattern = r"products stray (\S+) from the element set(: the identity is not listed)?"
    return float(re.fullmatch(pattern, str(error.value))[1])


def test_cayley_table_needs_identity_and_every_product():
    for broken in (
        *_broken_lists(GroupType.binary_tetrahedral()),
        *_broken_lists(GroupType.binary_octahedral()),
        np.stack([np.eye(2), np.full((2, 2), np.nan)]),
    ):
        with pytest.raises(NotClosed) as got:
            cayley_table(broken)
        with pytest.raises(NotClosed) as paired:
            key_paired_table(broken)
        with pytest.raises(NotClosed) as want:
            gemm_table(broken)
        # the table's walk refuses with a distance past CLOSURE (NaN on the
        # NaN list); the k^2 pairing's stray is the distance to a key-paired
        # element, not to the nearest one, so it is at least the search's
        assert not _stray(got) <= _tol.CLOSURE
        assert not _stray(paired) < _stray(want)


# ---------------------------------------------------------------------------
# the closure certificate against the Cayley table of all k^2 products


def _refusal(check, mats):
    """'accepted', or the kind of NotClosed that ``check`` raises."""
    try:
        check(mats)
    except NotClosed as e:
        if "repeats an element" in str(e):
            return "repeats"
        assert str(e).startswith("products stray "), str(e)
        return "stray"
    return "accepted"


def _broken_forms(mats, gens):
    """The list with one element dropped, a non-member appended, a
    non-generator moved by 10 CLOSURE, a near-duplicate at 0.3 CLOSURE
    appended, and the identity dropped (each where the list is long enough
    for the form to leave a non-group)."""
    k, n = mats.shape[:2]
    e = int(np.argmin(np.max(np.abs(mats - np.eye(n)), axis=(1, 2))))
    rng = np.random.default_rng(k)
    outsider = haar_unitary(n, rng) if np.iscomplexobj(mats) else haar_orthogonal(n, rng)
    fixed = [i for i in range(k) if i not in gens]
    moved = mats.copy()
    moved[max(fixed, key=lambda i: (i != e, i))] += 10 * _tol.CLOSURE
    if k >= 3:
        yield "dropped", np.delete(mats, k - 1 if k - 1 != e else k - 2, axis=0)
    yield "non-member", np.concatenate([mats, outsider[None]])
    yield "moved", moved
    yield "near-duplicate", np.concatenate([mats, mats[-1:] + 0.3 * _tol.CLOSURE])
    if k >= 2:
        yield "no identity", np.delete(mats, e, axis=0)


def assert_certificate_agrees_with_table(mats):
    """The certificate accepts the group with at most floor(log2 k)
    generators, which generate it, cayley_table reads the table of all k^2
    products off its walk, and the certificate refuses each broken form with
    the kind of NotClosed that the k^2 pairing raises."""
    mats = np.asarray(mats)
    k, n = mats.shape[:2]
    gens = closure_certificate(mats)
    assert len(gens) <= k.bit_length() - 1
    table = key_paired_table(mats)
    assert np.array_equal(cayley_table(mats), table)
    e = int(np.argmin(np.max(np.abs(mats - np.eye(n)), axis=(1, 2))))
    assert subgroup_closure(table, gens, e) == list(range(k))
    for form, broken in _broken_forms(mats, gens):
        want = _refusal(key_paired_table, broken)
        assert want != "accepted", form
        assert _refusal(closure_certificate, broken) == want, form
        assert _refusal(cayley_table, broken) == want, form


@pytest.mark.parametrize("tag", NAMED_UP_TO_120, ids=str)
def test_certificate_agrees_with_table_on_named_groups(tag):
    assert_certificate_agrees_with_table(quaternion_matrices(tag))


@pytest.mark.parametrize(
    "k,exps", [(k, _lens_exponents(k, r)) for r in (2, 3, 4) for k in range(2, 25)], ids=str
)
def test_certificate_agrees_with_table_on_lens_groups(k, exps):
    assert_certificate_agrees_with_table(np.stack(lens_group(k, exps)))


def _certified_stack(spec, isometries):
    """The block stack diag(z g1, z g2), z central, that a group-manifold
    deck of these isometries hands to closure_certificate."""
    stacks = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verifier, "closure_certificate", stacks.append)
        verifier.group_deck(spec, isometries)
    (mats,) = stacks
    return mats


@pytest.mark.parametrize("deck", ["center"] + [f"cyclic-{n}" for n in range(1, 7)])
@pytest.mark.parametrize("family,n", [("SU", 2), ("SO", 3), ("SO", 4), ("SU", 3), ("Sp", 2)])
def test_certificate_agrees_with_table_on_left_translation_decks(family, n, deck):
    spec = CompactGroupSpec(family, n)
    assert_certificate_agrees_with_table(_certified_stack(spec, group_manifold_deck(spec, deck)))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_certificate_agrees_with_table_on_right_translation_decks(tag):
    isos = [TwoSidedIsometry(np.eye(2, dtype=complex), su2_matrix(q))
            for q in named_binary_group(tag).elements]
    assert_certificate_agrees_with_table(_certified_stack(CompactGroupSpec("SU", 2), isos))


@pytest.mark.parametrize("order", range(1, 13))
def test_certificate_agrees_with_table_on_two_sided_decks(order):
    """x -> c^-k x (h c^jk h^-1) on SU(2), c of the given order; j = 2 for
    even orders, so that no pair is (-1, -1), the identity map again."""
    c = su2_matrix(named_binary_group(GroupType.cyclic(order)).elements[1 % order])
    h = su2_matrix(np.array([1.0, 2.0, 3.0, 4.0]) / np.sqrt(30.0))
    j = 2 if order % 2 == 0 else 1
    powers = [np.linalg.matrix_power(c, i) for i in range(order)]
    isos = [TwoSidedIsometry(p, h @ np.linalg.matrix_power(p, j) @ h.conj().T) for p in powers]
    assert_certificate_agrees_with_table(_certified_stack(CompactGroupSpec("SU", 2), isos))


def test_certificate_of_large_decks_forms_few_columns():
    """cyclic-1000 needs one generator and binary-dihedral-250 two, where the
    table would form 10^6 products."""
    for tag, want in ((GroupType.cyclic(1000), [1]), (GroupType.binary_dihedral(250), [1, 500])):
        assert closure_certificate(quaternion_matrices(tag)) == want


# ---------------------------------------------------------------------------
# oracles: the scalar loops the vectorised kernels replaced


def bfs_closure(generators):
    """Breadth-first closure of unit quaternions one product at a time, each
    looked up by a linear max-abs scan over the elements found so far."""
    gens = list(generators)
    elements = [ONE]

    def find(q):
        d = np.max(np.abs(np.asarray(elements) - q), axis=1)
        idx = int(np.argmin(d))
        return idx if d[idx] <= 1e-9 else -1

    frontier = []
    for g in gens:
        if find(g) < 0:
            elements.append(g)
            frontier.append(g)
    if not frontier:
        frontier = list(elements)
    while frontier:
        new = []
        for q in frontier:
            for g in gens:
                p = quaternion_product(q, g)
                if find(p) < 0:
                    elements.append(p)
                    new.append(p)
        frontier = new
    return elements


_OMEGA = np.full(4, 0.5)


def _circle(angle):
    return np.array([np.cos(angle), np.sin(angle), 0.0, 0.0])


def closure_generators(tag):
    """Classical generators of each named group."""
    if tag.kind == GroupType.CYCLIC:
        return [_circle(2 * np.pi / tag.param)]
    if tag.kind == GroupType.BINARY_DIHEDRAL:
        return [_circle(np.pi / tag.param), J]
    if tag.kind == GroupType.BINARY_TETRAHEDRAL:
        return [_OMEGA, I]
    if tag.kind == GroupType.BINARY_OCTAHEDRAL:
        return [_OMEGA, I, np.array([np.sqrt(0.5), np.sqrt(0.5), 0.0, 0.0])]
    golden = (1 + np.sqrt(5)) / 2
    return [_OMEGA, np.array([golden / 2, 1 / (2 * golden), 0.5, 0.0])]


CLOSURE_TAGS = (
    [GroupType.cyclic(n) for n in range(1, 61)]
    + [GroupType.binary_dihedral(m) for m in range(2, 16)]
    + [
        GroupType.binary_tetrahedral(),
        GroupType.binary_octahedral(),
        GroupType.binary_icosahedral(),
    ]
)


@pytest.mark.parametrize("tag", CLOSURE_TAGS, ids=str)
def test_closed_forms_equal_the_closure_of_generators(tag):
    """Each closed-form list is the breadth-first closure of the group's
    generators as a set, element for element within 1e-14, identity first."""
    got = generate_closure(tag)
    want = np.array(bfs_closure(closure_generators(tag)))
    assert len(got) == len(want) == tag.expected_order()
    assert np.array_equal(got[0], [1.0, 0.0, 0.0, 0.0])
    near = np.max(np.abs(got[:, None] - want[None]), axis=2) <= 1e-14
    assert np.all(near.sum(axis=0) == 1) and np.all(near.sum(axis=1) == 1)


def brute_force_orders(table, identity):
    n = table.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    for i in range(n):
        p, k = i, 1
        while p != identity:
            p = table[p, i]
            k += 1
        orders[i] = k
    return orders


def brute_force_derived(table, identity):
    """Every commutator, then the closure under products one at a time."""
    inv = table_inverses(table, identity)
    n = table.shape[0]
    sub = {int(table[table[a, b], table[inv[a], inv[b]]]) for a in range(n) for b in range(n)}
    while True:
        grown = sub | {int(table[a, b]) for a in sub for b in sub}
        if grown == sub:
            return sorted(sub)
        sub = grown


def cyclic_product_table(*orders):
    """Multiplication table of Z_a x Z_b x ..., elements in mixed-radix order."""
    elems = np.array(list(np.ndindex(*orders)))
    radix = np.cumprod((1,) + orders[::-1][:-1])[::-1]
    sums = (elems[:, None, :] + elems[None, :, :]) % np.array(orders)
    return sums @ radix


def dihedral_table(n):
    """The order-2n symmetries of an n-gon: (r, s) is the map x -> (-1)^s x + r."""
    elems = [(r, s) for s in range(2) for r in range(n)]
    index = {e: i for i, e in enumerate(elems)}
    table = np.empty((2 * n, 2 * n), dtype=np.int64)
    for i, (r1, s1) in enumerate(elems):
        for j, (r2, s2) in enumerate(elems):
            table[i, j] = index[((r1 + (-1) ** s1 * r2) % n, (s1 + s2) % 2)]
    return table


RAW_TABLES = {
    "Z2xZ2": cyclic_product_table(2, 2),
    "Z2xZ4": cyclic_product_table(2, 4),
    "Z3xZ3": cyclic_product_table(3, 3),
    "Z4xZ4": cyclic_product_table(4, 4),
    "Z3xZ5": cyclic_product_table(3, 5),
    "Z2xZ2xZ2": cyclic_product_table(2, 2, 2),
    "D4": dihedral_table(4),
    "D5": dihedral_table(5),
    "SL(2,3)": special_linear_table(3),
}


def _tables():
    for tag in ALL_TAGS + [GroupType.binary_dihedral(15), GroupType.cyclic(60)]:
        g = named_binary_group(tag)
        yield pytest.param(g.multiplication_table(), g.identity_index, id=str(tag))
    for name, table in RAW_TABLES.items():
        yield pytest.param(table, table_identity(table), id=name)


@pytest.mark.parametrize("table,identity", list(_tables()))
def test_orders_and_derived_subgroup_match_brute_force(table, identity):
    assert np.array_equal(element_orders(table, identity), brute_force_orders(table, identity))
    assert derived_subgroup(table, identity) == brute_force_derived(table, identity)


def two_generated_abelian_cyclic(table, identity):
    """The enumerator the exact Z_p x Z_p criterion replaced: every abelian
    subgroup <a, b> listed element by element and checked for cyclicity."""
    n = table.shape[0]
    orders = brute_force_orders(table, identity)
    for a in range(n):
        pow_a = subgroup_closure(table, [a], identity)
        for b in range(a + 1, n):
            if table[a, b] != table[b, a]:
                continue
            elems = set()
            for p in pow_a:
                q = p
                elems.add(q)
                for _ in range(orders[b] - 1):
                    q = int(table[q, b])
                    elems.add(q)
            if max(int(orders[e]) for e in elems) != len(elems):
                return False
    return True


# the enumerator is O(n^4) on abelian groups: cyclic-120 takes it minutes
ORACLE_TAGS = (
    [GroupType.cyclic(n) for n in range(1, 31)]
    + [GroupType.binary_dihedral(m) for m in list(range(2, 19)) + [30]]
    + [
        GroupType.binary_tetrahedral(),
        GroupType.binary_octahedral(),
        GroupType.binary_icosahedral(),
    ]
)


def _oracle_cases():
    for tag in ORACLE_TAGS:
        yield pytest.param(named_binary_group(tag), id=str(tag))
    for name, table in RAW_TABLES.items():
        yield pytest.param(table, id=name)
    yield pytest.param(special_linear_table(5), id="SL(2,5)")


@pytest.mark.parametrize("group", list(_oracle_cases()))
def test_space_form_report_matches_the_enumerator(group):
    table = group.multiplication_table() if isinstance(group, FiniteQuaternionGroup) else group
    identity = table_identity(table)
    orders = brute_force_orders(table, identity)
    report = check_space_form_constraints(group)
    assert report.abelian_subgroups_cyclic == two_generated_abelian_cyclic(table, identity)
    assert report.involution_count == int(np.sum(orders == 2))
    assert report.involution_central == all(
        np.array_equal(table[i], table[:, i]) for i in np.nonzero(orders == 2)[0]
    )


def test_abelian_screen_on_direct_products():
    expected = {"Z2xZ2": False, "Z2xZ4": False, "Z3xZ3": False, "Z4xZ4": False,
                "Z3xZ5": True, "Z2xZ2xZ2": False, "D4": False, "D5": True, "SL(2,3)": True}
    for name, table in RAW_TABLES.items():
        assert check_space_form_constraints(table).abelian_subgroups_cyclic == expected[name], name
    # abelian of order 1000: one subgroup of each prime order, so it passes quickly
    assert check_space_form_constraints(cyclic_product_table(8, 125)).abelian_subgroups_cyclic
    assert not check_space_form_constraints(cyclic_product_table(10, 100)).abelian_subgroups_cyclic
