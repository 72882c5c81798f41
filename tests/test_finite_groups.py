"""Finite unit-quaternion groups: closure, classification, SL(2,5)."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homoglab.compact_lie import haar_orthogonal
from homoglab.constant_curvature import lens_group
from homoglab.errors import ClosureExceedsLimit, NonUnitGenerator, NotClosed
from homoglab.finite_groups import (
    FiniteQuaternionGroup,
    GroupType,
    Quaternion,
    cayley_table,
    check_space_form_constraints,
    classify,
    element_orders,
    is_sl25,
    left_translation_matrix,
    named_binary_group,
    right_translation_matrix,
    special_linear_table,
    su2_matrix,
    table_identity,
    table_inverses,
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


def test_quaternion_units_multiply_like_ijk():
    i, j, k = Quaternion.i(), Quaternion.j(), Quaternion.k()
    assert (i * j).isclose(k)
    assert (j * k).isclose(i)
    assert (k * i).isclose(j)
    assert (i * i).isclose(-Quaternion.one())
    assert (i * j * k).isclose(-Quaternion.one())


def test_q8_exact_element_set():
    # binary dihedral with m = 2 is the quaternion group {+-1, +-i, +-j, +-k}
    g = named_binary_group(GroupType.binary_dihedral(2))
    got = sorted(tuple(np.round(q.to_array(), 9)) for q in g.elements)
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


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_orders_and_classification_round_trip(tag):
    g = named_binary_group(tag)
    assert g.order == tag.expected_order()
    assert classify(g) == tag


def test_generator_must_be_unit():
    with pytest.raises(NonUnitGenerator):
        FiniteQuaternionGroup.from_generators([Quaternion(0.5, 0.5)])


def test_closure_limit():
    # an irrational rotation never closes up
    a = Quaternion(np.cos(1.0), np.sin(1.0))
    with pytest.raises(ClosureExceedsLimit):
        FiniteQuaternionGroup.from_generators([a], limit=500)


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


def test_klein_four_fails_space_form_constraints():
    # direct-product table of Z/2 x Z/2: abelian but not cyclic
    table = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    rep = check_space_form_constraints(table)
    assert not rep.abelian_subgroups_cyclic
    assert not rep.all_pass


def test_binary_groups_pass_space_form_constraints():
    for tag in [
        GroupType.cyclic(9),
        GroupType.binary_dihedral(3),
        GroupType.binary_icosahedral(),
    ]:
        rep = check_space_form_constraints(named_binary_group(tag))
        assert rep.all_pass, tag


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
    table = special_linear_table(3)
    assert table.shape == (24, 24)
    assert classify(table) == GroupType.binary_tetrahedral()


def test_translation_matrices_are_orthogonal_homomorphisms():
    g = named_binary_group(GroupType.binary_dihedral(4))
    for a in g.elements[:6]:
        L = left_translation_matrix(a)
        R = right_translation_matrix(a)
        assert np.allclose(L @ L.T, np.eye(4), atol=1e-12)
        assert np.allclose(R @ R.T, np.eye(4), atol=1e-12)
        for b in g.elements[:6]:
            assert np.allclose(
                left_translation_matrix(a * b),
                left_translation_matrix(a) @ left_translation_matrix(b),
                atol=1e-12,
            )
    # left and right translations commute
    a, b = g.elements[1], g.elements[5]
    La, Rb = left_translation_matrix(a), right_translation_matrix(b)
    assert np.allclose(La @ Rb, Rb @ La, atol=1e-12)


def test_su2_embedding_preserves_products():
    g = named_binary_group(GroupType.binary_tetrahedral())
    for a in g.elements[:8]:
        for b in g.elements[:8]:
            assert np.allclose(
                su2_matrix(a * b), su2_matrix(a) @ su2_matrix(b), atol=1e-12
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
    assert ((a * b) * c).isclose(a * (b * c), tol=1e-12)


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


def _lens_exponents(k, r):
    units = [q for q in range(1, k) if gcd(q, k) == 1]
    return tuple(units[i % len(units)] for i in range(r))


LENS_CASES = [(k, _lens_exponents(k, r)) for r in (2, 3, 4) for k in range(2, 13)]


def quaternion_matrices(tag):
    return np.stack([left_translation_matrix(q) for q in named_binary_group(tag).elements])


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_cayley_table_of_named_groups_matches_brute_force(tag):
    mats = quaternion_matrices(tag)
    table = cayley_table(mats, 1e-9)
    assert np.array_equal(table, brute_force_table(mats, 1e-9))
    assert np.array_equal(table, named_binary_group(tag).multiplication_table())


@pytest.mark.parametrize("k,exps", LENS_CASES, ids=str)
def test_cayley_table_of_lens_groups_matches_brute_force(k, exps):
    mats = lens_group(k, exps)
    assert np.array_equal(cayley_table(mats, 1e-9), brute_force_table(mats, 1e-9))


def test_cayley_table_of_large_cyclic_group_in_bounded_memory():
    # lens_group lists gen^0 .. gen^(k-1), so the table is addition mod k;
    # the k^3 score matrix of one unblocked GEMM would take 216 MB here
    import tracemalloc

    k = 300
    mats = np.stack(lens_group(k, (1, 1)))
    tracemalloc.start()
    try:
        table = cayley_table(mats, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    idx = np.arange(k)
    assert np.array_equal(table, (idx[:, None] + idx[None, :]) % k)
    assert peak < 32 * 2**20


def test_cayley_table_of_antipodal_pair():
    assert np.array_equal(cayley_table([np.eye(4), -np.eye(4)], 1e-9), [[0, 1], [1, 0]])


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
    assert np.array_equal(cayley_table(conj, 1e-9), cayley_table(mats, 1e-9))


def test_cayley_table_needs_identity_and_every_product():
    mats = quaternion_matrices(GroupType.binary_tetrahedral())
    e = int(np.argmin(np.max(np.abs(mats - np.eye(4)), axis=(1, 2))))
    with pytest.raises(NotClosed):
        cayley_table(np.delete(mats, e, axis=0), 1e-9)
    with pytest.raises(NotClosed):
        cayley_table(np.delete(mats, (e + 1) % len(mats), axis=0), 1e-9)
