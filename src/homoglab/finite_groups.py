"""Finite subgroups of the unit quaternions.

Lists the cyclic, binary dihedral and binary polyhedral groups from their
classical closed forms, classifies a finite unit-quaternion group by Klein's
list, and checks the constraints a group must satisfy to act freely with
constant displacement on a round sphere (every abelian subgroup cyclic, at
most one involution and it is central, odd Sylow subgroups cyclic).

Klein's list: a finite subgroup of the unit quaternions S^3 is cyclic, binary
dihedral, or binary tetrahedral, octahedral or icosahedral.  Its order n and
its largest element order M decide which: M = n is cyclic n, M = n/2 is
binary dihedral n/4, and otherwise n is 24, 48 or 120.

All element coordinates are closed forms in cosines and sines of rational
multiples of pi, sqrt(2) and the golden ratio, evaluated in double precision.
Orders and classification are then exact because they are computed on an
integer multiplication table, read off the closure certificate's walk: its
products with a few generators are matched to elements at ``_tol.CLOSURE``.

A group is held as coordinates only: a (k, 4) array of quaternions, or a
(k, n, n) stack of matrices.  ``check_table_work`` is the one bound on how
large a Cayley table may get; it is checked before a named group is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _tol
from ._linalg import _readonly
from .errors import InvalidParameter, InvariantViolated, NonUnitInput, NotClosed

# product entries (k^2 m) a Cayley table of k matrices of m entries may score:
# k <= 1024 for 4 x 4 matrices, whose table then takes 8 MB and well under a second
_TABLE_WORK = 1 << 24
_GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class GroupType:
    """Classification tag for a finite unit-quaternion group."""

    kind: str
    param: int | None = None

    CYCLIC = "cyclic"
    BINARY_DIHEDRAL = "binary_dihedral"
    BINARY_TETRAHEDRAL = "binary_tetrahedral"
    BINARY_OCTAHEDRAL = "binary_octahedral"
    BINARY_ICOSAHEDRAL = "binary_icosahedral"

    @classmethod
    def cyclic(cls, n: int) -> "GroupType":
        return cls(cls.CYCLIC, n)

    @classmethod
    def binary_dihedral(cls, m: int) -> "GroupType":
        return cls(cls.BINARY_DIHEDRAL, m)

    @classmethod
    def binary_tetrahedral(cls) -> "GroupType":
        return cls(cls.BINARY_TETRAHEDRAL)

    @classmethod
    def binary_octahedral(cls) -> "GroupType":
        return cls(cls.BINARY_OCTAHEDRAL)

    @classmethod
    def binary_icosahedral(cls) -> "GroupType":
        return cls(cls.BINARY_ICOSAHEDRAL)

    def expected_order(self) -> int | None:
        if self.kind == self.CYCLIC:
            return self.param
        if self.kind == self.BINARY_DIHEDRAL:
            return 4 * self.param
        return {
            self.BINARY_TETRAHEDRAL: 24,
            self.BINARY_OCTAHEDRAL: 48,
            self.BINARY_ICOSAHEDRAL: 120,
        }.get(self.kind)


def _circle_powers(angle: float, count: int) -> np.ndarray:
    """Rows cos(k angle) + sin(k angle) i, k = 0, ..., count - 1."""
    t = angle * np.arange(count)
    return np.stack([np.cos(t), np.sin(t), 0.0 * t, 0.0 * t], axis=1)


def generate_closure(tag: GroupType) -> np.ndarray:
    """The elements of the group named by ``tag``, identity first, as the
    rows (w, x, y, z) of a (k, 4) array, from the classical closed forms of
    the finite subgroups of the unit quaternions:

    * cyclic n: the powers a^k of a = e^{2 pi i/n}, k = 0, ..., n - 1;
    * binary dihedral m: the a^k, then the a^k j, for a = e^{i pi/m},
      k = 0, ..., 2m - 1;
    * binary tetrahedral: the 24 Hurwitz units, +-1, +-i, +-j, +-k and
      (+-1 +-i +-j +-k)/2;
    * binary octahedral: those 24 and the 24 of the form (+-e_a +-e_b)/sqrt(2);
    * binary icosahedral: those 24 and the 96 even permutations of
      (0, +-1, +-1/phi, +-phi)/2, phi the golden ratio.
    """
    kind, n = tag.kind, tag.param
    if kind == GroupType.CYCLIC:
        if n is None or n < 1:
            raise InvalidParameter("cyclic groups need n >= 1")
        return _circle_powers(2.0 * math.pi / n, n)
    if kind == GroupType.BINARY_DIHEDRAL:
        if n is None or n < 2:
            raise InvalidParameter("binary dihedral groups need m >= 2")
        powers = _circle_powers(math.pi / n, 2 * n)
        # a^k j = cos(k pi/m) j + sin(k pi/m) k
        return np.concatenate([powers, powers[:, [2, 3, 0, 1]]])
    if kind in (GroupType.BINARY_TETRAHEDRAL, GroupType.BINARY_OCTAHEDRAL,
                GroupType.BINARY_ICOSAHEDRAL):
        signs = np.array(list(itertools.product((1.0, -1.0), repeat=4)))
        parts = [np.eye(4), -np.eye(4), 0.5 * signs]
        if kind == GroupType.BINARY_OCTAHEDRAL:
            e = np.eye(4) / math.sqrt(2.0)
            parts += [sa * e[a] + sb * e[b] for a, b in itertools.combinations(range(4), 2)
                      for sa, sb in itertools.product((1.0, -1.0), repeat=2)]
        elif kind == GroupType.BINARY_ICOSAHEDRAL:
            perms = np.array(list(itertools.permutations(range(4))))
            # the even permutations: their permutation matrices have determinant +1
            even = perms[np.linalg.det(np.eye(4)[perms]) > 0]
            # the sign rows with a leading +1 leave the 0 entry unsigned
            values = signs[:8] * np.array([0.0, 1.0, 1.0 / _GOLDEN, _GOLDEN]) / 2.0
            parts.append(values[:, even].reshape(-1, 4))
        return np.vstack(parts)
    raise InvalidParameter(f"no constructor for tag {tag!r}")


class FiniteQuaternionGroup:
    """A finite group of unit quaternions, the rows (w, x, y, z) of the (k, 4)
    array ``elements``, with its exact multiplication table."""

    def __init__(self, elements):
        self.elements = np.asarray(elements, dtype=float).reshape(-1, 4)
        self._table: np.ndarray | None = None
        self._orders: np.ndarray | None = None
        to_one = np.max(np.abs(self.elements - (1.0, 0.0, 0.0, 0.0)), axis=1)
        self.identity_index = int(np.argmin(to_one))
        if not to_one[self.identity_index] <= _tol.CLOSURE:  # NaN rows fail too
            raise NotClosed("element list does not contain the identity")

    @property
    def order(self) -> int:
        return len(self.elements)

    def left_translation_matrices(self) -> np.ndarray:
        """(order, 4, 4) stack of the matrices of x -> q x, in element order."""
        return left_translation_matrix(self.elements)

    def multiplication_table(self) -> np.ndarray:
        """table[i, j] = index of elements[i] * elements[j]; exact integers.

        q -> L(q) is a homomorphism whose entries are +-q's coordinates, so
        the Cayley table of the left-translation matrices is this table, and
        their max-abs entry distance is that of the quaternions.
        """
        if self._table is None:
            self._table = cayley_table(self.left_translation_matrices())
        return self._table

    def element_orders(self) -> np.ndarray:
        """Order of every element, computed once from the cached table."""
        if self._orders is None:
            self._orders = element_orders(self.multiplication_table(), self.identity_index)
        return self._orders


# ---------------------------------------------------------------------------
# exact computations on multiplication tables


@lru_cache(maxsize=None)
def _key_direction(size: int) -> np.ndarray:
    """A fixed unit vector of the given length in a generic direction, so
    that distinct elements of a group get distinct keys."""
    r = np.random.default_rng(0x5EED).standard_normal(size)
    return _readonly(r / np.linalg.norm(r))


def _keys(x: np.ndarray) -> np.ndarray:
    """Projection of each row of x (real, or complex as real pairs) onto
    ``_key_direction``."""
    if np.iscomplexobj(x):
        x = x.view(x.real.dtype)
    return x @ _key_direction(x.shape[-1])


def _separated(flat: np.ndarray, keys: np.ndarray, order: np.ndarray) -> bool:
    """True when the rows of flat lie pairwise more than 2 sqrt(m)
    ``_tol.CLOSURE`` apart in Frobenius norm, m = flat.shape[1].  Only rows
    whose keys lie within that distance (plus the keys' rounding) of each
    other are compared, walking the sorted keys ``order``."""
    reach = 2.0 * math.sqrt(flat.shape[1]) * _tol.CLOSURE
    # a key is a dot product of n real terms with a unit vector, off by at
    # most n eps |row| <= n eps sqrt(n) max|entry|, so two rows within reach
    # have keys within key_reach
    x = flat.view(flat.real.dtype) if np.iscomplexobj(flat) else flat
    n = x.shape[1]
    key_reach = reach + 2 * n * math.sqrt(n) * np.finfo(float).eps * np.max(np.abs(x))
    ranked = keys[order]
    for d in range(1, len(keys)):
        close = np.nonzero(ranked[d:] - ranked[:-d] <= key_reach)[0]
        if not close.size:
            return True
        gaps = np.linalg.norm(flat[order[close]] - flat[order[close + d]], axis=1)
        if not np.all(gaps > reach):
            return False
    return True


def check_table_work(name: str, order: int, entries: int) -> None:
    """Refuse (InvalidParameter) a list of ``order`` matrices of ``entries``
    entries each when its Cayley table would score more than ``_TABLE_WORK``
    product entries (order^2 products of ``entries`` entries).  Callers check
    before they build the list."""
    work = order * order * entries
    if work > _TABLE_WORK:
        raise InvalidParameter(
            f"{name}: a Cayley table of {order} matrices of {entries} entries scores "
            f"{work} product entries, more than {_TABLE_WORK}"
        )


def _element_list(mats):
    """The first steps of the closure certificate's walk (``_walk``): the
    list as a contiguous (k, n, n) array, its (k, m) rows and the rank order
    of their keys.  A list past ``check_table_work`` is refused, and so is one
    whose elements do not lie pairwise more than 2 sqrt(m) ``_tol.CLOSURE``
    apart in Frobenius norm: it repeats an element (NotClosed)."""
    arr = np.ascontiguousarray(mats)
    if not np.iscomplexobj(arr):
        arr = arr.astype(float, copy=False)
    k = arr.shape[0]
    flat = arr.reshape(k, -1)
    check_table_work("matrix list", k, flat.shape[1])
    keys = _keys(flat)
    order = np.argsort(keys)
    if not _separated(flat, keys, order):
        raise NotClosed("element list repeats an element: two lie within 2 sqrt(m) CLOSURE")
    return arr, flat, order


def _pair(prods: np.ndarray, flat: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Index of the element paired with each of a (k, m) column of products:
    in a closed list the column permutes the elements, so it is paired with
    them by rank along the key direction, and every pair is confirmed by its
    max-abs entry distance, within ``_tol.CLOSURE``; otherwise NotClosed with
    the largest distance.  Overwrites ``prods``."""
    pair = np.empty(len(prods), dtype=np.intp)
    pair[_keys(prods).argsort()] = order
    prods -= flat.take(pair, axis=0)
    dist = np.abs(prods) if np.iscomplexobj(prods) else np.abs(prods, out=prods)
    stray = dist.max()
    if not stray <= _tol.CLOSURE:  # NaN entries fail too
        raise NotClosed(f"products stray {stray:.2e} from the element set")
    return pair


def _walk(mats):
    """The walk of ``closure_certificate``: the generators s, their confirmed
    columns (perm[x] the index of x s), the elements in the order reached,
    the identity first, and the parent p of each after it (it is p s)."""
    arr, flat, order = _element_list(mats)
    k, n = arr.shape[:2]
    to_one = np.abs(flat - np.eye(n).ravel()).max(axis=1)
    e = int(to_one.argmin())
    if not to_one[e] <= _tol.CLOSURE:  # NaN rows fail too
        raise NotClosed(f"products stray {to_one[e]:.2e} from the element set: "
                        "the identity is not listed")
    rows = arr.reshape(k * n, n)
    # the walk runs on plain lists: a numpy call per step would cost more
    # than the step on the small decks that are most of the work
    found, seen, parents = [e], [False] * k, []
    seen[e] = True
    gens, perms, s, i = [], [], 0, 0
    while len(found) < k:
        while seen[s]:
            s += 1
        gens.append(s)
        perms.append(_pair((rows @ arr[s]).reshape(k, -1), flat, order).tolist())
        seen[s] = True
        found.append(s)
        parents.append(e)
        # s <S> is all of <S>, so the walk goes on from s; the elements
        # found before it need not take the new generator
        while i < len(found):
            x = found[i]
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    found.append(y)
                    parents.append(x)
            i += 1
    return gens, perms, found, parents


def cayley_table(mats) -> np.ndarray:
    """table[i, j] = index of mats[i] @ mats[j] in ``mats``, for real or
    complex square matrices of m entries each, read off the walk of
    ``closure_certificate``, which must accept the list (else NotClosed).

    Column e of the identity is 0, ..., k - 1, and y reached as p s has the
    column x y = (x p) s, column p permuted by the confirmed column of s: past
    the at most log2 k GEMM columns, the table takes only integer gathers.
    Every entry is exact as a group table once the certificate holds, but only
    the products with a generator are confirmed within ``_tol.CLOSURE`` each:
    x y, for y at depth l of the walk, lies within 2 l sqrt(m)
    ``_tol.CLOSURE`` of entry [x, y] in Frobenius norm, as proved there.
    """
    _, perms, found, parents = _walk(mats)
    k, perms = len(found), np.array(perms, dtype=np.int64).reshape(-1, len(found))
    depth = [0] * k
    for y, p in zip(found[1:], parents):
        depth[y] = depth[p] + 1
    # steps by depth in the walk's tree: parents come first, one gather a depth
    by = np.argsort([depth[y] for y in found[1:]], kind="stable")
    ys, ps = np.array(found[1:], dtype=np.int64)[by], np.array(parents, dtype=np.int64)[by]
    # the generator of each step: distinct generators take p to distinct elements
    gs = np.nonzero(perms[:, ps].T == ys[:, None])[1][:, None]
    ends = np.cumsum(np.bincount(depth)[1:]).tolist()
    table = np.empty((k, k), dtype=np.int64)  # row y holds column y
    table[found[0]] = np.arange(k)
    for start, end in zip([0] + ends, ends):
        table[ys[start:end]] = perms[gs[start:end], table[ps[start:end]]]
    return table.T


def closure_certificate(mats) -> list[int]:
    """Certify that a list of real or complex square matrices of m entries
    each is a group, from the products with a few generators instead of the
    whole Cayley table; returns the generators' indices S, or raises
    NotClosed.  The list must first pass the checks of ``_element_list``, as
    for ``cayley_table``: a table within ``check_table_work``, and no
    repeated element.

    The identity, the empty product, comes first: the element nearest I must
    lie within ``_tol.CLOSURE`` of it in max-abs, or the list strays from the
    group by that distance.  The generators are chosen greedily: each is the
    first element, in list order, that the walk has not reached.  For a
    generator s the column x s, over every element x, is one GEMM of the
    stacked rows of the list against s, paired with the elements and
    confirmed by ``_pair`` (key rank, then max-abs), so each column is a
    permutation of the list.  The walk follows the columns breadth-first from
    the identity, each new generator joining it at its own element, and the
    list is accepted once every element is reached.  It is then the group
    generated by S: every element is a word in S, and right multiplication
    by each generator permutes the list.  Each new generator lies outside
    the subgroup reached so far and at least doubles it, so |S| <= log2 k,
    and the certificate forms k |S| products, not k^2.

    Product bound.  Only the products x s with a generator s are confirmed.
    Take y at depth l of the walk's tree, y_0 = e, y_j paired with
    y_{j-1} s_j and y = y_l, and follow the same word from any x: x_0 = x,
    x_j paired with x_{j-1} s_j.  Then x y lies within 2 l sqrt(m) CLOSURE of
    x_l in Frobenius norm.  Each confirmed pair lies within CLOSURE in
    max-abs, so within sqrt(m) CLOSURE in Frobenius norm, and right
    multiplication by a unitary factor keeps the Frobenius norm, so the
    per-step errors add up in

        x s_1 ... s_l - x_l = sum_j (x_{j-1} s_j - x_j) s_{j+1} ... s_l,

    of norm at most l sqrt(m) CLOSURE.  From x = e, y_1 is s_1 itself: e s_1
    lies within sqrt(m) CLOSURE of s_1 and of its paired element, and
    separation leaves only s_1 that close.  So s_1 ... s_l lies within
    (l - 1) sqrt(m) CLOSURE of y, and x y = x (y - s_1 ... s_l) +
    x s_1 ... s_l lies within (2 l - 1) sqrt(m) CLOSURE of x_l.  Factors that
    are unitary only within delta scale the bound by at most (1 + delta)^l.
    """
    return _walk(mats)[0]


def table_inverses(table: np.ndarray, identity: int) -> np.ndarray:
    inv = np.full(len(table), -1, dtype=np.int64)
    rows, cols = np.nonzero(table == identity)
    inv[rows] = cols
    if np.any(inv < 0):
        raise NotClosed("table has an element without inverse")
    return inv

def table_identity(table: np.ndarray) -> int:
    idx = np.arange(table.shape[0])
    for e in idx.tolist():
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise NotClosed("table has no identity element")


def element_orders(table: np.ndarray, identity: int) -> np.ndarray:
    """Order of every element, stepping all powers p_i = i^k at once."""
    n = table.shape[0]
    idx = np.arange(n)
    orders = np.zeros(n, dtype=np.int64)
    power = idx.copy()
    pending = power != identity
    orders[~pending] = 1
    k = 1
    while pending.any():
        k += 1
        if k > n:
            raise NotClosed("order computation did not terminate")
        power = table[power, idx]
        hit = pending & (power == identity)
        orders[hit] = k
        pending &= ~hit
    return orders


def subgroup_closure(table: np.ndarray, gen_idx, identity: int) -> list[int]:
    """Sorted indices of the subgroup generated by ``gen_idx``: the set of
    the identity and the generators, multiplied by itself until it stops
    growing (it holds the identity, so it lies in its square).  After t rounds
    it holds every word of length up to 2^t in the generators; in a finite
    group these words make up the subgroup (an inverse is a positive power)."""
    sub = np.unique(np.append(np.asarray(list(gen_idx), dtype=np.int64), identity))
    while True:
        grown = np.zeros(table.shape[0], dtype=bool)
        grown[table[np.ix_(sub, sub)]] = True
        if np.count_nonzero(grown) == sub.size:
            return sub.tolist()
        sub = np.nonzero(grown)[0]


def derived_subgroup(table: np.ndarray, identity: int) -> list[int]:
    """The subgroup generated by all commutators [a, b] = a b (b a)^-1."""
    inv = table_inverses(table, identity)
    comms = np.zeros(table.shape[0], dtype=bool)
    comms[table[table, inv[table.T]]] = True
    return subgroup_closure(table, np.nonzero(comms)[0], identity)


# ---------------------------------------------------------------------------
# named constructors


def named_binary_group(tag: GroupType) -> FiniteQuaternionGroup:
    """The group named by ``tag``, its elements listed by ``generate_closure``."""
    return FiniteQuaternionGroup(generate_closure(tag))


# ---------------------------------------------------------------------------
# classification


_POLYHEDRAL_ORDERS = {
    24: GroupType.binary_tetrahedral(),
    48: GroupType.binary_octahedral(),
    120: GroupType.binary_icosahedral(),
}


def classify(group: FiniteQuaternionGroup) -> GroupType:
    """Classify a finite unit-quaternion group by Klein's list.

    A finite subgroup of S^3 is cyclic, binary dihedral or binary polyhedral,
    so its order n and its largest element order M decide its type: M = n is
    cyclic n, M = n/2 is binary dihedral n/4, and otherwise n is 24, 48 or
    120, the binary tetrahedral, octahedral or icosahedral group.  Any other
    n raises InvariantViolated.  The list holds only inside S^3, so a raw
    integer table is refused (InvalidParameter): Z_3 x Q_8 has n = 24 and
    M = 12 but is not binary dihedral.
    """
    if not isinstance(group, FiniteQuaternionGroup):
        raise InvalidParameter("classify needs a FiniteQuaternionGroup, not a raw table")
    n = group.order
    top = int(np.max(group.element_orders()))
    if top == n:
        return GroupType.cyclic(n)
    if 2 * top == n and n % 4 == 0:
        return GroupType.binary_dihedral(n // 4)
    if n not in _POLYHEDRAL_ORDERS:
        raise InvariantViolated(
            f"a unit-quaternion group of order {n} with largest element order {top} "
            "is not on Klein's list"
        )
    return _POLYHEDRAL_ORDERS[n]


# ---------------------------------------------------------------------------
# space-form constraints


@dataclass(frozen=True)
class SpaceFormConstraintReport:
    abelian_subgroups_cyclic: bool
    involution_count: int
    involution_central: bool
    odd_sylow_cyclic: bool

    @property
    def unique_central_involution(self) -> bool:
        return self.involution_count <= 1 and self.involution_central


def _as_table(group) -> tuple[np.ndarray, int, np.ndarray]:
    """The multiplication table, identity index and element orders of a
    FiniteQuaternionGroup (its cached ones) or of a raw table.  A raw table
    must be square and of integers (else InvalidParameter), have an identity
    and be a Latin square, each row and column a permutation of range(n)
    (else NotClosed).  Associativity is not checked (n^3 products)."""
    if isinstance(group, FiniteQuaternionGroup):
        return group.multiplication_table(), group.identity_index, group.element_orders()
    table = np.asarray(group)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise InvalidParameter("multiplication table must be square")
    if not np.issubdtype(table.dtype, np.integer):
        raise InvalidParameter(f"multiplication table must hold integers, not {table.dtype}")
    table = table.astype(np.int64, copy=False)
    identity = table_identity(table)
    if not all(np.all(np.sort(t, axis=1) == np.arange(len(t))) for t in (table, table.T)):
        raise NotClosed("multiplication table is not a Latin square")
    return table, identity, element_orders(table, identity)


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _abelian_subgroups_cyclic(table: np.ndarray, orders: np.ndarray) -> bool:
    """Every abelian subgroup of a finite group is cyclic iff the group holds
    no Z_p x Z_p, i.e. iff each element a of a prime order p commutes with
    no element of order p but the p - 1 in <a>: one more, b, would generate
    <a, b> = Z_p x Z_p with a."""
    for p in (int(o) for o in np.unique(orders)):
        elems = np.nonzero(orders == p)[0]
        if _is_prime(p) and elems.size > p - 1:
            sub = table[np.ix_(elems, elems)]
            if np.any(np.count_nonzero(sub == sub.T, axis=1) > p - 1):
                return False
    return True


def check_space_form_constraints(group) -> SpaceFormConstraintReport:
    """Check the structural constraints for a fixed-point-free constant
    displacement action on a round sphere.

    Accepts a FiniteQuaternionGroup or a raw integer multiplication table, so
    abstract groups (e.g. Klein four) can be screened as well; ``_as_table``
    says which raw tables are refused.
    """
    table, _, orders = _as_table(group)
    n = len(orders)
    # A Sylow p-subgroup, of order p^a, is cyclic iff some element has order
    # p^a (it generates a subgroup of that order, a Sylow subgroup, and the
    # Sylow subgroups are conjugate), iff p^a divides the exponent lcm(orders):
    # an element of order p^b m has a power of order p^b.  So the odd Sylow
    # subgroups are cyclic iff the odd part of n divides the exponent.
    odd_part = n // (n & -n)
    invs = np.nonzero(orders == 2)[0]
    central = np.all(table[invs] == table[:, invs].T, axis=1)
    return SpaceFormConstraintReport(
        abelian_subgroups_cyclic=_abelian_subgroups_cyclic(table, orders),
        involution_count=len(invs),
        involution_central=bool(np.all(central)),
        odd_sylow_cyclic=math.lcm(*np.unique(orders).tolist()) % odd_part == 0,
    )


# ---------------------------------------------------------------------------
# order-120 recognition


def is_sl25(group) -> bool:
    """True iff the group is SL(2,5): order 120, perfect, single involution.

    These three invariants characterize SL(2,5) among groups of order 120;
    the test suite cross-validates them against the explicitly built
    multiplication table over the 5-element field.
    """
    table, identity, orders = _as_table(group)
    return (
        table.shape[0] == 120
        and np.count_nonzero(orders == 2) == 1
        and len(derived_subgroup(table, identity)) == 120
    )


# ---------------------------------------------------------------------------
# orthogonal representations


def left_translation_matrix(q) -> np.ndarray:
    """Matrix of x -> q x on R^4 in the basis (1, i, j, k) for a unit
    quaternion q = (w, x, y, z); it lies in SO(4).  A (k, 4) stack of
    quaternions gives the (k, 4, 4) stack of their matrices."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.T
    norms = np.atleast_1d(np.sqrt(w**2 + x**2 + y**2 + z**2))
    bad = np.nonzero(~(np.abs(norms - 1.0) <= _tol.ORTHOGONAL))[0]
    if bad.size:
        raise NonUnitInput(
            f"left translation needs a unit quaternion, norm {norms[bad[0]]:.12f}"
        )
    rows = [w, -x, -y, -z, x, w, -z, y, y, z, w, -x, z, -y, x, w]
    return np.stack(rows, axis=-1).reshape(q.shape[:-1] + (4, 4))
