"""Reductive homogeneous spaces G/H: complements, block metrics, Killing-field
length profiles, Weyl-group orders and Euler characteristics, squashed-sphere
isometry algebras, and the bundled catalog of positively curved examples.

Tangent spaces are modelled on an orthogonal complement 𝔪 of the isotropy
algebra 𝔥 inside 𝔤, taken with respect to <X, Y> = -trace(XY).  Invariant
metrics are positive rescalings of that form on blocks of 𝔪.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._linalg import _vec, gram_schmidt, null_space, trace_inner, trace_norm
from .compact_lie import (
    CompactGroupSpec,
    _haar_blocks,
    algebra_basis,
    check_in_algebra,
    check_in_group,
)
from .errors import (
    InvalidCoefficients,
    InvalidParameter,
    InvariantViolated,
    NotASubalgebra,
    NotInGroup,
    ParseError,
    UnsupportedType,
    ZeroField,
    ZeroVector,
)
from .profiles import DisplacementProfile, constant_length_verdict

_BRACKET_TOL = 1e-8
_ORTHO_TOL = 1e-9

NOT_EQUAL_RANK = "NotEqualRank"


def bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _project(X: np.ndarray, basis: Sequence[np.ndarray]) -> np.ndarray:
    out = np.zeros_like(X)
    for b in basis:
        out = out + trace_inner(b, X) * b
    return out


@dataclass(frozen=True, eq=False)
class HomogeneousSpaceSpec:
    """G/H with an orthonormal split 𝔤 = 𝔥 ⊕ 𝔪 and block-scaled metric.

    ``metric_blocks`` partitions the complement basis: each entry is a
    (coefficient, index tuple) pair and the metric on the block is the
    coefficient times -trace(XY).
    """

    name: str
    group: CompactGroupSpec
    isotropy_basis: tuple[np.ndarray, ...]
    complement_basis: tuple[np.ndarray, ...]
    metric_blocks: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        for X in self.isotropy_basis + self.complement_basis:
            check_in_algebra(self.group, X)
        both = list(self.isotropy_basis) + list(self.complement_basis)
        gram = np.array([[trace_inner(x, y) for y in both] for x in both])
        if np.max(np.abs(gram - np.eye(len(both)))) > _ORTHO_TOL:
            raise InvalidParameter("bases are not orthonormal / not orthogonal to each other")
        covered = sorted(i for _, idx in self.metric_blocks for i in idx)
        if covered != list(range(len(self.complement_basis))):
            raise InvalidParameter("metric blocks must partition the complement basis")
        if any(c <= 0 for c, _ in self.metric_blocks):
            raise InvalidParameter("metric coefficients must be positive")
        for h in self.isotropy_basis:
            for m in self.complement_basis:
                if trace_norm(_project(bracket(h, m), self.isotropy_basis)) > _BRACKET_TOL:
                    raise InvalidParameter("complement is not isotropy-invariant")

    @property
    def dim(self) -> int:
        return len(self.complement_basis)

    def tangent_length(self, X: np.ndarray):
        """Block-metric length of the 𝔪-component of X: a float for one
        matrix, an array for a stack of matrices."""
        # coordinates -trace(B_k X) against the complement basis B_k
        coords = -np.einsum("kij,...ji->...k", np.stack(self.complement_basis), X).real
        total = sum(
            coeff * np.sum(coords[..., list(idx)] ** 2, axis=-1)
            for coeff, idx in self.metric_blocks
        )
        length = np.sqrt(total)
        return float(length) if length.ndim == 0 else length


def reductive_complement(
    group: CompactGroupSpec, isotropy_basis: Sequence[np.ndarray]
) -> tuple[np.ndarray, ...]:
    """Orthonormal basis of the -trace(XY)-complement of the isotropy algebra.

    The isotropy basis must span a subalgebra; the returned complement
    satisfies [𝔥, 𝔪] ⊆ 𝔪 (automatic for an invariant inner product, and
    re-checked numerically).
    """
    h = [check_in_algebra(group, X) for X in isotropy_basis]
    h_on = gram_schmidt(h, trace_inner)
    if len(h_on) != len(h):
        raise InvalidParameter("isotropy basis is linearly dependent")
    for i, a in enumerate(h_on):
        for b in h_on[i:]:
            r = bracket(a, b)
            if trace_norm(r - _project(r, h_on)) > _BRACKET_TOL:
                raise NotASubalgebra("isotropy basis is not closed under brackets")
    full = algebra_basis(group)
    m = gram_schmidt([X - _project(X, h_on) for X in full], trace_inner)
    if len(m) != len(full) - len(h_on):
        raise InvariantViolated("complement dimension mismatch")
    for a in h_on:
        for x in m:
            if trace_norm(_project(bracket(a, x), h_on)) > _BRACKET_TOL:
                raise InvariantViolated("complement failed the invariance recheck")
    return tuple(m)


# ---------------------------------------------------------------------------
# subalgebra builders and standard spaces


def su_block_subalgebra(n: int, k: int) -> tuple[np.ndarray, ...]:
    """su(k) in the upper-left block of su(n); empty for k <= 1."""
    if not 1 <= k < n:
        raise InvalidParameter("need 1 <= k < n")
    if k == 1:
        return ()
    out = []
    for X in algebra_basis(CompactGroupSpec("SU", k)):
        Y = np.zeros((n, n), dtype=complex)
        Y[:k, :k] = X
        out.append(Y)
    return tuple(out)


def so_block_subalgebra(n: int, k: int, offset: int = 0) -> tuple[np.ndarray, ...]:
    """so(k) acting on coordinates offset..offset+k-1 inside so(n)."""
    if k < 2 or offset < 0 or offset + k > n:
        raise InvalidParameter("block does not fit")
    out = []
    for a in range(k):
        for b in range(a + 1, k):
            E = np.zeros((n, n))
            E[offset + a, offset + b] = 1.0 / np.sqrt(2.0)
            E[offset + b, offset + a] = -1.0 / np.sqrt(2.0)
            out.append(E)
    return tuple(out)


def u1_centralizer_direction(n: int, k: int) -> np.ndarray:
    """Unit generator of the u(1) commuting with the upper-left su(k) block."""
    if not 1 <= k < n:
        raise InvalidParameter("need 1 <= k < n")
    d = np.array([n - k] * k + [-k] * (n - k), dtype=float)
    X = 1j * np.diag(d)
    return X / trace_norm(X)


def principal_so3_in_so5() -> tuple[np.ndarray, ...]:
    """so(3) acting irreducibly on ℝ⁵ = traceless symmetric 3x3 matrices."""
    E = np.eye(3)
    s = 1.0 / np.sqrt(2.0)
    sym_basis = [
        s * np.diag([1.0, -1.0, 0.0]),
        np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0),
        s * (np.outer(E[0], E[1]) + np.outer(E[1], E[0])),
        s * (np.outer(E[0], E[2]) + np.outer(E[2], E[0])),
        s * (np.outer(E[1], E[2]) + np.outer(E[2], E[1])),
    ]
    gens = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        A = np.zeros((3, 3))
        A[a, b], A[b, a] = 1.0, -1.0
        rho = np.array(
            [[np.trace(Sa @ bracket(A, Sb)) for Sb in sym_basis] for Sa in sym_basis]
        )
        gens.append(rho)
    return tuple(gram_schmidt(gens, trace_inner))


def _single_block(dim: int) -> tuple[tuple[float, tuple[int, ...]], ...]:
    return ((1.0, tuple(range(dim))),)


def group_space(group: CompactGroupSpec, name: str | None = None) -> HomogeneousSpaceSpec:
    """The group itself with its bi-invariant metric (trivial isotropy)."""
    m = algebra_basis(group)
    return HomogeneousSpaceSpec(
        name=name or group.name,
        group=group,
        isotropy_basis=(),
        complement_basis=m,
        metric_blocks=_single_block(len(m)),
    )


def hopf_sphere_space(m: int) -> HomogeneousSpaceSpec:
    """S^{2m+1} as SU(m+1)/SU(m); for m = 1 the isotropy is trivial."""
    if m < 1:
        raise InvalidParameter("need m >= 1")
    group = CompactGroupSpec("SU", m + 1)
    h = su_block_subalgebra(m + 1, m)
    mb = reductive_complement(group, h)
    return HomogeneousSpaceSpec(f"S{2 * m + 1}", group, h, mb, _single_block(len(mb)))


def so5_so3_space() -> HomogeneousSpaceSpec:
    group = CompactGroupSpec("SO", 5)
    h = principal_so3_in_so5()
    m = reductive_complement(group, h)
    return HomogeneousSpaceSpec("SO(5)/SO(3)", group, h, m, _single_block(len(m)))


# ---------------------------------------------------------------------------
# Killing-field length profiles


def killing_length_profile(
    space: HomogeneousSpaceSpec,
    xi: np.ndarray | None,
    samples: int = 200,
    rng: np.random.Generator | None = None,
    *,
    right: np.ndarray | None = None,
    points: Sequence[np.ndarray] | None = None,
) -> DisplacementProfile:
    """Length profile of a Killing field over sampled points of G/H.

    ``xi`` generates the flow by left multiplication; its length at the coset
    of g is the block-metric norm of proj_𝔪(Ad(g⁻¹)ξ).  ``right`` optionally
    adds the flow by right multiplication, defined when the direction
    normalizes the isotropy algebra; its contribution to the frame at g is
    proj_𝔪(right), independent of g.  At least one component must be nonzero.

    The points, Haar samples or the caller's ``points``, are group-checked and
    evaluated as stacks of at most ``compact_lie._SAMPLE_BLOCK``.
    """
    have_left = xi is not None and trace_norm(np.asarray(xi)) > 1e-12
    have_right = right is not None and trace_norm(np.asarray(right)) > 1e-12
    if not have_left and not have_right:
        raise ZeroField("field direction is zero")
    if have_left:
        xi = check_in_algebra(space.group, xi)
    if have_right:
        right = check_in_algebra(space.group, right)
        for h in space.isotropy_basis:
            r = bracket(right, h)
            if trace_norm(r - _project(r, space.isotropy_basis)) > _BRACKET_TOL:
                raise InvalidParameter(
                    "right component must normalize the isotropy algebra"
                )
    if points is None:
        if samples < 1:
            raise InvalidParameter("need at least one sample")
        rng = rng if rng is not None else np.random.default_rng()
        blocks = _haar_blocks(space.group, rng, samples)
    else:
        if len(points) == 0:
            raise InvalidParameter("need at least one sample")
        blocks = [points]
    vals = []
    for g in blocks:
        g = check_in_group(space.group, g)
        if g.ndim != 3:
            raise NotInGroup("points must be a sequence of group elements")
        Y = np.zeros(g.shape, dtype=complex)
        if have_left:
            Y = Y + np.swapaxes(g.conj(), -1, -2) @ xi @ g
        if have_right:
            Y = Y + right
        vals.append(space.tangent_length(Y))
    return DisplacementProfile.from_values(np.concatenate(vals))


# ---------------------------------------------------------------------------
# isotropy splittings and ranks


def maximal_abelian_dimension(
    basis: Sequence[np.ndarray],
    rng: np.random.Generator | None = None,
    retries: int = 4,
) -> int:
    """Dimension of a maximal abelian subalgebra of span(basis) = the rank.

    Greedy: intersect with centralizers of random elements until the subspace
    stabilizes and is abelian.  Random perturbation retries guard against a
    non-generic draw; in a compact algebra every maximal abelian subalgebra is
    a maximal torus, so the maximum over retries is the rank.
    """
    frame = gram_schmidt(list(basis), trace_inner)
    if not frame:
        return 0
    rng = rng if rng is not None else np.random.default_rng(0)
    best = 0
    for _ in range(max(1, retries)):
        S = list(frame)
        for _ in range(50):
            coeff = rng.standard_normal(len(S))
            xi = sum(c * b for c, b in zip(coeff, S))
            M = np.column_stack([_vec(bracket(xi, b)) for b in S])
            if np.max(np.abs(M)) <= 1e-10:  # xi already central: keep S
                new_S = list(S)
            else:
                ns = null_space(M, rel_cutoff=1e-8)
                new_S = gram_schmidt(
                    [sum(c * b for c, b in zip(col, S)) for col in ns.T], trace_inner
                )
            if len(new_S) == len(S):
                pairwise = max(
                    (trace_norm(bracket(a, b)) for a in S for b in S), default=0.0
                )
                if pairwise <= _BRACKET_TOL:
                    break
            S = new_S
        else:
            raise InvariantViolated("abelian reduction failed to stabilize")
        best = max(best, len(S))
    return best


@dataclass(frozen=True)
class IsotropySplitReport:
    commuting: bool
    orthogonal: bool
    nonzero_dimensions: bool
    rank_full: int
    rank_split: int

    @property
    def equal_rank(self) -> bool:
        return self.rank_full == self.rank_split

    @property
    def all_factor_conditions(self) -> bool:
        return self.commuting and self.orthogonal and self.nonzero_dimensions


def check_isotropy_split(
    group: CompactGroupSpec,
    h_basis: Sequence[np.ndarray],
    n_basis: Sequence[np.ndarray],
    rng: np.random.Generator | None = None,
) -> IsotropySplitReport:
    """Conditions for a two-factor isotropy group: the factors commute, are
    orthogonal, and are nonzero; plus an equal-rank flag for 𝔥 ⊕ 𝔫 vs 𝔤."""
    if not h_basis or not n_basis:
        raise InvalidParameter("both factor bases must be nonempty")
    h = [check_in_algebra(group, X) for X in h_basis]
    nn = [check_in_algebra(group, X) for X in n_basis]
    commuting = all(trace_norm(bracket(a, b)) <= _BRACKET_TOL for a in h for b in nn)
    orthogonal = all(abs(trace_inner(a, b)) <= _BRACKET_TOL for a in h for b in nn)
    rng = rng if rng is not None else np.random.default_rng(0)
    rank_full = maximal_abelian_dimension(algebra_basis(group), rng)
    rank_split = maximal_abelian_dimension(list(h) + list(nn), rng)
    return IsotropySplitReport(
        commuting=commuting,
        orthogonal=orthogonal,
        nonzero_dimensions=bool(h) and bool(nn),
        rank_full=rank_full,
        rank_split=rank_split,
    )


# ---------------------------------------------------------------------------
# Weyl groups and Euler characteristics

_WEYL_SERIES = ("A", "B", "C", "D", "G2")


def _simple_reflections_int(series: str, rank: int):
    """Simple reflections of A/B/C/D realized as integer coordinate maps."""
    refls = []
    ncoord = rank + 1 if series == "A" else rank

    def swap(i):
        def f(V):
            W = V.copy()
            W[:, [i, i + 1]] = W[:, [i + 1, i]]
            return W

        return f

    for i in range(ncoord - 1):
        refls.append(swap(i))
    if series in ("B", "C"):

        def flip_last(V):
            W = V.copy()
            W[:, -1] = -W[:, -1]
            return W

        refls.append(flip_last)
    elif series == "D":

        def swap_negate(V):
            W = V.copy()
            W[:, -2], W[:, -1] = -V[:, -1], -V[:, -2]
            return W

        refls.append(swap_negate)
    return refls, ncoord


def _closed_form_weyl(series: str, rank: int) -> int:
    import math

    if series == "A":
        return math.factorial(rank + 1)
    if series in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return 12  # G2


@lru_cache(maxsize=None)
def weyl_group_order(series: str, rank: int) -> int:
    """|W| by breadth-first orbit closure of a regular vector under simple
    reflections; cross-checked against the closed-form product."""
    if series not in _WEYL_SERIES:
        raise UnsupportedType(f"unknown series {series!r}")
    if series == "G2":
        if rank != 2:
            raise UnsupportedType("G2 has rank 2")
        simple = [np.array([1.0, -1.0, 0.0]), np.array([-2.0, 1.0, 1.0])]
        v = np.array([0.1234, 0.9876, -1.111])
        seen = {tuple(np.round(v, 9))}
        frontier = [v]
        while frontier:
            nxt = []
            for w in frontier:
                for a in simple:
                    r = w - 2.0 * (w @ a) / (a @ a) * a
                    key = tuple(np.round(r, 9))
                    if key not in seen:
                        seen.add(key)
                        nxt.append(r)
            frontier = nxt
        order = len(seen)
    else:
        if rank < 1 or rank > 8 or (series == "D" and rank < 2):
            raise UnsupportedType(f"rank {rank} out of the supported range for {series}")
        refls, ncoord = _simple_reflections_int(series, rank)
        start = np.arange(1, ncoord + 1, dtype=np.int64)[None, :]
        base = 2 * ncoord + 3
        powers = base ** np.arange(ncoord, dtype=np.int64)

        def keys(V):
            return (V + ncoord + 1) @ powers

        seen_keys = np.sort(keys(start))
        frontier = start
        while frontier.size:
            cands = np.concatenate([f(frontier) for f in refls])
            k = keys(cands)
            k_uniq, idx = np.unique(k, return_index=True)
            cands = cands[idx]
            pos = np.searchsorted(seen_keys, k_uniq)
            pos = np.clip(pos, 0, len(seen_keys) - 1)
            fresh = seen_keys[pos] != k_uniq
            frontier = cands[fresh]
            if frontier.size:
                seen_keys = np.sort(np.concatenate([seen_keys, k_uniq[fresh]]))
        order = len(seen_keys)
    expected = _closed_form_weyl(series, rank)
    if order != expected:
        raise InvariantViolated(
            f"orbit closure gave {order}, closed form gives {expected} for {series}_{rank}"
        )
    return order


def _factor_weyl(series: str, rank: int) -> tuple[int, int]:
    """(|W|, rank) for one factor; 'T' denotes a torus factor."""
    if series == "T":
        if rank < 1:
            raise InvalidParameter("torus rank must be >= 1")
        return 1, rank
    return weyl_group_order(series, rank), rank


def euler_characteristic(
    group: tuple[str, int], subgroup_factors: Iterable[tuple[str, int]]
):
    """χ(G/H) = |W_G| / Π|W_H_i| when rank H = rank G, else the NotEqualRank
    marker (χ = 0).  Factors are (series, rank) pairs; series 'T' is a torus."""
    g_order = weyl_group_order(*group)
    g_rank = group[1]
    h_order, h_rank = 1, 0
    for series, rank in subgroup_factors:
        w, r = _factor_weyl(series, rank)
        h_order *= w
        h_rank += r
    if h_rank > g_rank:
        raise InvalidParameter("subgroup rank exceeds group rank")
    if h_rank < g_rank:
        return NOT_EQUAL_RANK
    q, rem = divmod(g_order, h_order)
    if rem:
        raise InvalidParameter("Weyl order of the subgroup does not divide |W_G|")
    return q


def series_of_group(spec: CompactGroupSpec) -> tuple[str, int]:
    """Root-system series and rank of a supported compact group."""
    if spec.family == "SU":
        return ("A", spec.n - 1)
    if spec.family == "Sp":
        return ("C", spec.n)
    if spec.n % 2 == 1:
        return ("B", spec.n // 2)
    return ("D", spec.n // 2)


# ---------------------------------------------------------------------------
# squashed 3-sphere isometry algebras


def su2_half_pauli_basis() -> tuple[np.ndarray, ...]:
    """T_k = -i sigma_k / 2 with [T1, T2] = T3 cyclically."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    return tuple(-0.5j * s for s in (s1, s2, s3))


@dataclass(frozen=True)
class BergerIsometryReport:
    dimension: int
    coefficient_basis: tuple[np.ndarray, ...]
    matrix_basis: tuple[np.ndarray, ...]


def berger_right_isometry_algebra(a: float, b: float) -> BergerIsometryReport:
    """Directions X in su(2) whose adjoint action is skew for the left-invariant
    metric diag(1, b, a) on the frame (T1, T2, T3).

    Dimension 3 for the round case a = b = 1, 1 for the squashed case
    a < b = 1, 0 when a < b < 1.
    """
    if not (0 < a <= b <= 1):
        raise InvalidCoefficients("need 0 < a <= b <= 1")
    Q = np.diag([1.0, b, a])
    # ad(T_k) on the frame, from [T1,T2]=T3, [T2,T3]=T1, [T3,T1]=T2
    def ad(k):
        A = np.zeros((3, 3))
        i, j = (k + 1) % 3, (k + 2) % 3
        A[j, i] = 1.0
        A[i, j] = -1.0
        return A

    rows = []
    for k in range(3):
        C = ad(k).T @ Q + Q @ ad(k)
        rows.append([C[0, 1], C[0, 2], C[1, 2], C[0, 0], C[1, 1], C[2, 2]])
    M = np.array(rows).T
    ns = null_space(M, rel_cutoff=1e-10)
    T = su2_half_pauli_basis()
    coeffs = tuple(ns[:, i].copy() for i in range(ns.shape[1]))
    mats = tuple(sum(c[k] * T[k] for k in range(3)) for c in coeffs)
    return BergerIsometryReport(
        dimension=ns.shape[1], coefficient_basis=coeffs, matrix_basis=mats
    )


# ---------------------------------------------------------------------------
# orbit averages


def uniform_rotation_2d(rng: np.random.Generator) -> np.ndarray:
    t = rng.uniform(0.0, 2.0 * np.pi)
    c, s = np.cos(t), np.sin(t)
    return np.array([[c, -s], [s, c]])


def center_of_gravity(
    rep,
    w: np.ndarray,
    samples: int = 10_000,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Average of the orbit of w: exact over a finite list of orthogonal
    matrices, Monte-Carlo over a Haar-sampled group (spec or sampler)."""
    w = np.asarray(w, dtype=float)
    if np.linalg.norm(w) < 1e-12:
        raise ZeroVector("the averaged vector must be nonzero")
    if not isinstance(rep, CompactGroupSpec) and not callable(rep):
        mats = [np.asarray(R, dtype=float) for R in rep]
        if not mats:
            raise InvalidParameter("empty representation")
        for R in mats:
            if R.shape != (w.size, w.size) or np.max(np.abs(R.T @ R - np.eye(w.size))) > 1e-8:
                raise InvalidParameter("representation matrices must be orthogonal on w's space")
        return np.mean([R @ w for R in mats], axis=0)
    if samples < 1:
        raise InvalidParameter("need at least one sample")
    rng = rng if rng is not None else np.random.default_rng()
    acc = np.zeros(w.size)
    if isinstance(rep, CompactGroupSpec):
        for R in _haar_blocks(rep, rng, samples):
            acc += np.sum((R @ w).real, axis=0)
    else:
        for _ in range(samples):
            acc += (np.asarray(rep(rng)) @ w).real
    return acc / samples


# ---------------------------------------------------------------------------
# catalog of positively curved homogeneous spaces

_CATALOG_FIELDS = ("id", "name", "G", "H", "isometry_group", "fibration", "checks")


@dataclass(frozen=True)
class CatalogEntry:
    id: int
    name: str
    G: str
    H: str
    isometry_group: str
    fibration: str
    checks: tuple[str, ...]


def default_catalog_path():
    return resources.files("homoglab").joinpath("data/catalog.txt")


def catalog_load(path=None) -> list[CatalogEntry]:
    """Parse the flat-text catalog: one record per line, 'field: value' pairs
    separated by '|'."""
    src = default_catalog_path() if path is None else path
    if hasattr(src, "read_text"):
        text = src.read_text(encoding="utf-8")
    else:
        text = Path(src).read_text(encoding="utf-8")
    entries = []
    seen_ids = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = {}
        for part in line.split("|"):
            m = re.match(r"\s*([A-Za-z_]+)\s*:\s*(.*?)\s*$", part)
            if not m:
                raise ParseError(f"line {lineno}: malformed field {part!r}")
            fields[m.group(1)] = m.group(2)
        missing = [f for f in _CATALOG_FIELDS if f not in fields]
        if missing:
            raise ParseError(f"line {lineno}: missing fields {missing}")
        try:
            entry_id = int(fields["id"])
        except ValueError:
            raise ParseError(f"line {lineno}: id is not an integer") from None
        if entry_id in seen_ids:
            raise ParseError(f"line {lineno}: duplicate id {entry_id}")
        seen_ids.add(entry_id)
        entries.append(
            CatalogEntry(
                id=entry_id,
                name=fields["name"],
                G=fields["G"],
                H=fields["H"],
                isometry_group=fields["isometry_group"],
                fibration=fields["fibration"],
                checks=tuple(c.strip() for c in fields["checks"].split(",") if c.strip()),
            )
        )
    return entries


@dataclass(frozen=True)
class CatalogCheckReport:
    entry: CatalogEntry
    status: str  # "passed" | "failed" | "informational"
    details: str
    evidence: dict


def catalog_verify(
    entry_id: int,
    path=None,
    rng: np.random.Generator | None = None,
    samples: int = 200,
) -> CatalogCheckReport:
    """Run the numeric check attached to a catalog entry, if any."""
    entries = {e.id: e for e in catalog_load(path)}
    if entry_id not in entries:
        raise InvalidParameter(f"no catalog entry {entry_id}")
    entry = entries[entry_id]
    rng = rng if rng is not None else np.random.default_rng(0)

    if entry_id == 1:
        from .constant_curvature import invariant_geodesic_check, is_clifford_sphere
        from .finite_groups import Quaternion, left_translation_matrix

        q = Quaternion(np.cos(0.4), np.sin(0.4), 0.0, 0.0)
        g = left_translation_matrix(q)
        ok, angle = is_clifford_sphere(g)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        slide = ok and invariant_geodesic_check(g, x)
        status = "passed" if slide else "failed"
        return CatalogCheckReport(
            entry, status,
            "rotation with equal angle pairs has constant displacement and slides its geodesics",
            {"angle": angle, "geodesic_slide": bool(slide)},
        )
    if entry_id == 10:
        space = so5_so3_space()
        worst = np.inf
        for _ in range(25):
            xi = sum(
                c * b
                for c, b in zip(rng.standard_normal(10), algebra_basis(space.group))
            )
            prof = killing_length_profile(space, xi, samples=samples, rng=rng)
            worst = min(worst, prof.relative_gap)
        status = "passed" if worst > 1e-3 else "failed"
        return CatalogCheckReport(
            entry, status,
            "no sampled direction gives a constant-length field",
            {"min_relative_gap": worst, "directions": 25},
        )
    if entry_id == 15:
        space = hopf_sphere_space(2)
        direction = u1_centralizer_direction(3, 2)
        prof = killing_length_profile(
            space, None, samples=samples, rng=rng, right=direction
        )
        ok = constant_length_verdict(prof)
        return CatalogCheckReport(
            entry, "passed" if ok else "failed",
            "circle direction of the fibration generates a constant-length field",
            {"relative_gap": prof.relative_gap, "length": prof.mean},
        )
    if entry_id == 17:
        dims = (
            berger_right_isometry_algebra(1.0, 1.0).dimension,
            berger_right_isometry_algebra(0.5, 1.0).dimension,
            berger_right_isometry_algebra(0.25, 0.5).dimension,
        )
        ok = dims == (3, 1, 0)
        return CatalogCheckReport(
            entry, "passed" if ok else "failed",
            "right-isometry algebra dimensions across the three metric cases",
            {"dimensions": list(dims)},
        )
    return CatalogCheckReport(
        entry, "informational",
        "recorded for reference; no desk-scale numeric check attached",
        {},
    )
