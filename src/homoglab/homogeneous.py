"""Normal homogeneous spaces G/H: reductive complements, Killing-field length
profiles and constant-length certificates, Weyl-group orders and Euler
characteristics, squashed-sphere isometry algebras, and the bundled catalog of
positively curved examples.

Tangent spaces are modelled on the orthogonal complement 𝔪 of the isotropy
algebra 𝔥 inside 𝔤, taken with respect to <X, Y> = -trace(XY).  The metric is
the normal one: 𝔪 carries that form itself.

Subspaces of 𝔤 are handled as coordinates in the orthonormal
``algebra_basis``: on skew-hermitian matrices -trace(XY) is the dot product
of the real coordinate vectors, so Gram matrices and projections are one
stacked ``trace_coords`` each, and a complement is the null space of the
isotropy coordinates.  There is no Gram-Schmidt.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from . import _tol
from ._linalg import _readonly, null_space, trace_coords, trace_norm
from .compact_lie import (
    CompactGroupSpec,
    _basis_stack,
    _haar_blocks,
    algebra_basis,
    check_in_algebra,
)
from .errors import (
    InvalidCoefficients,
    InvariantViolated,
    InvalidParameter,
    NotASubalgebra,
    ParseError,
    UnsupportedType,
    ZeroField,
)
from .profiles import DisplacementProfile

NOT_EQUAL_RANK = "NotEqualRank"


def bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def _bracket_free(basis: np.ndarray, brackets: np.ndarray) -> bool:
    """True when no bracket of the stack ``brackets`` has coordinates on
    ``basis`` of norm above ``_tol.BRACKET``."""
    return bool(np.all(np.linalg.norm(trace_coords(basis, brackets), axis=-1) <= _tol.BRACKET))


@dataclass(frozen=True, eq=False)
class HomogeneousSpaceSpec:
    """G/H with its normal metric: the split 𝔤 = 𝔥 ⊕ 𝔪, 𝔪 the
    -trace(XY)-complement of the isotropy algebra 𝔥, which carries -trace(XY).

    ``complement_basis`` is derived, not given: the null space of the isotropy
    coordinates in the orthonormal ``algebra_basis``, whose null-space
    coefficients are orthonormal, so 𝔪 is too.  The isotropy basis must be
    linearly independent (else InvalidParameter) and span a subalgebra: no
    bracket of two of its elements may have 𝔪-coordinates (else
    NotASubalgebra).  [𝔥, 𝔪] ⊆ 𝔪 then holds because the form is invariant:
    tr(h_j [h_i, m]) = -tr(m [h_i, h_j]), so no separate check is made.  The
    isotropy basis is given as a sequence of matrices; both bases are held as
    read-only (k, d, d) stacks.
    """

    name: str
    group: CompactGroupSpec
    isotropy_basis: np.ndarray
    complement_basis: np.ndarray = field(init=False)

    def __post_init__(self):
        full = _basis_stack(self.group)
        empty = np.zeros((0,) + full.shape[1:], dtype=full.dtype)
        # a new array, copied from the caller's sequence
        h = _readonly(check_in_algebra(self.group, list(self.isotropy_basis) or empty))
        coeff = null_space(trace_coords(full, h))
        if coeff.shape[1] != len(full) - len(h):
            raise InvalidParameter("isotropy basis is linearly dependent")
        m = _readonly(np.tensordot(coeff.T, full, axes=1))
        # [h_j, h_i] = -[h_i, h_j] and [h_i, h_i] = 0: the pairs i < j suffice
        i, j = np.triu_indices(len(h), 1)
        if not _bracket_free(m, bracket(h[i], h[j])):
            raise NotASubalgebra("isotropy basis is not closed under brackets")
        object.__setattr__(self, "isotropy_basis", h)
        object.__setattr__(self, "complement_basis", m)

    def tangent_length(self, X: np.ndarray):
        """Normal-metric length of the 𝔪-component of X, the norm of its
        𝔪-coordinates: a float for one matrix, an array for a stack."""
        length = np.linalg.norm(trace_coords(self.complement_basis, X), axis=-1)
        return float(length) if length.ndim == 0 else length


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
    S = np.stack(sym_basis)
    gens = []
    for a, b in ((0, 1), (0, 2), (1, 2)):
        A = np.zeros((3, 3))
        A[a, b], A[b, a] = 1.0, -1.0
        # matrix of S -> [A, S] in the orthonormal basis S_a
        gens.append(np.einsum("aij,bji->ab", S, bracket(A, S)))
    # by Schur the generators are already orthogonal: normalising is enough
    return tuple(g / trace_norm(g) for g in gens)


@lru_cache(maxsize=None)
def group_space(group: CompactGroupSpec) -> HomogeneousSpaceSpec:
    """The group itself with its bi-invariant metric (trivial isotropy)."""
    return HomogeneousSpaceSpec(group.name, group, ())


@lru_cache(maxsize=None)
def hopf_sphere_space(m: int) -> HomogeneousSpaceSpec:
    """S^{2m+1} as SU(m+1)/SU(m); for m = 1 the isotropy is trivial."""
    if m < 1:
        raise InvalidParameter("need m >= 1")
    group = CompactGroupSpec("SU", m + 1)
    return HomogeneousSpaceSpec(f"S{2 * m + 1}", group, su_block_subalgebra(m + 1, m))


@lru_cache(maxsize=1)
def so5_so3_space() -> HomogeneousSpaceSpec:
    return HomogeneousSpaceSpec("SO(5)/SO(3)", CompactGroupSpec("SO", 5), principal_so3_in_so5())


# ---------------------------------------------------------------------------
# Killing-field length profiles


def _normalizes_isotropy(space: HomogeneousSpaceSpec, right: np.ndarray) -> bool:
    """True when no bracket [right, h] with h in 𝔥 has 𝔪-coordinates of norm
    above ``_tol.BRACKET``.  The flow of ``right`` by right multiplication is
    then defined on G/H, and its frame at every point is proj_𝔪(right)."""
    return _bracket_free(space.complement_basis, bracket(right, space.isotropy_basis))


def killing_length_profile(
    space: HomogeneousSpaceSpec,
    xi: np.ndarray | None,
    samples: int,
    rng: np.random.Generator,
    *,
    right: np.ndarray | None = None,
) -> DisplacementProfile:
    """Length profile of a Killing field over sampled points of G/H.

    ``xi`` generates the flow by left multiplication; its length at the coset
    of g is the norm of proj_𝔪(Ad(g⁻¹)ξ).  ``right`` optionally adds the flow
    by right multiplication, defined when the direction normalizes the
    isotropy algebra; its contribution to the frame at g is proj_𝔪(right),
    independent of g.  At least one component must be nonzero.

    The Haar points are evaluated as stacks of at most ``compact_lie._SAMPLE_BLOCK``.
    """
    # validated first, so that a NaN direction is refused as not in the algebra
    if xi is not None:
        xi = check_in_algebra(space.group, xi)
    if right is not None:
        right = check_in_algebra(space.group, right)
    have_left = xi is not None and trace_norm(xi) > _tol.ZERO
    have_right = right is not None and trace_norm(right) > _tol.ZERO
    if not have_left and not have_right:
        raise ZeroField("field direction is zero")
    if have_right and not _normalizes_isotropy(space, right):
        raise InvalidParameter("right component must normalize the isotropy algebra")
    vals = []
    for g in _haar_blocks(space.group, rng, samples):
        # in the group's dtype: real frames take the real GEMM of trace_coords
        Y = np.swapaxes(g.conj(), -1, -2) @ xi @ g if have_left else np.zeros_like(g)
        if have_right:
            Y = Y + right
        vals.append(space.tangent_length(Y))
    return DisplacementProfile.from_values(np.concatenate(vals))


# ---------------------------------------------------------------------------
# constant-length certificates for Killing fields


def _sym2_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the symmetric n x n matrices in the Frobenius
    product, as an (n(n + 1)/2, n, n) stack."""
    i, j = np.triu_indices(n)
    k = np.arange(len(i))
    E = np.zeros((len(i), n, n))
    E[k, i, j] = E[k, j, i] = np.where(i == j, 1.0, np.sqrt(0.5))
    return E


@lru_cache(maxsize=None)
def casimir_components(group: CompactGroupSpec) -> tuple[tuple[float, np.ndarray], ...]:
    """Eigenspaces of the Casimir Ω(A) = -Σ_a [ad_a, [ad_a, A]] on Sym²𝔤, in
    ``algebra_basis`` coordinates: (Casimir value, orthonormal read-only
    (k, n, n) stack of symmetric matrices) pairs by increasing value,
    n = dim 𝔤.  Built once per group.

    Eigenvalues closer than ``_tol.BRACKET`` times the largest form one
    component.  Inequivalent irreducibles with one Casimir value would share a
    component, so a caller that needs irreducible components compares their
    dimensions with the Weyl dimension formula.
    """
    basis = _basis_stack(group)
    n = len(basis)
    # ad[a][c, b] = <B_c, [B_a, B_b]>, the matrix of ad(B_a) on coordinates
    ad = np.swapaxes(trace_coords(basis, bracket(basis[:, None], basis[None])), 1, 2)
    # Ω = -Σ_a (ad_a ⊗ 1 + 1 ⊗ ad_a)², which is -2 (K ⊗ 1 + Σ_a ad_a ⊗ ad_a)
    # with K = Σ_a ad_a² on the symmetric tensors
    K = np.einsum("aij,ajk->ik", ad, ad)
    kron = np.einsum("aij,akl->ikjl", ad, ad).reshape(n * n, n * n) + np.kron(K, np.eye(n))
    F = _sym2_basis(n).reshape(-1, n * n)
    values, vecs = np.linalg.eigh(-2.0 * F @ kron @ F.T)
    split = np.flatnonzero(np.diff(values) > _tol.BRACKET * max(values[-1], 1.0)) + 1
    return tuple(
        (float(np.mean(values[idx])), _readonly((vecs[:, idx].T @ F).reshape(-1, n, n)))
        for idx in np.split(np.arange(len(values)), split)
    )


@dataclass(frozen=True)
class KillingCertificate:
    """Which components of Sym²𝔤 the metric form touches, and the least
    projection of ξξᵀ onto them over unit directions ξ."""

    component_dims: tuple[int, ...]  # of every Casimir component, by value
    touched_dims: tuple[int, ...]  # of the nontrivial components S touches
    untouched_max: float  # largest ‖P_λ(S)‖ over the other nontrivial ones
    min_norm: float  # least ‖P(ξξᵀ)‖, P onto the touched components


# points of the fixed grid that cross-checks the minimum taken at the roots
_CHECK_GRID = 256


def killing_constancy_certificate(
    space: HomogeneousSpaceSpec, torus: np.ndarray
) -> KillingCertificate:
    """Decide which Killing fields ξ of the left action of G on G/H have
    constant length.

    In algebra coordinates the squared length of the left field ξ at gH is
    ⟨ξξᵀ, R S Rᵀ⟩ with R = Ad(g⁻¹) and S = mᵀm the metric form on 𝔤, the
    𝔪-projection (m the 𝔪-basis in algebra coordinates): a matrix
    coefficient of Sym²𝔤.
    When each Casimir component is irreducible, matrix coefficients of
    different components are independent (Peter–Weyl), so the length is
    constant iff P_λ(ξξᵀ) = 0 on every nontrivial component λ with
    ‖P_λ(S)‖ > ``_tol.BRACKET``.

    ``torus`` is a (2, d, d) stack of commuting orthonormal directions that
    span a maximal torus of a rank-2 group.  ‖P(ξξᵀ)‖ is Ad-invariant and
    every direction is conjugate into the torus, so the least value over unit
    ξ is the least over the torus circle, where its square is a trigonometric
    polynomial of degree 4 in the angle.  Its minimum is taken at the roots of
    its derivative (``numpy.roots``); a fixed grid below that minimum by more
    than ``_tol.BRACKET`` raises InvariantViolated.
    """
    basis = _basis_stack(space.group)
    t = check_in_algebra(space.group, torus)
    x = trace_coords(basis, t)
    if len(x) != 2 or not np.max(np.abs(x @ x.T - np.eye(2))) <= _tol.BASIS:
        raise InvalidParameter("torus must be two orthonormal directions")
    if not _bracket_free(basis, bracket(t[0], t[1])):
        raise InvalidParameter("torus directions must commute")

    m = trace_coords(basis, space.complement_basis)
    S = m.T @ m
    components = casimir_components(space.group)
    # Ω is positive semidefinite and Sym²𝔤 holds the invariant trace form, so
    # the first component is the trivial one: it adds a constant to every length
    nontrivial = [Q for _, Q in components[1:]]
    s_norms = [float(np.linalg.norm(np.tensordot(Q, S, axes=2))) for Q in nontrivial]
    touched = [Q for Q, n in zip(nontrivial, s_norms) if n > _tol.BRACKET]

    # ξξᵀ on the circle cos θ x0 + sin θ x1 is c² x0x0ᵀ + cs (x0x1ᵀ + x1x0ᵀ) + s² x1x1ᵀ
    x0, x1 = x
    terms = np.stack([np.outer(x0, x0), np.outer(x0, x1) + np.outer(x1, x0), np.outer(x1, x1)])
    P = np.concatenate(touched) if touched else np.zeros((0,) + S.shape)
    U = np.tensordot(terms, P, axes=([1, 2], [1, 2]))
    G = U @ U.T

    def sq_norm(theta):
        c, s = np.cos(theta), np.sin(theta)
        mono = np.stack([c * c, c * s, s * s])
        return np.einsum("in,ij,jn->n", mono, G, mono)

    # Fourier coefficients c_k, k = -4..4, from 9 equally spaced values, then
    # z⁴ p'(θ) = Σ i k c_k z^(k+4)
    k = np.arange(-4, 5)
    theta = 2 * np.pi * np.arange(len(k)) / len(k)
    coeffs = np.exp(-1j * np.outer(k, theta)) @ sq_norm(theta) / len(k)
    roots = np.roots((1j * k * coeffs)[::-1])
    # every root's angle gives a value no smaller than the minimum, and the
    # unit-circle roots include the minimizer; a constant p has no root
    angles = np.angle(roots) if roots.size else np.zeros(1)
    at_roots = math.sqrt(max(float(np.min(sq_norm(angles))), 0.0))
    grid = math.sqrt(max(float(np.min(sq_norm(np.linspace(0, np.pi, _CHECK_GRID)))), 0.0))
    if grid < at_roots - _tol.BRACKET:
        raise InvariantViolated(
            f"grid minimum {grid:.3e} lies below the root minimum {at_roots:.3e}"
        )
    return KillingCertificate(
        component_dims=tuple(len(Q) for _, Q in components),
        touched_dims=tuple(len(Q) for Q in touched),
        untouched_max=max((n for n in s_norms if n <= _tol.BRACKET), default=0.0),
        min_norm=at_roots,
    )


# ---------------------------------------------------------------------------
# Weyl groups and Euler characteristics

_WEYL_SERIES = ("A", "B", "C", "D", "G2")


def weyl_group_order(series: str, rank: int) -> int:
    """|W| of the simple Lie algebra of the given series and rank."""
    if series not in _WEYL_SERIES:
        raise UnsupportedType(f"unknown series {series!r}")
    if series == "G2" and rank != 2:
        raise UnsupportedType("G2 has rank 2")
    if series != "G2" and (rank < 1 or rank > 8 or (series == "D" and rank < 2)):
        raise UnsupportedType(f"rank {rank} out of the supported range for {series}")
    if series == "A":
        return math.factorial(rank + 1)
    if series in ("B", "C"):
        return 2**rank * math.factorial(rank)
    if series == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return 12  # G2


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
    matrix_basis: tuple[np.ndarray, ...]


def berger_right_isometry_algebra(a: float, b: float) -> BergerIsometryReport:
    """Directions X in su(2) whose adjoint action is skew for the left-invariant
    metric diag(1, b, a) on the frame (T1, T2, T3).

    ad(T_k) rotates the plane of the other two frame vectors T_i, T_j, so
    ad(T_k)ᵀQ + Q ad(T_k) is Q_jj - Q_ii at (i, j) and (j, i) and zero
    elsewhere.  Each k touches its own pair of entries, so the algebra is
    spanned by the T_k whose other two coefficients are equal: dimension 3
    for the round case a = b = 1, 1 for the squashed case a < b = 1, 0 when
    a < b < 1.
    """
    if not (0 < a <= b <= 1):
        raise InvalidCoefficients("need 0 < a <= b <= 1")
    q = (1.0, b, a)
    T = su2_half_pauli_basis()
    mats = tuple(T[k] for k in range(3) if q[(k + 1) % 3] == q[(k + 2) % 3])
    return BergerIsometryReport(dimension=len(mats), matrix_basis=mats)


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
    separated by '|'.  The bundled catalog is parsed once per process, a file
    given by ``path`` on every call; each call returns a new list."""
    return list(_bundled_catalog() if path is None else _parse_catalog(Path(path)))


@lru_cache(maxsize=1)
def _bundled_catalog() -> tuple[CatalogEntry, ...]:
    return tuple(_parse_catalog(default_catalog_path()))


def _parse_catalog(src) -> list[CatalogEntry]:
    try:
        text = src.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read catalog {src}: {e}") from None
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
    tolerances: dict  # the named tolerances that decide the status


# Sym² so(5) = 1 ⊕ 5 ⊕ 14 ⊕ 35, multiplicity-free, by increasing Casimir value
_SYM2_SO5 = (1, 5, 14, 35)


def _so5_torus() -> np.ndarray:
    """Unit rotation generators of the planes e1e2 and e3e4: they commute and
    span a maximal torus of so(5)."""
    t = np.zeros((2, 5, 5))
    t[0, 0, 1] = t[1, 2, 3] = np.sqrt(0.5)
    t[0, 1, 0] = t[1, 3, 2] = -np.sqrt(0.5)
    return t


# the names an entry's ``checks`` field may hold; geodesic-slide is the second
# half of the clifford-rotation check, and informational runs none
_CATALOG_CHECKS = ("clifford-rotation", "geodesic-slide", "no-constant-killing-direction",
                   "hopf-constant-length", "berger-isometry-dims", "informational")


def catalog_verify(entry_id: int, path=None) -> CatalogCheckReport:
    """Run the numeric check that a catalog entry's ``checks`` field names, if
    any.  InvalidParameter when it names an unknown check or two checks.  No
    check draws a point."""
    entries = {e.id: e for e in catalog_load(path)}
    if entry_id not in entries:
        raise InvalidParameter(f"no catalog entry {entry_id}")
    entry = entries[entry_id]
    unknown = [c for c in entry.checks if c not in _CATALOG_CHECKS]
    if unknown:
        raise InvalidParameter(f"catalog entry {entry_id}: unknown check {unknown[0]!r}")
    checks = {"clifford-rotation" if c == "geodesic-slide" else c for c in entry.checks}
    checks.discard("informational")
    if len(checks) > 1:
        raise InvalidParameter(f"catalog entry {entry_id} names more than one check")
    check = checks.pop() if checks else "informational"

    if check == "clifford-rotation":
        from .constant_curvature import invariant_geodesic_check, is_clifford_sphere
        from .finite_groups import left_translation_matrix

        g = left_translation_matrix([np.cos(0.4), np.sin(0.4), 0.0, 0.0])
        ok, angle = is_clifford_sphere(g)
        x = np.array([1.0, 0.0, 0.0, 0.0])
        slide = ok and invariant_geodesic_check(g, x)
        status = "passed" if slide else "failed"
        return CatalogCheckReport(
            entry, status,
            "rotation with equal angle pairs has constant displacement and slides its geodesics",
            {"angle": angle, "geodesic_slide": bool(slide)},
            {"eigen": _tol.EIGEN, "geodesic": _tol.GEODESIC},
        )
    if check == "no-constant-killing-direction":
        cert = killing_constancy_certificate(so5_so3_space(), _so5_torus())
        if cert.component_dims != _SYM2_SO5:
            raise InvariantViolated(
                f"Casimir components of Sym² so(5) have dimensions {cert.component_dims}"
            )
        status = "passed" if cert.min_norm > _tol.BRACKET else "failed"
        return CatalogCheckReport(
            entry, status,
            "no Killing field has constant length: every unit direction's square "
            "projects onto a component of Sym² so(5) that the metric form touches",
            {"certified_min": cert.min_norm, "component_dims": list(cert.component_dims),
             "touched_dims": list(cert.touched_dims), "untouched_max": cert.untouched_max},
            {"bracket": _tol.BRACKET},
        )
    if check == "hopf-constant-length":
        space = hopf_sphere_space(2)
        direction = u1_centralizer_direction(3, 2)
        # a right field that normalizes 𝔥 has one frame, proj_𝔪(direction),
        # at every point, so its length is constant: its gap is exactly 0
        ok = _normalizes_isotropy(space, direction)
        return CatalogCheckReport(
            entry, "passed" if ok else "failed",
            "circle direction of the fibration generates a constant-length field",
            {"relative_gap": 0.0, "length": space.tangent_length(direction)},
            {"bracket": _tol.BRACKET},
        )
    if check == "berger-isometry-dims":
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
            {},
        )
    return CatalogCheckReport(
        entry, "informational",
        "recorded for reference; no desk-scale numeric check attached",
        {},
        {},
    )
