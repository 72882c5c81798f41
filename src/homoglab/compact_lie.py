"""Compact matrix groups: Haar sampling, bi-invariant geometry, two-sided
translation isometries.

Supported families are SU(n) (n >= 2), SO(n) (n >= 3) and the compact
symplectic group Sp(n) (n >= 2), the latter realized as the unitary 2n x 2n
matrices commuting with the quaternionic structure map v -> J conj(v).
Every Haar point is one phase-fixed QR of a Gaussian stack
(``_gaussian_qr``), real, complex or quaternionic by family.

The bi-invariant distance is d(g, h) = min ||X|| over logs exp(X) = g^{-1} h
with ||X||^2 = -trace(X^2) in the defining representation.  The branch search
shifts eigen-angles by {-1, 0, +1} full turns, subject to the trace-zero
constraint in the special unitary case; that window is exhaustive at the
matrix sizes supported here.  Scale note: -trace(XY) is the negative Killing
form divided by 2n for su(n), by n-2 for so(n) and by 2n+2 for sp(n).

Constant displacement of a two-sided translation is decided exactly by the
center (``_constancy``), a deck's centralizer dimension by characters
(``_centralizer_dim``), and the least displacement lo is in closed form
(``min_displacement``): a class distance, or exactly zero for an inverted
map, which always fixes a point.  A constant map moves every point by lo; the
spread of a non-constant one is lo against the largest displacement hi at the
identity and the turns exp(pi/2 b) of the algebra basis
(``_translation_ranges``), a lower bound attained at named points.  One
kernel, ``_clifford_wolf``, holds these rules and freeness (lo vanishes off
the identity maps) for ``clifford_wolf_evidence`` and the pipeline.  Deck
stacks go in blocks (``_linalg._blocks``).  Sampled profiles only measure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _tol
from ._linalg import _blocks, _readonly, trace_norm
from .errors import InvalidParameter, InvariantViolated, NotInGroup
from .profiles import DisplacementProfile

SPECIAL_UNITARY = "SU"
SPECIAL_ORTHOGONAL = "SO"
COMPACT_SYMPLECTIC = "Sp"


@dataclass(frozen=True)
class CompactGroupSpec:
    """A compact classical group in its defining matrix realization."""

    family: str
    n: int

    def __post_init__(self):
        if self.family == SPECIAL_UNITARY and self.n >= 2:
            return
        if self.family == SPECIAL_ORTHOGONAL and self.n >= 3:
            return
        if self.family == COMPACT_SYMPLECTIC and self.n >= 2:
            return
        raise InvalidParameter(f"unsupported group {self.family}({self.n})")

    @property
    def matrix_size(self) -> int:
        return 2 * self.n if self.family == COMPACT_SYMPLECTIC else self.n

    @property
    def is_complex(self) -> bool:
        return self.family != SPECIAL_ORTHOGONAL

    @property
    def algebra_dim(self) -> int:
        n = self.n
        if self.family == SPECIAL_UNITARY:
            return n * n - 1
        if self.family == SPECIAL_ORTHOGONAL:
            return n * (n - 1) // 2
        return n * (2 * n + 1)

    @property
    def name(self) -> str:
        return f"{self.family}({self.n})"

    def identity(self) -> np.ndarray:
        d = self.matrix_size
        return np.eye(d, dtype=complex if self.is_complex else float)


def symplectic_structure(n: int) -> np.ndarray:
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -np.eye(n)
    J[n:, :n] = np.eye(n)
    return J


def check_in_group(spec: CompactGroupSpec, g: np.ndarray) -> np.ndarray:
    """Return ``g`` as an array if it is an element of the group (within
    ``_tol.GROUP``), or a stack of them; NotInGroup when any member fails."""
    d = spec.matrix_size
    try:
        g = np.asarray(g)
    except ValueError:  # a ragged list of matrices
        raise NotInGroup(f"expected {d}x{d} matrices for {spec.name}") from None
    if g.ndim not in (2, 3) or g.shape[-2:] != (d, d):
        raise NotInGroup(f"expected a {d}x{d} matrix for {spec.name}")
    # written so that NaN entries fail; a NaN or inf entry spreads into the product
    if not np.max(np.abs(_adjoint(g) @ g - np.eye(d))) <= _tol.GROUP:
        raise NotInGroup("matrix is not unitary")
    if spec.family == SPECIAL_UNITARY:
        if np.max(np.abs(np.linalg.det(g) - 1.0)) > 10 * _tol.GROUP:
            raise NotInGroup("determinant is not 1")
    elif spec.family == SPECIAL_ORTHOGONAL:
        if np.iscomplexobj(g) and np.max(np.abs(g.imag)) > _tol.GROUP:
            raise NotInGroup("matrix is not real")
        if np.any(np.linalg.det(g.real) < 0):
            raise NotInGroup("determinant is not +1")
    else:
        J = symplectic_structure(spec.n)
        if np.max(np.abs(g @ J - J @ g.conj())) > _tol.GROUP:
            raise NotInGroup("matrix does not commute with the quaternionic structure")
    return g


def check_in_algebra(spec: CompactGroupSpec, X: np.ndarray) -> np.ndarray:
    """Return ``X`` as an array if it is an element of the Lie algebra (within
    ``_tol.GROUP``), or a stack of them; InvalidParameter when any member fails."""
    d = spec.matrix_size
    try:
        X = np.asarray(X)
    except ValueError:  # a ragged list of matrices
        raise InvalidParameter(f"expected {d}x{d} matrices for the {spec.name} algebra") from None
    if X.ndim not in (2, 3) or X.shape[-2:] != (d, d):
        raise InvalidParameter(f"expected a {d}x{d} matrix for the {spec.name} algebra")
    # written so that NaN entries fail, as in check_in_group; an empty stack passes
    if not np.all(np.abs(_adjoint(X) + X) <= _tol.GROUP):
        raise InvalidParameter("matrix is not skew-hermitian")
    if spec.family == SPECIAL_UNITARY and np.any(np.abs(np.einsum("...ii", X)) > _tol.GROUP):
        raise InvalidParameter("matrix is not traceless")
    if spec.family == SPECIAL_ORTHOGONAL and np.any(np.abs(X.imag) > _tol.GROUP):
        raise InvalidParameter("matrix is not real")
    if spec.family == COMPACT_SYMPLECTIC:
        J = symplectic_structure(spec.n)
        if np.any(np.abs(X @ J - J @ X.conj()) > _tol.GROUP):
            raise InvalidParameter("matrix is not quaternionic")
    return X


# ---------------------------------------------------------------------------
# Haar sampling
#
# Every draw is ``_gaussian_qr`` of a stack of Gaussian matrices: Gram-Schmidt
# with a positive diagonal, equivariant under the group, so an invariant
# Gaussian gives a Haar point (real Gaussians on O(n), complex on U(n),
# quaternionic on Sp(n)).  A stack of S is drawn as one (S, ...) normal array,
# which consumes the generator exactly as S single draws do, so a seed gives
# the same points whatever the stack size.

# largest stack drawn at once; longer runs go in blocks of this many
_SAMPLE_BLOCK = 4096


def _adjoint(g: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return g.conj().swapaxes(-1, -2)


def _gaussian_qr(z: np.ndarray) -> np.ndarray:
    """The QR factor of each matrix of a stack, each column scaled by the
    phase of R's diagonal: Gram-Schmidt with a positive diagonal."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def haar_unitary(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar on U(n): one matrix, or a (size, n, n) stack."""
    z = rng.standard_normal((1 if size is None else size, 2, n, n))
    q = _gaussian_qr((z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0))
    return q[0] if size is None else q


def haar_orthogonal(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar on the full orthogonal group O(n), both components: one matrix, or
    a (size, n, n) stack."""
    q = _gaussian_qr(rng.standard_normal((1 if size is None else size, n, n)))
    return q[0] if size is None else q


def _j_conj(v: np.ndarray) -> np.ndarray:
    """J conj(v) for each column of a stack of 2n-row matrices."""
    n = v.shape[-2] // 2
    return np.concatenate([-v[..., n:, :].conj(), v[..., :n, :].conj()], axis=-2)


def _haar_symplectic(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    # the quaternionic Gaussian [[A, -conj(B)], [B, conj(A)]] with its columns
    # interleaved as v_1, J conj(v_1), v_2, ...: v -> J conj(v) is antiunitary
    # and commutes with the projection onto the earlier pairs, so complex
    # Gram-Schmidt keeps each pair, and the v-columns of the factor give the
    # element in exact form
    z = rng.standard_normal((size, 4, n, n))
    v = (z[:, 0::2] + 1j * z[:, 1::2]).reshape(size, 2 * n, n)  # [A; B]
    q = _gaussian_qr(np.stack([v, _j_conj(v)], axis=-1).reshape(size, 2 * n, 2 * n))[..., ::2]
    return np.concatenate([q, _j_conj(q)], axis=-1)


def _haar_block(spec: CompactGroupSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    if spec.family == SPECIAL_UNITARY:
        u = haar_unitary(spec.n, rng, size)
        det = np.linalg.det(u)
        return u * np.exp(-np.log(det) / spec.n)[:, None, None]
    if spec.family == SPECIAL_ORTHOGONAL:
        q = haar_orthogonal(spec.n, rng, size)
        flip = np.linalg.det(q) < 0
        q[flip, :, -1] = -q[flip, :, -1]
        return q
    return _haar_symplectic(spec.n, rng, size)


def haar_sample(
    spec: CompactGroupSpec, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """One Haar-distributed element of the group, or a (size, d, d) stack of
    them, the same points as ``size`` single draws."""
    blocks = list(_haar_blocks(spec, rng, 1 if size is None else size))
    return blocks[0][0] if size is None else np.concatenate(blocks)


def _haar_blocks(spec: CompactGroupSpec, rng: np.random.Generator, size: int):
    """``size`` Haar draws as consecutive stacks of at most ``_SAMPLE_BLOCK``
    elements, so a long profile holds one block at a time."""
    if size < 1:
        raise InvalidParameter("need at least one sample")
    for start in range(0, size, _SAMPLE_BLOCK):
        yield _haar_block(spec, rng, min(_SAMPLE_BLOCK, size - start))


# ---------------------------------------------------------------------------
# Lie algebra bases


@lru_cache(maxsize=None)
def algebra_basis(spec: CompactGroupSpec) -> tuple[np.ndarray, ...]:
    """Orthonormal basis w.r.t. <X, Y> = -trace(XY), by construction, ideal by
    simple ideal: so(4) lists its self-dual, then its anti-self-dual half.
    Built once per group, as read-only matrices."""
    n = spec.n

    def planes(entries, first=1, dtype=complex):
        # per a < b (a <= b for first = 0) and per pair (x, y) of entries, the
        # n x n matrix with x at (a, b) and y at (b, a)
        out = []
        for a in range(n):
            for b in range(a + first, n):
                for x, y in entries:
                    E = np.zeros((n, n), dtype=dtype)
                    E[a, b], E[b, a] = x, y
                    out.append(E)
        return out

    skew, cartan = [(1.0, -1.0), (1j, 1j)], []
    if spec.family == SPECIAL_ORTHOGONAL:
        raw = planes(skew[:1], dtype=float)
        if n == 4:
            e01, e02, e03, e12, e13, e23 = raw
            raw = [X for s in (1, -1) for X in (e01 + s * e23, e02 - s * e13, e03 + s * e12)]
    elif spec.family == SPECIAL_UNITARY:
        raw = planes(skew)
        # Cartan part i(e_1 + ... + e_k - k e_{k+1}) / sqrt(k(k+1)): the
        # Gram-Schmidt orthonormalisation of i(e_k - e_{k+1}), k = 1..n-1,
        # in that order, in closed form
        for k in range(1, n):
            D = np.zeros((n, n), dtype=complex)
            r = np.sqrt(k * (k + 1))
            D.imag[range(k + 1), range(k + 1)] = [1 / r] * k + [-k / r]
            cartan.append(D)
    else:
        def embed(A, B):
            return np.block([[A, -np.conj(B)], [B, np.conj(A)]])

        zero = np.zeros((n, n), dtype=complex)
        torus = [1j * np.diag(np.arange(n) == k) for k in range(n)]
        raw = [embed(X, zero) for X in planes(skew) + torus]
        raw += [embed(zero, S) for S in planes([(1.0, 1.0), (1j, 1j)], first=0)]
    # the raw elements are pairwise orthogonal: normalising makes them orthonormal
    return tuple(map(_readonly, [X / trace_norm(X) for X in raw] + cartan))


@lru_cache(maxsize=None)
def _basis_stack(spec: CompactGroupSpec) -> np.ndarray:
    """``algebra_basis(spec)`` as one read-only (dim, d, d) array."""
    return _readonly(np.stack(algebra_basis(spec)))


def random_algebra_element(
    spec: CompactGroupSpec, rng: np.random.Generator, unit: bool = False
) -> np.ndarray:
    basis = algebra_basis(spec)
    coeff = rng.standard_normal(len(basis))
    X = sum(c * b for c, b in zip(coeff, basis))
    if unit:
        X = X / trace_norm(X)
    return X


def group_exp(X: np.ndarray) -> np.ndarray:
    """exp(X) for skew-hermitian X only, real when X is real: the hermitian
    eigendecomposition in ``one_parameter`` reads one triangle of -iX."""
    X = np.asarray(X)
    # written so that NaN entries fail, as in check_in_algebra
    if X.ndim != 2 or X.shape[0] != X.shape[1] or not np.max(np.abs(X.conj().T + X)) <= _tol.GROUP:
        raise InvalidParameter("group_exp takes a square skew-hermitian matrix")
    return one_parameter(X)(1.0)


def one_parameter(X: np.ndarray):
    """Return t -> exp(tX) for skew-hermitian X, via one hermitian eigendecomposition."""
    X = np.asarray(X)
    real_input = not np.iscomplexobj(X)
    w, V = np.linalg.eigh(-1j * X if not real_input else -1j * X.astype(complex))
    Vh = V.conj().T

    def flow(t: float) -> np.ndarray:
        out = (V * np.exp(1j * t * w)) @ Vh
        return out.real if real_input else out

    return flow


# ---------------------------------------------------------------------------
# angles, distance


def _branch_shift_su(theta: np.ndarray) -> np.ndarray:
    """Shift eigen-angles by full turns in {-1, 0, +1} so they sum to zero,
    minimizing the squared norm (shift the largest angles down / smallest up).
    Works on the last axis, so a stack of angle rows shifts row by row."""
    theta = np.asarray(theta)
    s = np.round(theta.sum(axis=-1, keepdims=True) / (2.0 * np.pi))
    if not s.any():
        return theta
    # position of each angle in its row's ascending order
    rank = np.argsort(np.argsort(theta, axis=-1), axis=-1)
    down = rank >= theta.shape[-1] - s
    up = rank < -s
    return np.where(down, theta - 2.0 * np.pi, np.where(up, theta + 2.0 * np.pi, theta))


def minimal_angles(spec: CompactGroupSpec, u: np.ndarray) -> np.ndarray:
    """Eigen-angles of the minimal-norm logarithm of u, one per eigenvalue of
    the defining representation; one row per matrix of a stack u."""
    theta = np.angle(np.linalg.eigvals(u))
    if spec.family == SPECIAL_UNITARY:
        theta = _branch_shift_su(theta)
    # orthogonal / symplectic eigenvalues pair as conjugates; the principal
    # angles already minimize the norm branch by branch
    return theta


def biinvariant_distance(spec: CompactGroupSpec, g: np.ndarray, h: np.ndarray) -> float:
    """Bi-invariant geodesic distance d(g, h) = ||log(g^{-1} h)||, -tr(X^2) norm."""
    u = check_in_group(spec, g).conj().T @ check_in_group(spec, h)
    theta = minimal_angles(spec, u)
    return float(np.sqrt(np.sum(theta**2)))


def _pfaffian(A: np.ndarray) -> float:
    """Pfaffian of a real skew-symmetric matrix (Parlett-Reid elimination with
    pivoting); Pf(h A h^T) = det(h) Pf(A)."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    pf = 1.0
    for k in range(0, n - 1, 2):
        p = k + 1 + int(np.argmax(np.abs(A[k + 1 :, k])))
        if p != k + 1:
            A[[k + 1, p]] = A[[p, k + 1]]
            A[:, [k + 1, p]] = A[:, [p, k + 1]]
            pf = -pf
        if A[k + 1, k] == 0.0:
            return 0.0
        pf *= A[k, k + 1]
        tau = A[k, k + 2 :] / A[k, k + 1]
        col = A[k + 2 :, k + 1]
        A[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return pf


def _alcove_point(spec: CompactGroupSpec, g: np.ndarray) -> np.ndarray:
    """Torus angles of g's conjugacy class, in a closed fundamental alcove;
    one row per matrix of a stack g.

    SU(n): the minimal traceless lift of the eigen-angles, sorted descending.
    SO and Sp: one angle in [0, pi] per rotation plane, sorted descending; on
    SO(2m) the last angle carries the orientation, the sign of
    (-1)^m Pf(g - g^T), which separates the two SO(2m) classes inside one
    O(2m) class when g has no eigenvalue +-1.
    """
    theta = minimal_angles(spec, g)
    if spec.family == SPECIAL_UNITARY:
        return np.sort(theta, axis=-1)[..., ::-1]
    planes = spec.matrix_size // 2
    # eigenvalues pair as exp(+-i phi); SO(2m+1) adds one eigenvalue 1 (phi = 0)
    phi = np.sort(np.abs(theta), axis=-1)[..., ::-1][..., : 2 * planes]
    phi = phi.reshape(phi.shape[:-1] + (planes, 2)).mean(axis=-1)
    if spec.family == SPECIAL_ORTHOGONAL and spec.n % 2 == 0:
        g = np.real(g).reshape(-1, spec.n, spec.n)
        pf = np.array([_pfaffian(m - m.T) for m in g]).reshape(phi.shape[:-1])
        phi[..., -1] = np.where((-1) ** planes * pf < 0.0, -phi[..., -1], phi[..., -1])
    return phi


def _class_distance(spec: CompactGroupSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bi-invariant distance between the conjugacy classes of two group
    elements, or of the members of two stacks, unchecked.

    This is the least displacement of x -> a^{-1} x b, which fixes a point
    exactly when a and b are conjugate.  The classes meet a maximal torus in
    Weyl orbits, so the distance is the minimum, over the Weyl group and the
    integer lattice, of the torus distance between their angles.  The closed
    alcove of ``_alcove_point`` is a fundamental domain of the affine Weyl
    group, a reflection group, so that minimum is the plain distance between
    the two alcove points.  SU(n) and Sp(n) are simply connected; for SO(n) the
    angle lattice is the full 2 pi Z^m, which on SO(2m) adds the symmetry
    (phi_1, ..., phi_m) -> (2 pi - phi_1, phi_2, ..., -phi_m) of the alcove.
    """
    x = _alcove_point(spec, a)
    y = _alcove_point(spec, b)
    d = np.linalg.norm(x - y, axis=-1)
    if spec.family == SPECIAL_UNITARY:
        return d
    if spec.family == SPECIAL_ORTHOGONAL and spec.n % 2 == 0:
        y_shift = y.copy()
        y_shift[..., 0], y_shift[..., -1] = 2.0 * np.pi - y[..., 0], -y[..., -1]
        d = np.minimum(d, np.linalg.norm(x - y_shift, axis=-1))
    # each rotation plane appears twice in the defining representation
    return np.sqrt(2.0) * d


@lru_cache(maxsize=None)
def center_elements(spec: CompactGroupSpec) -> np.ndarray:
    """The center of the group as one read-only (|Z|, d, d) stack of scalar
    matrices: complex on SU(n), real on SO(n) and Sp(n)."""
    if spec.family == SPECIAL_UNITARY:
        # scalar exps: the vectorised exp can differ in the last bit
        z = np.array([np.exp(2j * np.pi * k / spec.n) for k in range(spec.n)])
    elif spec.family == SPECIAL_ORTHOGONAL and spec.n % 2:
        z = np.ones(1)
    else:
        z = np.array([1.0, -1.0])
    return _readonly(z[:, None, None] * np.eye(spec.matrix_size))


# ---------------------------------------------------------------------------
# two-sided translation isometries


@dataclass(frozen=True, eq=False)
class TwoSidedIsometry:
    """x -> g1^{-1} x g2, or x -> g1 x^{-1} g2 when ``inverted``."""

    g1: np.ndarray
    g2: np.ndarray
    inverted: bool = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of the point x, or of each point of a stack x; stacked
        factors broadcast against the points."""
        if self.inverted:
            return self.g1 @ _adjoint(x) @ self.g2
        return _adjoint(self.g1) @ x @ self.g2


def _identity_maps(dist: np.ndarray) -> np.ndarray:
    """Which maps x -> g1^{-1} x g2 of a pair stack are the identity, from its
    ``_center_distance``: g1 = g2 = one central element, within ``_tol.CLOSURE``."""
    return np.any(np.all(dist <= _tol.CLOSURE, axis=-1), axis=-1)


def _center_distance(spec: CompactGroupSpec, pairs: np.ndarray) -> np.ndarray:
    """Max-abs distances of each factor of a (k, 2, d, d) stack to the center: (k, |Z|, 2)."""
    return np.max(np.abs(pairs[:, None] - center_elements(spec)[:, None]), axis=(-2, -1))


def _displacement(spec: CompactGroupSpec, iso: TwoSidedIsometry, x: np.ndarray) -> np.ndarray:
    """d(x, iso(x)) for one point or a stack of points, unchecked."""
    theta = minimal_angles(spec, _adjoint(x) @ iso.apply(x))
    return np.sqrt(np.sum(theta**2, axis=-1))


def translation_displacement(spec: CompactGroupSpec, iso: TwoSidedIsometry, x: np.ndarray):
    """Displacement d(x, iso(x)) in the bi-invariant metric: a float for one
    point, an array for a stack of points."""
    check_in_group(spec, [iso.g1, iso.g2])
    dist = _displacement(spec, iso, check_in_group(spec, x))
    return float(dist) if dist.ndim == 0 else dist


def group_displacement_profile(
    spec: CompactGroupSpec,
    iso: TwoSidedIsometry,
    samples: int,
    rng: np.random.Generator,
) -> DisplacementProfile:
    check_in_group(spec, [iso.g1, iso.g2])
    vals = [_displacement(spec, iso, x) for x in _haar_blocks(spec, rng, samples)]
    return DisplacementProfile.from_values(np.concatenate(vals))


def clifford_wolf_evidence(spec: CompactGroupSpec, isos):
    """The flags and values of ``_clifford_wolf`` for a list of two-sided
    translations, the group-manifold twin of
    ``constant_curvature.clifford_evidence``."""
    isos, d = list(isos), spec.matrix_size
    pairs = check_in_group(spec, [g for iso in isos for g in (iso.g1, iso.g2)]).reshape(-1, 2, d, d)
    inverted = np.array([iso.inverted for iso in isos], dtype=bool)
    return _clifford_wolf(spec, pairs, inverted)[:2]


def _clifford_wolf(spec: CompactGroupSpec, pairs: np.ndarray, inverted: np.ndarray):
    """Constancy flags (``_constancy``, never for an inverted map), values (lo
    where constant, else hi - lo), ranges lo and hi (``_translation_ranges``),
    fixed-point flags and (k, 2) central-factor flags of the maps of a checked
    (k, 2, d, d) pair stack, inverted where ``inverted``.  A map other than
    the identity fixes a point iff lo vanishes: g1 and g2 are conjugate."""
    lo, hi = _translation_ranges(spec, pairs, inverted)
    dist = _center_distance(spec, pairs)
    constant, central = _constancy(spec, pairs, dist)
    constant &= ~inverted
    fixing = (lo <= _tol.EIGEN) & (inverted | ~_identity_maps(dist))
    return constant, np.where(constant, lo, hi - lo), lo, hi, fixing, central


def _constancy(spec: CompactGroupSpec, pairs: np.ndarray, dist: np.ndarray):
    """(k,) constancy flags of the maps x -> g1^{-1} x g2 of a checked (k, 2, d, d)
    stack with ``_center_distance`` ``dist``, and (k, 2) flags of its central
    factors.  A map is constant iff, on every simple ideal, Ad(g1) or Ad(g2)
    is the identity (Freudenthal 1963, Ozols 1974), i.e. on a simple algebra
    iff g1 or g2 lies within ``_tol.CENTRAL`` (max-abs) of the center.  SO(4)
    has two ideals, the halves of ``algebra_basis``: there the rest pass
    when, on each half, some factor has g^H b g = b within ``_tol.CENTRAL``."""
    central = np.any(dist <= _tol.CENTRAL, axis=1)
    constant = central.any(axis=1)
    if spec == CompactGroupSpec(SPECIAL_ORTHOGONAL, 4):
        g, B = pairs[~constant, :, None], _basis_stack(spec)
        # [map, factor, ideal]: max-abs of g^H b g - b over the ideal's basis
        moved = np.abs(_adjoint(g) @ B @ g - B).max(axis=(-2, -1)).reshape(-1, 2, 2, 3).max(axis=-1)
        constant[~constant] = np.all(np.any(moved <= _tol.CENTRAL, axis=1), axis=1)
    return constant, central


def _centralizer_dim(spec: CompactGroupSpec, maps: np.ndarray) -> int:
    """Dimension of the fixed space of Ad over a checked (k, f, d, d) stack of a
    finite group's maps, summed over the f factors: the mean of the adjoint
    character (Schur orthogonality), that of Λ²V on so(n), V ⊗ V* - 1 on su(n)
    and S²V on sp(n).  InvariantViolated beyond ``_tol.CHARACTER`` of an integer."""
    t = np.einsum("...ii", maps).ravel()
    sign = {SPECIAL_ORTHOGONAL: -1, COMPACT_SYMPLECTIC: 1}.get(spec.family)
    # Λ²V and S²V read the traces of g^2, summed without a product
    mean = ((np.vdot(t, t) - t.size) / len(maps) if sign is None
            else (t @ t + sign * np.einsum("...ij,...ji", maps, maps).sum()) / (2 * len(maps)))
    if not abs(mean - round(mean.real)) <= _tol.CHARACTER:
        raise InvariantViolated(f"mean adjoint character {mean:.6g} is not an integer")
    return round(mean.real)


def _adjoint_pass(spec: CompactGroupSpec, maps: np.ndarray) -> np.ndarray:
    """One pass of Ad over a checked (k, f, d, d) stack of k maps with f
    factors each (one on a sphere, (g1, g2) on a group manifold), in blocks:
    the mean of g^H b g over the maps for each factor g and each b of
    ``algebra_basis(spec)``."""
    B = _basis_stack(spec)
    dim, d = B.shape[:2]
    wide = B.swapaxes(0, 1).reshape(d, dim * d)  # [b_1 | b_2 | ...]: all g^H b in one product
    total = 0.0
    for s in _blocks(len(maps), maps.shape[1] * B.size):
        g = maps[s, :, None]
        conj = (_adjoint(g) @ wide).reshape(g.shape[:2] + (d, dim, d)).swapaxes(-3, -2) @ g
        total = total + np.sum(conj, axis=0)
        del conj  # before the next block's products
    return total / len(maps)


@lru_cache(maxsize=None)
def _range_points(spec: CompactGroupSpec) -> np.ndarray:
    """The identity and the turns exp(pi/2 b), b in ``algebra_basis(spec)``,
    as one (1 + dim, d, d) stack: the points at which ``_translation_ranges``
    reads the largest displacement; read-only."""
    turns = [group_exp(0.5 * np.pi * b) for b in algebra_basis(spec)]
    return _readonly(np.stack([spec.identity()] + turns))


def _translation_ranges(spec: CompactGroupSpec, pairs: np.ndarray, inverted: np.ndarray):
    """Least and greatest displacement of each map of a checked (k, 2, d, d)
    pair stack, as two arrays.  The least is the closed form of
    ``min_displacement``, one class distance for the whole stack; the
    greatest is the largest displacement at the points of ``_range_points``,
    in blocks per kind of map, and never below the least.  Both are attained,
    so hi - lo is a lower bound on the spread, zero for a constant map."""
    lo = np.where(inverted, 0.0, _class_distance(spec, pairs[:, 0], pairs[:, 1]))
    hi = np.empty_like(lo)
    points = _range_points(spec)
    for flag in (False, True):
        kind = np.nonzero(inverted == flag)[0]
        for s in _blocks(len(kind), points.size):
            sel = kind[s]
            iso = TwoSidedIsometry(pairs[sel, 0, None], pairs[sel, 1, None], flag)
            hi[sel] = np.max(_displacement(spec, iso, points), axis=-1)
    return lo, np.maximum(hi, lo)


def min_displacement(spec: CompactGroupSpec, iso: TwoSidedIsometry) -> float:
    """The least displacement of ``iso`` over the group, in closed form.

    For x -> g1^{-1} x g2 it is the distance between the conjugacy classes of
    g1 and g2.  x -> g1 x^{-1} g2 fixes x = y g2 for every square root y of
    g1 g2^{-1}, and exp is onto a compact connected group, so such a y exists
    and the value is exactly zero.
    """
    g1, g2 = check_in_group(spec, [iso.g1, iso.g2])
    return 0.0 if iso.inverted else float(_class_distance(spec, g1, g2))
