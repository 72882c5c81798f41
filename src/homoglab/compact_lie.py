"""Compact matrix groups: Haar sampling, bi-invariant geometry, two-sided
translation isometries.

Supported families are SU(n) (n >= 2), SO(n) (n >= 3) and the compact
symplectic group Sp(n) (n >= 2), the latter realized as the unitary 2n x 2n
matrices commuting with the quaternionic structure map v -> J conj(v).

The bi-invariant distance is d(g, h) = min ||X|| over logs exp(X) = g^{-1} h
with ||X||^2 = -trace(X^2) in the defining representation.  The branch search
shifts eigen-angles by {-1, 0, +1} full turns, subject to the trace-zero
constraint in the special unitary case; that window is exhaustive at the
matrix sizes supported here.  Scale note: -trace(XY) is the negative Killing
form divided by 2n for su(n), by n-2 for so(n) and by 2n+2 for sp(n).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg

from ._linalg import gram_schmidt, trace_inner, trace_norm
from .errors import InvalidParameter, InvariantViolated, NotInGroup
from .profiles import DisplacementProfile

SPECIAL_UNITARY = "SU"
SPECIAL_ORTHOGONAL = "SO"
COMPACT_SYMPLECTIC = "Sp"

_GROUP_TOL = 1e-8


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


def check_in_group(spec: CompactGroupSpec, g: np.ndarray, tol: float = _GROUP_TOL) -> np.ndarray:
    """Return ``g`` as an array if it is an element of the group, or a stack of
    elements along its leading axis; NotInGroup when any member fails."""
    d = spec.matrix_size
    try:
        g = np.asarray(g)
    except ValueError:  # a ragged list of matrices
        raise NotInGroup(f"expected {d}x{d} matrices for {spec.name}") from None
    if g.ndim not in (2, 3) or g.shape[-2:] != (d, d):
        raise NotInGroup(f"expected a {d}x{d} matrix for {spec.name}")
    # written so that NaN entries fail; a NaN or inf entry spreads into the product
    if not np.max(np.abs(_adjoint(g) @ g - np.eye(d))) <= tol:
        raise NotInGroup("matrix is not unitary")
    if spec.family == SPECIAL_UNITARY:
        if np.max(np.abs(np.linalg.det(g) - 1.0)) > 10 * tol:
            raise NotInGroup("determinant is not 1")
    elif spec.family == SPECIAL_ORTHOGONAL:
        if np.iscomplexobj(g) and np.max(np.abs(g.imag)) > tol:
            raise NotInGroup("matrix is not real")
        if np.any(np.linalg.det(g.real) < 0):
            raise NotInGroup("determinant is not +1")
    else:
        J = symplectic_structure(spec.n)
        if np.max(np.abs(g @ J - J @ g.conj())) > tol:
            raise NotInGroup("matrix does not commute with the quaternionic structure")
    return g


def check_in_algebra(spec: CompactGroupSpec, X: np.ndarray, tol: float = _GROUP_TOL) -> np.ndarray:
    X = np.asarray(X)
    d = spec.matrix_size
    if X.shape != (d, d):
        raise InvalidParameter(f"expected a {d}x{d} matrix for the {spec.name} algebra")
    if np.max(np.abs(X.conj().T + X)) > tol:
        raise InvalidParameter("matrix is not skew-hermitian")
    if spec.family == SPECIAL_UNITARY and abs(np.trace(X)) > tol:
        raise InvalidParameter("matrix is not traceless")
    if spec.family == SPECIAL_ORTHOGONAL and np.iscomplexobj(X) and np.max(np.abs(X.imag)) > tol:
        raise InvalidParameter("matrix is not real")
    if spec.family == COMPACT_SYMPLECTIC:
        J = symplectic_structure(spec.n)
        if np.max(np.abs(X @ J - J @ X.conj())) > tol:
            raise InvalidParameter("matrix is not quaternionic")
    return X


# ---------------------------------------------------------------------------
# Haar sampling
#
# Every sampler maps one Gaussian array to a stack of matrices along its
# leading axis.  A stack of S is drawn as one (S, ...) normal array, which
# consumes the generator exactly as S single draws do, so a seed gives the
# same points whatever the stack size.

# largest stack drawn at once; longer runs go in blocks of this many
_SAMPLE_BLOCK = 4096


def _adjoint(g: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return g.conj().swapaxes(-1, -2)


def haar_unitary(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar on U(n): one matrix, or a (size, n, n) stack."""
    z = rng.standard_normal((1 if size is None else size, 2, n, n))
    z = (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q = q * (d / np.abs(d))[:, None, :]
    return q[0] if size is None else q


def haar_orthogonal(n: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar on the full orthogonal group O(n), both components: one matrix, or
    a (size, n, n) stack."""
    z = rng.standard_normal((1 if size is None else size, n, n))
    q, r = np.linalg.qr(z)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return q[0] if size is None else q


def _quaternion_pair_mul(a1, b1, a2, b2):
    # (a1 + j b1)(a2 + j b2) componentwise
    return a1 * a2 - np.conj(b1) * b2, b1 * a2 + np.conj(a1) * b2


def _haar_symplectic(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    # Gram-Schmidt over the quaternions on Gaussian columns, then embed; the
    # columns are kept as rows (axis 1) so each inner product sums a last axis
    z = rng.standard_normal((size, 4, n, n))
    A = z[:, 0] + 1j * z[:, 1]
    B = z[:, 2] + 1j * z[:, 3]
    QA = np.zeros_like(A)
    QB = np.zeros_like(B)
    for j in range(n):
        va, vb = A[:, :, j].copy(), B[:, :, j].copy()
        for _ in range(2):  # reorthogonalize once for stability
            for k in range(j):
                ea, eb = QA[:, k], QB[:, k]
                # quaternionic <e, v> = sum conj(e_i) v_i
                s1 = np.sum(np.conj(ea) * va + np.conj(eb) * vb, axis=-1)[:, None]
                s2 = np.sum(ea * vb - eb * va, axis=-1)[:, None]
                pa, pb = _quaternion_pair_mul(ea, eb, s1, s2)
                va, vb = va - pa, vb - pb
        nrm = np.sqrt(np.sum(np.abs(va) ** 2 + np.abs(vb) ** 2, axis=-1))[:, None]
        QA[:, j], QB[:, j] = va / nrm, vb / nrm
    QA, QB = np.swapaxes(QA, 1, 2), np.swapaxes(QB, 1, 2)
    top = np.concatenate([QA, -np.conj(QB)], axis=2)
    bot = np.concatenate([QB, np.conj(QA)], axis=2)
    return np.concatenate([top, bot], axis=1)


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
    if size is None:
        return _haar_block(spec, rng, 1)[0]
    if size < 1:
        raise InvalidParameter("need at least one sample")
    if size <= _SAMPLE_BLOCK:
        return _haar_block(spec, rng, size)
    return np.concatenate(list(_haar_blocks(spec, rng, size)))


def _haar_blocks(spec: CompactGroupSpec, rng: np.random.Generator, size: int):
    """``haar_sample(spec, rng, size)`` as consecutive stacks of at most
    ``_SAMPLE_BLOCK`` elements, so a long profile holds one block at a time."""
    for start in range(0, size, _SAMPLE_BLOCK):
        yield haar_sample(spec, rng, min(_SAMPLE_BLOCK, size - start))


# ---------------------------------------------------------------------------
# Lie algebra bases


@lru_cache(maxsize=None)
def algebra_basis(spec: CompactGroupSpec) -> tuple[np.ndarray, ...]:
    """Orthonormal basis w.r.t. <X, Y> = -trace(XY)."""
    n = spec.n
    raw = []
    if spec.family == SPECIAL_ORTHOGONAL:
        for a in range(n):
            for b in range(a + 1, n):
                E = np.zeros((n, n))
                E[a, b], E[b, a] = 1.0, -1.0
                raw.append(E)
    elif spec.family == SPECIAL_UNITARY:
        for a in range(n):
            for b in range(a + 1, n):
                E = np.zeros((n, n), dtype=complex)
                E[a, b], E[b, a] = 1.0, -1.0
                raw.append(E)
                F = np.zeros((n, n), dtype=complex)
                F[a, b] = F[b, a] = 1j
                raw.append(F)
        for k in range(n - 1):
            D = np.zeros((n, n), dtype=complex)
            D[k, k], D[k + 1, k + 1] = 1j, -1j
            raw.append(D)
    else:
        def embed(A, B):
            top = np.hstack([A, -np.conj(B)])
            bot = np.hstack([B, np.conj(A)])
            return np.vstack([top, bot])

        zero = np.zeros((n, n), dtype=complex)
        for a in range(n):
            for b in range(a + 1, n):
                E = np.zeros((n, n), dtype=complex)
                E[a, b], E[b, a] = 1.0, -1.0
                raw.append(embed(E, zero))
                F = np.zeros((n, n), dtype=complex)
                F[a, b] = F[b, a] = 1j
                raw.append(embed(F, zero))
        for k in range(n):
            D = np.zeros((n, n), dtype=complex)
            D[k, k] = 1j
            raw.append(embed(D, zero))
        sym = []
        for a in range(n):
            for b in range(a, n):
                S = np.zeros((n, n), dtype=complex)
                S[a, b] = S[b, a] = 1.0
                sym.append(S)
                T = np.zeros((n, n), dtype=complex)
                T[a, b] = T[b, a] = 1j
                sym.append(T)
        for S in sym:
            raw.append(embed(zero, S))
    basis = gram_schmidt(raw, trace_inner)
    if len(basis) != spec.algebra_dim:
        raise InvariantViolated(
            f"basis construction for {spec.name} gave {len(basis)} elements, "
            f"expected {spec.algebra_dim}"
        )
    return tuple(basis)


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
    return scipy.linalg.expm(np.asarray(X))


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
# logs, angles, distance


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
    lam = np.linalg.eigvals(u)
    theta = np.angle(lam)
    if spec.family == SPECIAL_UNITARY:
        theta = _branch_shift_su(theta)
    # orthogonal / symplectic eigenvalues pair as conjugates; the principal
    # angles already minimize the norm branch by branch
    return theta


def biinvariant_distance(
    spec: CompactGroupSpec, g: np.ndarray, h: np.ndarray, validate: bool = True
) -> float:
    """Bi-invariant geodesic distance d(g, h) = ||log(g^{-1} h)||, -tr(X^2) norm."""
    if validate:
        check_in_group(spec, g)
        check_in_group(spec, h)
    u = np.asarray(g).conj().T @ np.asarray(h)
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
    """Torus angles of g's conjugacy class, in a closed fundamental alcove.

    SU(n): the minimal traceless lift of the eigen-angles, sorted descending.
    SO and Sp: one angle in [0, pi] per rotation plane, sorted descending; on
    SO(2m) the last angle carries the orientation, the sign of
    (-1)^m Pf(g - g^T), which separates the two SO(2m) classes inside one
    O(2m) class when g has no eigenvalue +-1.
    """
    theta = np.angle(np.linalg.eigvals(g))
    if spec.family == SPECIAL_UNITARY:
        return np.sort(_branch_shift_su(theta))[::-1]
    planes = spec.matrix_size // 2
    # eigenvalues pair as exp(+-i phi); SO(2m+1) adds one eigenvalue 1 (phi = 0)
    phi = np.sort(np.abs(theta))[::-1][: 2 * planes].reshape(planes, 2).mean(axis=1)
    if spec.family == SPECIAL_ORTHOGONAL and spec.n % 2 == 0:
        g = np.real(g)
        if (-1) ** planes * _pfaffian(g - g.T) < 0.0:
            phi[-1] = -phi[-1]
    return phi


def conjugacy_class_distance(spec: CompactGroupSpec, a: np.ndarray, b: np.ndarray) -> float:
    """Bi-invariant distance between the conjugacy classes of a and b.

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
    x = _alcove_point(spec, check_in_group(spec, a))
    y = _alcove_point(spec, check_in_group(spec, b))
    d = np.linalg.norm(x - y)
    if spec.family == SPECIAL_UNITARY:
        return float(d)
    if spec.family == SPECIAL_ORTHOGONAL and spec.n % 2 == 0:
        y_shift = y.copy()
        y_shift[0], y_shift[-1] = 2.0 * np.pi - y[0], -y[-1]
        d = min(d, np.linalg.norm(x - y_shift))
    # each rotation plane appears twice in the defining representation
    return float(np.sqrt(2.0) * d)


def _log_special_orthogonal(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    T, Z = scipy.linalg.schur(u, output="real")
    M = np.zeros((n, n))
    minus_one = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 1e-12:
            phi = float(np.arctan2(T[i + 1, i], T[i, i]))
            M[i, i + 1] = -phi
            M[i + 1, i] = phi
            i += 2
        else:
            if T[i, i] < 0.0:
                minus_one.append(i)
            i += 1
    if len(minus_one) % 2 != 0:
        raise NotInGroup("odd count of -1 eigenvalues; matrix not in SO(n)")
    for a, b in zip(minus_one[::2], minus_one[1::2]):
        M[a, b] = -np.pi
        M[b, a] = np.pi
    return Z @ M @ Z.T


def _log_symplectic(spec: CompactGroupSpec, u: np.ndarray) -> np.ndarray:
    T, Z = scipy.linalg.schur(u.astype(complex), output="complex")
    d = np.diagonal(T)
    theta = np.angle(d)
    near_minus = np.abs(d + 1.0) < 1e-8
    X = (Z * (1j * np.where(near_minus, 0.0, theta))) @ Z.conj().T
    if np.any(near_minus):
        J = symplectic_structure(spec.n)
        W = Z[:, near_minus]
        cols = [W[:, k] for k in range(W.shape[1])]
        while cols:
            v = cols.pop(0)
            v = v / np.linalg.norm(v)
            v2 = J @ np.conj(v)
            # v2 lies in the -1 eigenspace and is orthogonal to v
            for w in (v,):
                v2 = v2 - (w.conj() @ v2) * w
            v2 = v2 / np.linalg.norm(v2)
            X = X + 1j * np.pi * (np.outer(v, v.conj()) - np.outer(v2, v2.conj()))
            cols = [
                c - (v.conj() @ c) * v - (v2.conj() @ c) * v2 for c in cols
            ]
            cols = [c for c in cols if np.linalg.norm(c) > 1e-8]
    return X


def group_log(spec: CompactGroupSpec, g: np.ndarray) -> np.ndarray:
    """Minimal-norm logarithm of g inside the group's Lie algebra."""
    check_in_group(spec, g)
    if spec.family == SPECIAL_ORTHOGONAL:
        g = np.asarray(g)
        return _log_special_orthogonal(g.real if np.iscomplexobj(g) else g.astype(float, copy=False))
    if spec.family == COMPACT_SYMPLECTIC:
        return _log_symplectic(spec, np.asarray(g))
    T, Z = scipy.linalg.schur(np.asarray(g, dtype=complex), output="complex")
    theta = _branch_shift_su(np.angle(np.diagonal(T)))
    return (Z * (1j * theta)) @ Z.conj().T


def center_elements(spec: CompactGroupSpec) -> list[np.ndarray]:
    d = spec.matrix_size
    if spec.family == SPECIAL_UNITARY:
        return [np.exp(2j * np.pi * k / spec.n) * np.eye(d) for k in range(spec.n)]
    if spec.family == SPECIAL_ORTHOGONAL:
        return [np.eye(d), -np.eye(d)] if spec.n % 2 == 0 else [np.eye(d)]
    return [np.eye(d), -np.eye(d)]


def is_central(spec: CompactGroupSpec, g: np.ndarray, tol: float = 1e-7) -> bool:
    g = np.asarray(g)
    return any(np.max(np.abs(g - z)) <= tol for z in center_elements(spec))


# ---------------------------------------------------------------------------
# two-sided translation isometries


@dataclass(frozen=True)
class TwoSidedIsometry:
    """x -> g1^{-1} x g2, or x -> g1 x^{-1} g2 when ``inverted``."""

    g1: np.ndarray
    g2: np.ndarray
    inverted: bool = False

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Image of the point x, or of each point of a stack x."""
        if self.inverted:
            return self.g1 @ _adjoint(x) @ self.g2
        return self.g1.conj().T @ x @ self.g2


def compose(first: TwoSidedIsometry, then: TwoSidedIsometry) -> TwoSidedIsometry:
    """The isometry 'apply ``first``, then ``then``'; translation pairs only."""
    if first.inverted or then.inverted:
        raise InvalidParameter("composition is provided for translation pairs only")
    return TwoSidedIsometry(first.g1 @ then.g1, first.g2 @ then.g2)


def isometry_inverse(iso: TwoSidedIsometry) -> TwoSidedIsometry:
    if iso.inverted:
        raise InvalidParameter("inverse is provided for translation pairs only")
    return TwoSidedIsometry(iso.g1.conj().T, iso.g2.conj().T)


def is_identity_isometry(
    spec: CompactGroupSpec, iso: TwoSidedIsometry, tol: float = 1e-7
) -> bool:
    """x -> g1^{-1} x g2 is the identity map iff g1 = g2 = same central element."""
    if iso.inverted:
        return False
    for z in center_elements(spec):
        if np.max(np.abs(iso.g1 - z)) <= tol and np.max(np.abs(iso.g2 - z)) <= tol:
            return True
    return False


def translation_displacement(
    spec: CompactGroupSpec, iso: TwoSidedIsometry, x: np.ndarray, validate: bool = True
):
    """Displacement d(x, iso(x)) in the bi-invariant metric: a float for one
    point, an array for a stack of points."""
    if validate:
        check_in_group(spec, iso.g1)
        check_in_group(spec, iso.g2)
        check_in_group(spec, x)
    x = np.asarray(x)
    u = _adjoint(x) @ iso.apply(x)
    theta = minimal_angles(spec, u)
    dist = np.sqrt(np.sum(theta**2, axis=-1))
    return float(dist) if dist.ndim == 0 else dist


def group_displacement_profile(
    spec: CompactGroupSpec,
    iso: TwoSidedIsometry,
    samples: int,
    rng: np.random.Generator,
) -> DisplacementProfile:
    if samples < 1:
        raise InvalidParameter("need at least one sample")
    vals = [
        translation_displacement(spec, iso, x, validate=False)
        for x in _haar_blocks(spec, rng, samples)
    ]
    return DisplacementProfile.from_values(np.concatenate(vals))


@dataclass(frozen=True)
class CentralityCheck:
    g1_central: bool
    g2_central: bool
    predicts_constant: bool
    agrees_with_sampling: bool


@dataclass(frozen=True)
class ConstancyResult:
    constant: bool
    profile: DisplacementProfile
    centrality: CentralityCheck


def is_constant_displacement_translation(
    spec: CompactGroupSpec,
    iso: TwoSidedIsometry,
    tol: float = 1e-7,
    samples: int = 200,
    rng: np.random.Generator | None = None,
) -> ConstancyResult:
    """Sampled constancy verdict with the centrality cross-check.

    For translation pairs the criterion "g1 or g2 central" predicts constant
    displacement; the prediction is exact for the simple families.  (On SO(4),
    which is not simple, pairs aligned with the two local factors can be
    constant with neither member central; Haar-random pairs never are.)
    Inverted isometries always have fixed points, so a non-identity one is
    predicted non-constant.
    """
    if samples < 10:
        raise InvalidParameter("constancy sampling needs samples >= 10")
    if tol <= 0:
        raise InvalidParameter("tolerance must be positive")
    rng = rng if rng is not None else np.random.default_rng()
    check_in_group(spec, iso.g1)
    check_in_group(spec, iso.g2)
    profile = group_displacement_profile(spec, iso, samples, rng)
    constant = profile.gap <= tol
    g1c = is_central(spec, iso.g1, tol=max(tol, 1e-7))
    g2c = is_central(spec, iso.g2, tol=max(tol, 1e-7))
    predicted = (g1c or g2c) if not iso.inverted else is_identity_isometry(spec, iso)
    return ConstancyResult(
        constant=constant,
        profile=profile,
        centrality=CentralityCheck(
            g1_central=g1c,
            g2_central=g2c,
            predicts_constant=predicted,
            agrees_with_sampling=predicted == constant,
        ),
    )


def min_displacement(
    spec: CompactGroupSpec,
    iso: TwoSidedIsometry,
    multistarts: int = 8,
    refine_steps: int = 150,
    rng: np.random.Generator | None = None,
):
    """Estimate min over the group of the displacement of ``iso``, from above.
    For translation pairs ``conjugacy_class_distance`` gives the exact value.

    Haar multistarts followed by derivative-free descent: at each iteration a
    fresh set of random one-parameter directions is probed at +-step and the
    step is halved when none improves.  Returns (value, argmin).
    """
    rng = rng if rng is not None else np.random.default_rng()
    check_in_group(spec, iso.g1)
    check_in_group(spec, iso.g2)
    dim = spec.algebra_dim
    best_val, best_x = np.inf, None
    for _ in range(max(1, multistarts)):
        x = haar_sample(spec, rng)
        val = translation_displacement(spec, iso, x, validate=False)
        step = 0.5
        for _ in range(refine_steps):
            improved = False
            for _ in range(dim):
                flow = one_parameter(random_algebra_element(spec, rng, unit=True))
                for sgn in (1.0, -1.0):
                    cand = x @ flow(sgn * step)
                    v = translation_displacement(spec, iso, cand, validate=False)
                    if v < val - 1e-15:
                        x, val, improved = cand, v, True
            if not improved:
                step *= 0.5
                if step < 1e-9:
                    break
        if val < best_val:
            best_val, best_x = val, x
    return float(best_val), best_x
