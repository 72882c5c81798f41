"""Displacement analysis on the model spaces of constant curvature.

Spheres are decided by eigen-angles, the |arg λ| of each eigenvalue λ of g,
from one ``eigvals`` call per stack.  One kernel, ``_clifford``, reads their
least and greatest, the exact range [lo, hi] of the displacement over the
sphere, and the constancy test: a map has constant displacement iff hi - lo
vanishes (to ``_tol.EIGEN``), and then moves every point by lo.  Freeness
reads the least eigen-angle, the angular distance from +1.  Lens group
constructors and a geodesic invariance check complete the sphere part.
Flat space and the hyperbolic plane get boundedness probes: a Euclidean
motion has bounded displacement iff its linear part is the identity, and a
hyperbolic isometry iff it is +-I; the growth over balls of given radii is
read in closed form too, so no point is sampled.

The public sphere functions take one orthogonal matrix or a (k, n, n) stack
of them, and the motion classes and functions one motion or a stack of k,
read by the same kernels; ``is_clifford_sphere`` takes one matrix only.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from . import _tol
from ._linalg import _at_identity
from .errors import (
    InvalidParameter,
    NonCoprimeExponent,
    NonOrthogonalInput,
    NonUnitPoint,
    NotClifford,
)
from .finite_groups import check_table_work


def _real(x, error) -> np.ndarray:
    """``x`` as a float array of real numbers, else ``error``: complex input is refused, not cast."""
    try:
        x = np.asarray(x)
    except ValueError:  # a ragged list
        raise error("expected an array of one shape") from None
    if x.dtype.kind not in "biuf":  # complex, or entries that are not numbers
        raise error("expected real entries")
    return x.astype(float, copy=False)


def check_orthogonal(g: np.ndarray) -> np.ndarray:
    """Return ``g`` as a float array if it is a real orthogonal matrix, or a
    non-empty stack of them along its leading axis, within ``_tol.ORTHOGONAL``;
    NonOrthogonalInput when any member fails, and on complex input."""
    g = _real(g, NonOrthogonalInput)
    if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2] or g.size == 0:
        raise NonOrthogonalInput("expected a square matrix")
    # written so that NaN entries fail too; every entry of an orthogonal matrix
    # lies in [-1, 1], so a larger one is refused before the product overflows
    if not (np.max(np.abs(g)) <= 1.0 + _tol.ORTHOGONAL
            and np.max(np.abs(np.swapaxes(g, -1, -2) @ g - np.eye(g.shape[-1]))) <= _tol.ORTHOGONAL):
        raise NonOrthogonalInput("matrix is not orthogonal")
    return g


def _orthogonal_stack(g: np.ndarray) -> np.ndarray:
    """``check_orthogonal(g)`` as a (k, n, n) stack; one matrix is k = 1."""
    g = check_orthogonal(g)
    return g.reshape((-1,) + g.shape[-2:])


def _eigen_angles(g: np.ndarray) -> np.ndarray:
    """The eigen-angles |arg λ| of an orthogonal matrix, (n,), or of each of a
    (k, n, n) stack, (k, n), from one ``eigvals`` call; a normal matrix has
    them exact to absolute round-off, near 0 and pi too."""
    return np.abs(np.angle(np.linalg.eigvals(g)))


def sphere_displacement_range(g: np.ndarray):
    """Exact least and greatest displacement of an orthogonal map over the
    unit sphere: its least and greatest eigen-angle |arg λ|.

    In the invariant planes of g, a unit x with components x_j of norm c_j
    moves by the angle arccos(sum c_j^2 cos θ_j), which runs between the
    least and the greatest θ_j and attains both in their planes.  One matrix
    gives (lo, hi) as floats, a stack two arrays.
    """
    _, _, lo, hi = _clifford(_orthogonal_stack(g))
    return (float(lo[0]), float(hi[0])) if np.ndim(g) == 2 else (lo, hi)


def _clifford(stack: np.ndarray):
    """Constancy flags, values and ranges lo, hi of an unchecked (k, n, n)
    orthogonal stack, as four (k,) arrays; a value is lo where the map is
    constant and hi - lo where it is not."""
    angles = _eigen_angles(stack)
    lo, hi = angles.min(axis=1), angles.max(axis=1)
    constant = hi - lo <= _tol.EIGEN
    return constant, np.where(constant, lo, hi - lo), lo, hi


def clifford_evidence(g: np.ndarray):
    """The flags and values of ``_clifford`` for one checked matrix or stack."""
    return _clifford(_orthogonal_stack(g))[:2]


def is_clifford_sphere(g: np.ndarray):
    """``clifford_evidence`` of one matrix as (True, angle) or (False, None);
    a stack goes to ``clifford_evidence`` itself."""
    (constant,), (angle,) = clifford_evidence([g])
    return (True, float(angle)) if constant else (False, None)


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    offender: int | None = None


def is_free_on_sphere(group) -> FreenessResult:
    """True when no non-identity element of the list fixes a point, i.e. no
    eigen-angle |arg λ| is within ``_tol.EIGEN`` of 0; the offender is the
    first such element in list order.  An element within ``_tol.CLOSURE`` of
    the identity is the identity.  Each element's least eigen-angle, lo of
    ``_clifford``, is read, exact to absolute round-off since g is normal.

    Each element is tested on its own; that the list is a group is checked
    where a deck is built (``verifier.sphere_deck``).
    """
    arr = _orthogonal_stack(group)
    fixing = np.flatnonzero((_clifford(arr)[2] <= _tol.EIGEN) & ~_at_identity(arr))
    if fixing.size:
        return FreenessResult(False, int(fixing[0]))
    return FreenessResult(True, None)


def rotation_block(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def cyclic_powers(M: np.ndarray) -> list[np.ndarray]:
    """The cyclic group generated by M: its powers I, M, M^2, ... (each the
    previous one times M) up to the first return to the identity, within
    ``_tol.CLOSURE``, in M's dtype.  InvalidParameter from
    ``check_table_work`` once the powers are too many for a Cayley table (a
    matrix with NaN entries never returns)."""
    eye = np.eye(M.shape[0], dtype=M.dtype)
    out, g = [eye], M
    while not _at_identity(g):
        out.append(g)
        check_table_work("matrix powers", len(out), M.size)
        g = g @ M
    return out


def lens_group(k: int, exponents) -> list[np.ndarray]:
    """Cyclic group of order k on S^{2r-1} generated by the block rotation
    diag(R(2 pi q_1 / k), ..., R(2 pi q_r / k)); exponents must be coprime to k."""
    if k < 2:
        raise InvalidParameter("lens construction needs k >= 2")
    exps = [int(q) for q in exponents]
    if not exps:
        raise InvalidParameter("need at least one exponent")
    for q in exps:
        if gcd(q, k) != 1:
            raise NonCoprimeExponent(f"exponent {q} shares a factor with {k}")
    r = len(exps)
    gen = np.zeros((2 * r, 2 * r))
    for i, q in enumerate(exps):
        gen[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = rotation_block(2.0 * np.pi * q / k)
    return cyclic_powers(gen)


def invariant_geodesic_check(g: np.ndarray, x: np.ndarray) -> bool:
    """Verify that a constant-displacement map slides the great circle
    sigma(t) = cos t x + sin t u through x and gx along itself, g(sigma(t)) =
    sigma(t + c), within ``_tol.GEODESIC``.  Both sides are linear in
    (cos t, sin t) and agree at t = 0 for u = (gx - cos c x) / sin c, so the
    test is t = pi/2: g u = cos c u - sin c x.

    Raises NotClifford when ``is_clifford_sphere`` fails, and rejects the
    identity (no geodesic is selected).  The antipodal map -I slides every
    great circle through x.
    """
    ok, c = is_clifford_sphere(g)
    if not ok:
        raise NotClifford("map does not have constant displacement")
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > _tol.ORTHOGONAL:
        raise NonUnitPoint("base point must lie on the unit sphere")
    if c <= _tol.ZERO:
        raise InvalidParameter("identity map selects no geodesic")
    if np.pi - c <= _tol.ZERO:
        return True
    u = (g @ x - np.cos(c) * x) / np.sin(c)
    return bool(np.max(np.abs(g @ u - (np.cos(c) * u - np.sin(c) * x))) <= _tol.GEODESIC)


# ---------------------------------------------------------------------------
# flat space


@dataclass(frozen=True, eq=False)
class EuclideanMotion:
    """x -> A x + b with A orthogonal, or a stack of k of them: a (k, n, n) A
    and a (k, n) b.  Both are stored as float arrays."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        A, b = check_orthogonal(self.rotation), _real(self.translation, InvalidParameter)
        if b.shape != A.shape[:-1] or not np.isfinite(b).all():
            raise InvalidParameter("need a finite translation of the rotation's dimension")
        vars(self).update(rotation=A, translation=b)  # the checked arrays; the class is frozen


_EUCLIDEAN_RADII = (1.0, 10.0, 100.0)  # balls of the growth evidence


def euclidean_bounded(motion: EuclideanMotion):
    """Exact verdict (bounded iff the linear part is the identity, within
    ``_tol.CLOSURE``) plus growth evidence: for each R in ``_EUCLIDEAN_RADII``
    the linear part's largest displacement over the ball of radius R,
    R sigma_max(A - I) = 2 R sin(theta_max / 2), theta_max the greatest
    eigen-angle of A.  The translation b moves each value by at most |b|.
    One motion gives (bool, list), a stack of k (k,) and (k, 3) arrays."""
    A = motion.rotation
    bounded = _at_identity(A)
    growth = 2.0 * np.multiply.outer(np.sin(_eigen_angles(A).max(axis=-1) / 2.0), _EUCLIDEAN_RADII)
    return (bool(bounded), growth.tolist()) if A.ndim == 2 else (bounded, growth)


# ---------------------------------------------------------------------------
# hyperbolic plane (upper half-plane model)


_HYPERBOLIC_RADII = (1.0, 2.0, 4.0, 8.0)  # radii of the balls around i, ascending


@dataclass(frozen=True, eq=False)
class HyperbolicMotion:
    """Moebius action of a real 2x2 matrix of determinant 1, or of each of a
    (k, 2, 2) stack of them; stored as a float array."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _real(self.matrix, InvalidParameter)
        # finiteness before det, which warns on NaN entries
        if (m.ndim not in (2, 3) or m.shape[-2:] != (2, 2) or m.size == 0 or not np.isfinite(m).all()
                or np.any(np.abs(np.linalg.det(m) - 1) > _tol.ZERO)):
            raise InvalidParameter("need a real 2x2 matrix with det 1")
        vars(self).update(matrix=m)


def hyperbolic_bounded_probe(motion: HyperbolicMotion):
    """Exact verdict (bounded iff the matrix is +-I, within ``_tol.CLOSURE``)
    plus the exact sup D(R) of the displacement over the ball about i of each
    radius R in ``_HYPERBOLIC_RADII``: (bool, list) for one motion, (k,) and
    (k, 4) arrays for a stack of k.

    Write m = alpha I + beta J + S, J = [[0, 1], [-1, 0]] and S symmetric
    traceless with |S|_F = sqrt(2) rho, so det m = alpha^2 + beta^2 - rho^2.
    A point at distance R from i is k a i, with k a rotation about i and
    a = diag(e^(R/2), e^(-R/2)), and 2 cosh d(z, m z) = |a^-1 k^-1 m k a|_F^2.
    Conjugation by k fixes alpha and beta and turns S by an angle psi; the
    norm is a convex quadratic in sin psi, largest at sin psi = +-1:

        cosh D(R) = alpha^2 + (beta^2 + rho^2) cosh 2R + 2 |beta| rho sinh 2R,

    that is sinh(D(R) / 2) = |beta| sinh R + rho cosh R at det m = 1, the form
    read here, exact to relative round-off near +-I too.  D is 0.0 for +-I and
    otherwise strictly increases in R, so the circle of radius R attains it.
    """
    m = motion.matrix
    bounded = _at_identity(m) | _at_identity(-m)
    beta = np.abs(m[..., 0, 1] - m[..., 1, 0])[..., None] / 2.0
    rho = np.hypot((m[..., 0, 0] - m[..., 1, 1]) / 2.0, (m[..., 0, 1] + m[..., 1, 0]) / 2.0)[..., None]
    sups = 2.0 * np.arcsinh(beta * np.sinh(_HYPERBOLIC_RADII) + rho * np.cosh(_HYPERBOLIC_RADII))
    return (bool(bounded), sups.tolist()) if m.ndim == 2 else (bounded, sups)
