"""Displacement analysis on the model spaces of constant curvature.

Spheres get the exact eigen-angle test for constant displacement (the
symmetric part of an orthogonal map is a scalar matrix iff the displacement
arccos<x, gx> is the same at every point), a sampling oracle for
cross-checking, freeness tests, lens group constructors, and a geodesic
invariance check.  Flat space and the hyperbolic plane get boundedness
probes: a Euclidean motion has bounded displacement iff its linear part is
the identity, and a hyperbolic isometry iff it is +-I.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import (
    InvalidParameter,
    NonCoprimeExponent,
    NonOrthogonalInput,
    NonUnitPoint,
    NotClifford,
)
from .finite_groups import cayley_table
from .profiles import DisplacementProfile

_ORTHO_TOL = 1e-10


def check_orthogonal(g: np.ndarray, tol: float = _ORTHO_TOL) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise NonOrthogonalInput("expected a square matrix")
    if np.max(np.abs(g.T @ g - np.eye(g.shape[0]))) > tol:
        raise NonOrthogonalInput("matrix is not orthogonal")
    return g


def haar_sphere(n_ambient: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points on S^{n_ambient-1} via normalized Gaussians; rows are points."""
    x = rng.standard_normal((samples, n_ambient))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def sphere_displacement(g: np.ndarray, x: np.ndarray, tol: float = 1e-10) -> float:
    """Geodesic displacement arccos<x, gx> of an orthogonal map at a unit point."""
    g = check_orthogonal(g)
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > tol:
        raise NonUnitPoint("point must lie on the unit sphere")
    return float(np.arccos(np.clip(x @ (g @ x), -1.0, 1.0)))


def sphere_displacement_profile(
    g: np.ndarray, samples: int, rng: np.random.Generator
) -> DisplacementProfile:
    """Sampling oracle: displacement statistics over Haar points on the sphere."""
    g = check_orthogonal(g)
    pts = haar_sphere(g.shape[0], samples, rng)
    vals = np.arccos(np.clip(np.einsum("si,si->s", pts, pts @ g.T), -1.0, 1.0))
    return DisplacementProfile.from_values(vals)


def is_clifford_sphere(g: np.ndarray, tol: float = 1e-9):
    """Exact constant-displacement test on the sphere.

    Returns (True, angle) when the symmetric part (g + g^T)/2 equals c*I
    entrywise within tol (the displacement is then arccos(c) everywhere),
    otherwise (False, None).
    """
    g = check_orthogonal(g)
    n = g.shape[0]
    c = float(np.trace(g)) / n
    sym = (g + g.T) / 2.0
    if np.max(np.abs(sym - c * np.eye(n))) <= tol:
        return True, float(np.arccos(np.clip(c, -1.0, 1.0)))
    return False, None


@dataclass(frozen=True)
class FreenessResult:
    free: bool
    offender: int | None = None


def is_free_on_sphere(group, tol: float = 1e-9, *, table=None) -> FreenessResult:
    """True when no non-identity element of the (closed) list fixes a point,
    i.e. no eigenvalue lies within tol of +1; the offender is the first such
    element in list order.

    Closure is checked by building the Cayley table at ``tol`` (NotClosed when
    a product is missing) unless the caller passes the list's ``table``.
    """
    arr = np.stack([check_orthogonal(g) for g in group])
    if table is None:
        cayley_table(arr, tol)
    n = arr.shape[1]
    moving = np.nonzero(np.max(np.abs(arr - np.eye(n)), axis=(1, 2)) > tol)[0]
    if moving.size:
        ev = np.linalg.eigvals(arr[moving])
        fixing = moving[np.min(np.abs(ev - 1.0), axis=1) <= tol]
        if fixing.size:
            return FreenessResult(False, int(fixing[0]))
    return FreenessResult(True, None)


def rotation_block(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


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
    out = [np.eye(2 * r)]
    for _ in range(k - 1):
        out.append(out[-1] @ gen)
    return out


def invariant_geodesic_check(
    g: np.ndarray, x: np.ndarray, grid: int = 100, tol: float = 1e-8
) -> bool:
    """Verify that a constant-displacement map slides the great circle through
    x and gx along itself: g(sigma(t)) = sigma(t + c) on a full period.

    Raises NotClifford when the eigen-angle pre-test fails, and rejects the
    identity (no geodesic is selected).  The antipodal case uses the great
    circle through x and the first coordinate axis not parallel to x.
    """
    ok, angle = is_clifford_sphere(g)
    if not ok:
        raise NotClifford("map does not have constant displacement")
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise NonUnitPoint("base point must lie on the unit sphere")
    c = angle
    if c <= 1e-12:
        raise InvalidParameter("identity map selects no geodesic")
    if np.pi - c <= 1e-12:
        # antipodal: any great circle through x works
        u = None
        for axis in np.eye(len(x)):
            v = axis - (axis @ x) * x
            if np.linalg.norm(v) > 1e-8:
                u = v / np.linalg.norm(v)
                break
    else:
        u = (g @ x - np.cos(c) * x) / np.sin(c)
    ts = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    sigma = np.outer(np.cos(ts), x) + np.outer(np.sin(ts), u)
    shifted = np.outer(np.cos(ts + c), x) + np.outer(np.sin(ts + c), u)
    return bool(np.max(np.abs(sigma @ g.T - shifted)) <= tol)


# ---------------------------------------------------------------------------
# flat space


@dataclass(frozen=True)
class EuclideanMotion:
    """x -> A x + b with A orthogonal."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        check_orthogonal(self.rotation)
        if self.translation.shape != (self.rotation.shape[0],):
            raise InvalidParameter("translation dimension mismatch")

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.rotation @ x + self.translation

    def displacement(self, x: np.ndarray) -> float:
        return float(np.linalg.norm(self.apply(x) - x))


def euclidean_bounded(motion: EuclideanMotion, radii=(1.0, 10.0, 100.0)):
    """Exact verdict (bounded iff the linear part is the identity to 1e-10)
    plus growth evidence: the max displacement over the sphere of each radius.

    The per-radius maximum of |(A - I) x + b| is evaluated on the singular
    directions of A - I and the coordinate axes, which attains the exact value
    R * sigma_max(A - I) in the homogeneous case.
    """
    A = motion.rotation
    b = motion.translation
    n = A.shape[0]
    bounded = bool(np.max(np.abs(A - np.eye(n))) <= 1e-10)
    M = A - np.eye(n)
    _, _, vh = np.linalg.svd(M)
    dirs = [v for v in vh] + [e for e in np.eye(n)]
    if np.linalg.norm(b) > 0:
        dirs.append(b / np.linalg.norm(b))
    dirs = np.array(dirs)
    evidence = []
    for R in radii:
        cand = np.concatenate([R * dirs, -R * dirs])
        disp = np.linalg.norm(cand @ M.T + b, axis=1)
        evidence.append(float(np.max(disp)))
    return bounded, evidence


# ---------------------------------------------------------------------------
# hyperbolic plane (upper half-plane model)


@dataclass(frozen=True)
class HyperbolicMotion:
    """Moebius action of a real 2x2 matrix of determinant 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2) or abs(np.linalg.det(m) - 1.0) > 1e-12:
            raise InvalidParameter("need a real 2x2 matrix with det 1")

    def apply(self, z: complex) -> complex:
        a, b = self.matrix[0]
        c, d = self.matrix[1]
        return (a * z + b) / (c * z + d)

    def displacement(self, z: complex) -> float:
        """Hyperbolic distance d(z, mz) via
        cosh d = 1 + |z - mz|^2 / (2 Im z Im mz)."""
        w = self.apply(z)
        arg = 1.0 + abs(z - w) ** 2 / (2.0 * z.imag * w.imag)
        return float(np.arccosh(max(arg, 1.0)))


def _hyperbolic_ball_points(radius: float, angles: int) -> np.ndarray:
    """Points at hyperbolic distance ``radius`` from i, via the disk model."""
    theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    w = np.tanh(radius / 2.0) * np.exp(1j * theta)
    return 1j * (1.0 + w) / (1.0 - w)


def hyperbolic_bounded_probe(motion: HyperbolicMotion, radii=(1.0, 2.0, 4.0, 8.0), angles: int = 64):
    """Exact verdict (bounded iff the matrix is +-I) plus the sampled sup of
    the displacement over nested hyperbolic balls around i."""
    m = motion.matrix
    bounded = bool(
        np.max(np.abs(m - np.eye(2))) <= 1e-10 or np.max(np.abs(m + np.eye(2))) <= 1e-10
    )
    sups = []
    best = motion.displacement(1j)
    for R in sorted(radii):
        pts = _hyperbolic_ball_points(R, angles)
        best = max(best, max(motion.displacement(complex(z)) for z in pts))
        sups.append(float(best))
    return bounded, sups
