"""Displacement analysis on the model spaces of constant curvature.

Spheres get the exact eigen-angle test for constant displacement (the
symmetric part of an orthogonal map is a scalar matrix iff the displacement
arccos<x, gx> is the same at every point), a sampling oracle for
cross-checking, freeness tests, lens group constructors, and a geodesic
invariance check.  Flat space and the hyperbolic plane get boundedness
probes: a Euclidean motion has bounded displacement iff its linear part is
the identity, and a hyperbolic isometry iff it is +-I.

The sphere kernels take one orthogonal matrix or a (k, n, n) stack of them; a
single matrix is evaluated as a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .compact_lie import _SAMPLE_BLOCK
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
    """Return ``g`` as a float array if it is an orthogonal matrix, or a
    non-empty stack of them along its leading axis; NonOrthogonalInput when
    any member fails."""
    try:
        g = np.asarray(g, dtype=float)
    except ValueError:  # a ragged list of matrices
        raise NonOrthogonalInput("expected square matrices of one size") from None
    if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2] or g.size == 0:
        raise NonOrthogonalInput("expected a square matrix")
    # written so that NaN entries fail too
    if not np.max(np.abs(np.swapaxes(g, -1, -2) @ g - np.eye(g.shape[-1]))) <= tol:
        raise NonOrthogonalInput("matrix is not orthogonal")
    return g


def _orthogonal_stack(g: np.ndarray) -> np.ndarray:
    """``check_orthogonal(g)`` as a (k, n, n) stack; one matrix is k = 1."""
    g = check_orthogonal(g)
    return g.reshape((-1,) + g.shape[-2:])


def haar_sphere(
    n_ambient: int, samples: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Uniform points on S^{n_ambient-1} via normalized Gaussians: a
    (samples, n_ambient) array of rows, or a (size, samples, n_ambient) stack
    of them, the same points as ``size`` single draws."""
    shape = (samples, n_ambient) if size is None else (size, samples, n_ambient)
    x = rng.standard_normal(shape)
    return x / np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]


def _angles(x: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """Angles between the unit rows of two (k, s, n) stacks by Kahan's
    2 atan2(|x - gx|, |x + gx|), accurate to round-off near 0 and pi, where
    arccos<x, gx> loses half its digits."""
    d, s = x - gx, x + gx
    return 2.0 * np.arctan2(
        np.sqrt(np.einsum("ksi,ksi->ks", d, d)), np.sqrt(np.einsum("ksi,ksi->ks", s, s))
    )


def sphere_displacement(g: np.ndarray, x: np.ndarray, tol: float = 1e-10) -> float:
    """Geodesic displacement angle(x, gx) of an orthogonal map at a unit point."""
    g = check_orthogonal(g)
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > tol:
        raise NonUnitPoint("point must lie on the unit sphere")
    return float(_angles(x[None, None], (g @ x)[None, None])[0, 0])


def sphere_displacement_profile(g: np.ndarray, samples: int, rng: np.random.Generator):
    """Sampling oracle: displacement statistics over Haar points on the sphere,
    ``samples`` fresh points per matrix.  One matrix gives one
    DisplacementProfile, a stack a tuple of them.

    The points of a stack are drawn as (k_b, samples, n) blocks with
    k_b * samples at most ``_SAMPLE_BLOCK`` (at least one matrix per block),
    which consumes the generator as one draw per matrix does.
    """
    stack = _orthogonal_stack(g)
    k, n = stack.shape[0], stack.shape[-1]
    step = max(1, _SAMPLE_BLOCK // samples)
    profiles = []
    for i in range(0, k, step):
        mats = stack[i : i + step]
        pts = haar_sphere(n, samples, rng, size=len(mats))
        vals = _angles(pts, pts @ np.swapaxes(mats, -1, -2))
        profiles += [DisplacementProfile.from_values(v) for v in vals]
    return profiles[0] if np.ndim(g) == 2 else tuple(profiles)


def is_clifford_sphere(g: np.ndarray, tol: float = 1e-9):
    """Exact constant-displacement test on the sphere.

    For one matrix, returns (True, angle) when the symmetric part
    (g + g^T)/2 equals c*I entrywise within tol (the displacement is then
    arccos(c) everywhere), otherwise (False, None).  For a stack, returns a
    boolean array and an array of angles, NaN where the test fails.
    """
    stack = _orthogonal_stack(g)
    n = stack.shape[-1]
    c = np.trace(stack, axis1=1, axis2=2) / n
    sym = (stack + np.swapaxes(stack, 1, 2)) / 2.0
    ok = np.max(np.abs(sym - c[:, None, None] * np.eye(n)), axis=(1, 2)) <= tol
    angle = np.where(ok, np.arccos(np.clip(c, -1.0, 1.0)), np.nan)
    if np.ndim(g) == 3:
        return ok, angle
    return (True, float(angle[0])) if ok[0] else (False, None)


def clifford_evidence(g: np.ndarray, samples: int, rng: np.random.Generator, tol: float = 1e-9):
    """Per-matrix constancy and its evidence, for one matrix or a stack: a
    boolean array from ``is_clifford_sphere``, and an array holding the
    displacement angle where it is constant and the sampled gap where it is
    not.  Only the non-constant matrices draw points, in stack order."""
    stack = _orthogonal_stack(g)
    constant, values = is_clifford_sphere(stack, tol=tol)
    moving = np.nonzero(~constant)[0]
    if moving.size:
        profiles = sphere_displacement_profile(stack[moving], samples, rng)
        values[moving] = [p.gap for p in profiles]
    return constant, values


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
    arr = _orthogonal_stack(group)
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


def cyclic_powers(M: np.ndarray, limit: int = 10_000) -> list[np.ndarray]:
    """The cyclic group generated by M: its powers I, M, M^2, ... (each the
    previous one times M) up to the first return to the identity, max-abs
    within 1e-9.  InvalidParameter when there are more than ``limit`` (a
    matrix with NaN entries never returns)."""
    eye = np.eye(M.shape[0])
    out, g = [eye], M
    while not np.max(np.abs(g - eye)) <= 1e-9:
        out.append(g)
        if len(out) > limit:
            raise InvalidParameter("matrix does not generate a finite cyclic group")
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
    return cyclic_powers(gen, limit=k)


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


def _moebius(m: np.ndarray, z):
    a, b = m[0]
    c, d = m[1]
    return (a * z + b) / (c * z + d)


def _moebius_displacement(m: np.ndarray, z):
    """Hyperbolic distance d(z, mz), elementwise, via
    cosh d = 1 + |z - mz|^2 / (2 Im z Im mz)."""
    w = _moebius(m, z)
    arg = 1.0 + np.abs(z - w) ** 2 / (2.0 * np.imag(z) * np.imag(w))
    return np.arccosh(np.maximum(arg, 1.0))


@dataclass(frozen=True)
class HyperbolicMotion:
    """Moebius action of a real 2x2 matrix of determinant 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2) or abs(np.linalg.det(m) - 1.0) > 1e-12:
            raise InvalidParameter("need a real 2x2 matrix with det 1")

    def apply(self, z: complex) -> complex:
        return _moebius(self.matrix, z)

    def displacement(self, z: complex) -> float:
        """Hyperbolic distance d(z, mz) via
        cosh d = 1 + |z - mz|^2 / (2 Im z Im mz)."""
        return float(_moebius_displacement(self.matrix, z))


def _hyperbolic_ball_points(radius: float, angles: int) -> np.ndarray:
    """Points at hyperbolic distance ``radius`` from i, via the disk model."""
    theta = np.linspace(0.0, 2.0 * np.pi, angles, endpoint=False)
    w = np.tanh(radius / 2.0) * np.exp(1j * theta)
    return 1j * (1.0 + w) / (1.0 - w)


def hyperbolic_bounded_probe(motion: HyperbolicMotion, radii=(1.0, 2.0, 4.0, 8.0), angles: int = 64):
    """Exact verdict (bounded iff the matrix is +-I) plus the sampled sup of
    the displacement over nested hyperbolic balls around i: the centre and
    the circles of every radius up to the current one, evaluated as one array."""
    m = motion.matrix
    bounded = bool(
        np.max(np.abs(m - np.eye(2))) <= 1e-10 or np.max(np.abs(m + np.eye(2))) <= 1e-10
    )
    radii = sorted(radii)
    pts = np.concatenate([[1j]] + [_hyperbolic_ball_points(R, angles) for R in radii])
    disp = _moebius_displacement(m, pts)
    circles = disp[1:].reshape(len(radii), angles).max(axis=1)
    sups = np.maximum.accumulate(np.concatenate([disp[:1], circles]))[1:]
    return bounded, [float(v) for v in sups]
