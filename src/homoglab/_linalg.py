"""Small linear-algebra helpers shared by the geometry modules."""

from __future__ import annotations

import numpy as np

from . import _tol

_BLOCK = 1 << 20  # entries of temporaries per block of a stacked kernel (8 MB of floats)


def _blocks(count: int, entries: int):
    """Slices of an axis of ``count`` items, each item taking ``entries``
    entries of temporaries, in blocks of about ``_BLOCK`` entries."""
    step = max(1, _BLOCK // entries)
    return (slice(i, i + step) for i in range(0, count, step))


def _readonly(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: the arrays of a process-wide cache are shared."""
    a.flags.writeable = False
    return a


def _at_identity(g: np.ndarray) -> np.ndarray:
    """Whether a matrix, or each matrix of a stack, lies within
    ``_tol.CLOSURE`` of the identity in max-abs entry distance; a NaN entry
    fails."""
    return np.max(np.abs(g - np.eye(g.shape[-1])), axis=(-2, -1)) <= _tol.CLOSURE


def null_space(A: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of A.

    Singular values below ``_tol.RANK_CUTOFF`` times the largest one are
    treated as zero.  A zero (or empty) matrix yields the full coordinate space.
    """
    A = np.atleast_2d(np.asarray(A))
    n = A.shape[1]
    if A.size == 0:
        return np.eye(n)
    # only V^H is read: a tall A skips its full U, a wide A keeps its full V^H
    _, s, vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    if s.size == 0 or s[0] == 0.0:
        return np.eye(n)
    rank = int(np.sum(s > _tol.RANK_CUTOFF * s[0]))
    return vh[rank:].conj().T


def rank_rel(A: np.ndarray):
    """Numerical rank, cutoff ``_tol.RANK_CUTOFF`` relative to the largest
    singular value: an int for one matrix, an array of ranks for a stack."""
    A = np.atleast_2d(np.asarray(A))
    s = np.linalg.svd(A, compute_uv=False)
    # a zero or empty matrix leaves no value above the cutoff: rank 0
    rank = np.sum(s > _tol.RANK_CUTOFF * s[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def trace_coords(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Coordinates -trace(B_k X) of X against a stack of basis matrices B_k:
    shape (k,) for one matrix, (..., k) for a stack.  For a basis orthonormal
    in -trace(XY) these are the coordinates of X's projection onto its span,
    and ``trace_coords(B, B)`` is the Gram matrix of B.  One real GEMM of the
    flattened B^T against the flattened X; for complex X, Re trace(B X) is
    Re B · Re X - Im B · Im X over the interleaved (re, im) entries of X."""
    k, d = len(basis), basis.shape[-1]
    bt = basis.swapaxes(-1, -2).reshape(k, d * d)
    if np.iscomplexobj(X):
        bt = np.stack([bt.real, -bt.imag], axis=-1).reshape(k, 2 * d * d)
        X = np.ascontiguousarray(X).view(X.real.dtype)
    return -(X.reshape(X.shape[:-2] + (bt.shape[1],)) @ bt.real.T)


def trace_inner(X: np.ndarray, Y: np.ndarray) -> float:
    """Ad-invariant inner product -tr(XY); real for skew-hermitian arguments."""
    return float(-np.trace(X @ Y).real)


def trace_norm(X: np.ndarray) -> float:
    v = trace_inner(X, X)
    # roundoff can push a zero slightly negative
    return float(np.sqrt(max(v, 0.0)))
