"""Null-space basis: dimension, orthonormality and A N = 0 on every shape;
numerical rank of one matrix and of a stack."""

import numpy as np
import pytest

from homoglab._linalg import null_space, rank_rel


def _low_rank(rng, m, n, rank, complex_=False):
    a, b = rng.normal(size=(m, rank)), rng.normal(size=(rank, n))
    if complex_:
        a = a + 1j * rng.normal(size=(m, rank))
        b = b + 1j * rng.normal(size=(rank, n))
    return a @ b


@pytest.mark.parametrize(
    "m,n,rank,complex_",
    [(40, 6, 4, False), (3, 8, 3, False), (20, 5, 3, True), (4, 9, 2, True), (6, 6, 6, False)],
    ids=["tall", "wide", "complex-tall", "complex-wide", "square-full-rank"],
)
def test_null_space_basis(rng, m, n, rank, complex_):
    A = _low_rank(rng, m, n, rank, complex_)
    N = null_space(A)
    assert N.shape == (n, n - rank)
    assert np.allclose(N.conj().T @ N, np.eye(n - rank), atol=1e-12)
    assert np.max(np.abs(A @ N), initial=0.0) <= 1e-10


@pytest.mark.parametrize("shape", [(4, 3), (0, 5)], ids=["zero", "empty"])
def test_null_space_of_zero_or_empty_matrix_is_everything(shape):
    assert np.array_equal(null_space(np.zeros(shape)), np.eye(shape[1]))


def test_rank_of_a_stack_is_the_rank_of_each_matrix(rng):
    stack = np.stack(
        [_low_rank(rng, 6, 5, r, complex_=r % 2 == 1) for r in (1, 2, 3, 4, 5)]
        + [np.zeros((6, 5))]
    )
    ranks = rank_rel(stack)
    assert ranks.tolist() == [1, 2, 3, 4, 5, 0]
    assert ranks.tolist() == [rank_rel(a) for a in stack]
    assert rank_rel(np.zeros((3, 0, 4))).tolist() == [0, 0, 0]
