"""Reference constructions that tests compare the library against: an
abstract SL(2, F_p) table, the scalar product of two quaternions, the
right-translation and SU(2) images of a unit quaternion, and the fixed point
of an inverted two-sided translation.  A quaternion is a row (w, x, y, z)."""

from functools import lru_cache

import numpy as np

from homoglab.compact_lie import group_exp, group_log


@lru_cache(maxsize=None)
def special_linear_table(p: int) -> np.ndarray:
    """Multiplication table of SL(2, F_p), built from integer matrices mod p."""
    elems = []
    index = {}
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        index[(a, b, c, d)] = len(elems)
                        elems.append((a, b, c, d))
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, (a, b, c, d) in enumerate(elems):
        for j, (e, f, g, h) in enumerate(elems):
            prod = (
                (a * e + b * g) % p,
                (a * f + b * h) % p,
                (c * e + d * g) % p,
                (c * f + d * h) % p,
            )
            table[i, j] = index[prod]
    return table


def quaternion_product(p, q) -> np.ndarray:
    """The Hamilton product p q, one coordinate at a time."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def right_translation_matrix(q) -> np.ndarray:
    """Matrix of x -> x q on R^4 in the basis (1, i, j, k); lies in SO(4) for
    a unit quaternion q."""
    w, x, y, z = q
    return np.array(
        [
            [w, -x, -y, -z],
            [x, w, z, -y],
            [y, -z, w, x],
            [z, y, -x, w],
        ]
    )


def su2_matrix(q) -> np.ndarray:
    """Standard 2-dimensional unitary embedding of a unit quaternion."""
    w, x, y, z = q
    return np.array([[w + 1j * x, y + 1j * z], [-y + 1j * z, w - 1j * x]])


def inverted_fixed_point(spec, iso) -> np.ndarray:
    """A point that x -> g1 x^-1 g2 fixes: x = y g2 with y^2 = g1 g2^-1, for
    y = exp(log(g1 g2^-1) / 2) (then g1 x^-1 g2 = y^2 y^-1 g2 = x)."""
    y = group_exp(0.5 * group_log(spec, iso.g1 @ iso.g2.conj().T))
    return y @ iso.g2
