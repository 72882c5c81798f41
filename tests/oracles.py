"""Reference constructions that tests compare the library against: an
abstract SL(2, F_p) table, the scalar product of two quaternions, the
right-translation and SU(2) images of a unit quaternion, the minimal-norm
logarithm of a compact group element and the fixed point of an inverted
two-sided translation, the commutator and the Ad test of constant
displacement of a two-sided translation, the displacement range of an
orthogonal map from singular values and displacement statistics over Haar
points on a sphere,
Haar points on Sp(n) by quaternionic Gram-Schmidt, the Cayley table of a
matrix list from all k^2 products, the real coordinate vector of a matrix,
the Berger isometry algebra as the null space of its linear system, the
coordinates -trace(B_k X) of a matrix against a basis stack by ``einsum``,
the growth of a linear map from its greatest singular value, sampled
hyperbolic displacements on circles about i, and Wolf's closed forms for lens
decks, the finite-group screens of a direct product of cyclic groups in
closed form, and the matrix-file writer that the CLI reads.  A quaternion is
a row (w, x, y, z).

The lens sweep also runs on its own, over more decks than tier-1 takes:
``PYTHONPATH=tests:src python -c "import oracles; print(oracles.lens_deck_mismatches((60, 30, 16, 10, 8)))"``."""

import itertools
from collections import Counter
from functools import lru_cache
from math import gcd

import numpy as np

from homoglab import _tol, finite_groups
from homoglab.compact_lie import (
    _SAMPLE_BLOCK,
    COMPACT_SYMPLECTIC,
    SPECIAL_ORTHOGONAL,
    CompactGroupSpec,
    _branch_shift_su,
    algebra_basis,
    check_in_group,
    group_exp,
    symplectic_structure,
)
from homoglab.constant_curvature import _orthogonal_stack, lens_group
from homoglab._linalg import _blocks
from homoglab.errors import NotClosed, NotInGroup
from homoglab.profiles import DisplacementProfile
from homoglab.verifier import (
    HOMOGENEOUS_WITNESS_FOUND,
    NOT_CONSTANT_DISPLACEMENT,
    sphere_deck,
    verify_instance,
)


def _vec(E: np.ndarray, lead: int = 0) -> np.ndarray:
    """Real coordinate vector of a real or complex array (real parts, then
    imaginary parts); one vector per index of the first ``lead`` axes."""
    E = np.asarray(E)
    flat = E.reshape(E.shape[:lead] + (-1,))
    if np.iscomplexobj(E):
        return np.concatenate([flat.real, flat.imag], axis=-1)
    return flat


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


def cyclic_product_table(*orders) -> np.ndarray:
    """Multiplication table of Z_{n_1} x ... x Z_{n_r}, elements in
    mixed-radix order: element 0 is the identity, and the one with a 1 in
    coordinate i alone, index prod(n_{i+1}, ..., n_r), generates factor i."""
    elems = np.array(list(np.ndindex(*orders)))
    radix = np.cumprod((1,) + orders[::-1][:-1])[::-1]
    sums = (elems[:, None, :] + elems[None, :, :]) % np.array(orders)
    return sums @ radix


def cyclic_product_screens(orders) -> dict:
    """The finite-group screens of Z_{n_1} x ... x Z_{n_r} in closed form.
    Its Sylow p-subgroup is the product of those of the factors, cyclic iff
    at most one n_i is divisible by p: the odd Sylow subgroups are cyclic iff
    no odd prime divides two n_i, i.e. each gcd(n_i, n_j) is a power of 2.
    It holds a Z_p x Z_p iff p divides two n_i, so its abelian subgroups are
    all cyclic iff the n_i are pairwise coprime.  Its involutions are the
    nonzero elements of (Z_2)^e, e the number of even n_i, all central; its
    derived subgroup is the identity alone, and the generator of factor i
    generates a subgroup of order n_i."""
    pairs = [gcd(a, b) for a, b in itertools.combinations(orders, 2)]
    return {
        "odd_sylow_cyclic": all(g & (g - 1) == 0 for g in pairs),
        "abelian_subgroups_cyclic": all(g == 1 for g in pairs),
        "involution_count": 2 ** sum(n % 2 == 0 for n in orders) - 1,
        "involution_central": True,
        "derived_order": 1,
        "factor_closure_orders": list(orders),
    }


def format_matrix(M: np.ndarray) -> str:
    """The text of a matrix file as ``cli.load_matrix`` reads it: the size n
    on the first line, then n rows of entries in round-trip precision."""
    M = np.asarray(M)
    lines = [str(M.shape[0])]
    for row in M:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


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


def _log_special_orthogonal(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    lam, V = np.linalg.eig(u)
    # a real Schur basis, as in group_log: the QR factor of the real and
    # imaginary parts of each eigenvector whose eigenvalue has Im > 0 (they
    # span its conjugate's too) and of the real eigenvectors of real eigenvalues
    keep = np.stack([lam.imag >= 0, lam.imag > 0], axis=1).ravel()
    Z = np.linalg.qr(np.stack([V.real, V.imag], axis=2).reshape(n, 2 * n)[:, keep])[0]
    T = Z.T @ u @ Z
    M = np.zeros((n, n))
    minus_one = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > _tol.ZERO:
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


def _log_symplectic(spec: CompactGroupSpec, lam: np.ndarray, Z: np.ndarray) -> np.ndarray:
    near_minus = np.abs(lam + 1.0) < _tol.GROUP
    X = (Z * (1j * np.where(near_minus, 0.0, np.angle(lam)))) @ Z.conj().T
    # the -1 eigenspace splits into planes (v, J conj(v)), turned by +pi and -pi;
    # J conj(v) is a -1 eigenvector orthogonal to v
    J = symplectic_structure(spec.n)
    W = Z[:, near_minus]
    for _ in range(W.shape[1] // 2):
        v = W[:, np.argmax(np.linalg.norm(W, axis=0))]
        v = v / np.linalg.norm(v)
        pair = np.stack([v, J @ v.conj()], axis=1)
        X = X + 1j * np.pi * (pair * [1.0, -1.0]) @ pair.conj().T
        W = W - pair @ (pair.conj().T @ W)
    return X


def group_log(spec: CompactGroupSpec, g: np.ndarray) -> np.ndarray:
    """Minimal-norm logarithm of g inside the group's Lie algebra."""
    g = check_in_group(spec, g)
    if spec.family == SPECIAL_ORTHOGONAL:
        return _log_special_orthogonal(g.real if np.iscomplexobj(g) else g.astype(float, copy=False))
    # g V = V diag(lam) and V = Z R give Z^H g Z = R diag(lam) R^-1, upper
    # triangular: Z is a Schur basis, and g is normal, so its columns are
    # orthonormal eigenvectors, also inside a cluster of equal eigenvalues
    lam, V = np.linalg.eig(g.astype(complex, copy=False))
    Z = np.linalg.qr(V)[0]
    if spec.family == COMPACT_SYMPLECTIC:
        return _log_symplectic(spec, lam, Z)
    theta = _branch_shift_su(np.angle(lam))
    return (Z * (1j * theta)) @ Z.conj().T


def inverted_fixed_point(spec, iso) -> np.ndarray:
    """A point that x -> g1 x^-1 g2 fixes: x = y g2 with y^2 = g1 g2^-1, for
    y = exp(log(g1 g2^-1) / 2) (then g1 x^-1 g2 = y^2 y^-1 g2 = x)."""
    y = group_exp(0.5 * group_log(spec, iso.g1 @ iso.g2.conj().T))
    return y @ iso.g2


def _so4_plane(a, b):
    E = np.zeros((4, 4))
    E[a, b], E[b, a] = 1.0, -1.0
    return E


# unit bases, in -trace(XY), of the self-dual and anti-self-dual halves of so(4)
SO4_HALVES = np.array([
    [(_so4_plane(0, 1) + sign * _so4_plane(2, 3)) / 2,
     (_so4_plane(0, 2) - sign * _so4_plane(1, 3)) / 2,
     (_so4_plane(0, 3) + sign * _so4_plane(1, 2)) / 2]
    for sign in (1, -1)
])


def clifford_wolf_commutator(spec: CompactGroupSpec, pairs) -> np.ndarray:
    """Which maps x -> g1^-1 x g2 of a (k, 2, d, d) pair stack have constant
    displacement, one pair at a time by the commutator test: on every simple
    ideal, g1 or g2 commutes with the ideal's basis, max-abs of g b - b g
    within ``_tol.CENTRAL``.  The ideals are the whole algebra, or the two
    halves of so(4) built from its coordinate planes."""
    if spec == CompactGroupSpec(SPECIAL_ORTHOGONAL, 4):
        ideals = SO4_HALVES
    else:
        ideals = np.stack(algebra_basis(spec))[None]
    return np.array([
        all(any(np.max(np.abs(g @ B - B @ g)) <= _tol.CENTRAL for g in pair) for B in ideals)
        for pair in pairs
    ], dtype=bool)


def ad_constancy_flags(spec: CompactGroupSpec, pairs) -> np.ndarray:
    """Which maps x -> g1^-1 x g2 of a (k, 2, d, d) pair stack have constant
    displacement, one pair at a time by Ad: on every simple ideal, g1 or g2
    has max-abs of g^H b g - b within ``_tol.CENTRAL`` for each b of the
    ideal's slice of ``algebra_basis`` (both halves of so(4), in order)."""
    basis = np.stack(algebra_basis(spec))
    ideals = np.split(basis, 2) if spec == CompactGroupSpec(SPECIAL_ORTHOGONAL, 4) else [basis]
    return np.array([
        all(any(max(np.max(np.abs(g.conj().T @ b @ g - b)) for b in B) <= _tol.CENTRAL
                for g in pair) for B in ideals)
        for pair in pairs
    ], dtype=bool)


def haar_sphere(
    n_ambient: int, samples: int, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Uniform points on S^{n_ambient-1} via normalized Gaussians: a
    (samples, n_ambient) array of rows, or a (size, samples, n_ambient) stack
    of them, the same points as ``size`` single draws."""
    shape = (samples, n_ambient) if size is None else (size, samples, n_ambient)
    x = rng.standard_normal(shape)
    return x / np.sqrt(np.einsum("...i,...i->...", x, x))[..., None]


def _quaternion_pair_mul(a1, b1, a2, b2):
    # (a1 + j b1)(a2 + j b2) componentwise
    return a1 * a2 - np.conj(b1) * b2, b1 * a2 + np.conj(a1) * b2


def haar_symplectic_gram_schmidt(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """A (size, 2n, 2n) stack of Haar points on Sp(n) from the same Gaussians
    as ``haar_sample``: Gram-Schmidt over the quaternions on the columns
    A + j B, reorthogonalized once, then embedded as [[A, -conj(B)], [B,
    conj(A)]].  The columns are kept as rows (axis 1), so each inner product
    sums a last axis."""
    z = rng.standard_normal((size, 4, n, n))
    A = z[:, 0] + 1j * z[:, 1]
    B = z[:, 2] + 1j * z[:, 3]
    QA = np.zeros_like(A)
    QB = np.zeros_like(B)
    for j in range(n):
        va, vb = A[:, :, j].copy(), B[:, :, j].copy()
        for _ in range(2):
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


def _angles(x: np.ndarray, gx: np.ndarray) -> np.ndarray:
    """Angles between the unit rows of two (k, s, n) stacks by Kahan's
    2 atan2(|x - gx|, |x + gx|), accurate to round-off near 0 and pi, where
    arccos<x, gx> loses half its digits."""
    d, s = x - gx, x + gx
    return 2.0 * np.arctan2(
        np.sqrt(np.einsum("ksi,ksi->ks", d, d)), np.sqrt(np.einsum("ksi,ksi->ks", s, s))
    )


def kahan_sphere_range(g: np.ndarray) -> tuple[float, float]:
    """Least and greatest displacement of one orthogonal map over the unit
    sphere, from singular values rather than eigenvalues.

    At a unit x, |x - gx|^2 = 2 - 2 x^T S x and |x + gx|^2 = 2 + 2 x^T S x for
    the symmetric part S of g, so the least |x - gx|, the least singular value
    of I - g, comes with the greatest |x + gx|, the greatest singular value of
    I + g, and the other way round.  Both ends are Kahan's
    2 atan2(|x - gx|, |x + gx|), accurate to round-off near 0 and pi."""
    eye = np.eye(len(g))
    minus = np.linalg.svd(eye - g, compute_uv=False)  # descending
    plus = np.linalg.svd(eye + g, compute_uv=False)
    return (float(2.0 * np.arctan2(minus[-1], plus[0])),
            float(2.0 * np.arctan2(minus[0], plus[-1])))


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


def linear_growth(A: np.ndarray, radii) -> list[float]:
    """R sigma_max(A - I) for each R: the largest displacement of the linear
    map A over the ball of radius R, from the greatest singular value."""
    top = np.linalg.svd(A - np.eye(len(A)), compute_uv=False)[0]
    return [float(R * top) for R in radii]


def moebius_displacement(m: np.ndarray, z):
    """Sampled cross-check of the hyperbolic probe: the distance d(z, mz) in
    the upper half-plane, elementwise, via
    cosh d = 1 + |z - mz|^2 / (2 Im z Im mz)."""
    a, b = m[0]
    c, d = m[1]
    w = (a * z + b) / (c * z + d)
    arg = 1.0 + np.abs(z - w) ** 2 / (2.0 * np.imag(z) * np.imag(w))
    return np.arccosh(np.maximum(arg, 1.0))


def hyperbolic_circle(R: float, points: int) -> np.ndarray:
    """``points`` equally spaced points at hyperbolic distance R from i, the
    image of the disk-model circle of radius tanh(R / 2)."""
    w = np.tanh(R / 2.0) * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, points, endpoint=False))
    return 1j * (1.0 + w) / (1.0 - w)


def key_paired_table(mats) -> np.ndarray:
    """The Cayley table from all k^2 products, as ``finite_groups.cayley_table``
    built it before it read the table off the closure certificate.  The list
    passes the same checks first (``_element_list``); then each row of
    products x y, over every y, is paired with the elements by key rank and
    every pair is confirmed within ``_tol.CLOSURE`` in max-abs, in blocks of
    left factors, and the first block that strays raises NotClosed with its
    largest distance."""
    arr, flat, order = finite_groups._element_list(mats)
    k, m = flat.shape
    table = np.empty((k, k), dtype=np.int64)
    for s in _blocks(k, k * m):
        prods = np.matmul(arr[s, None], arr[None, :]).reshape(-1, k, m)
        ranks = finite_groups._keys(prods).argsort(axis=-1)
        pair = np.empty_like(ranks)
        pair[np.arange(len(ranks))[:, None], ranks] = order
        stray = np.abs(prods - flat[pair]).max()
        if not stray <= _tol.CLOSURE:  # NaN entries fail too
            raise NotClosed(f"products stray {stray:.2e} from the element set")
        table[s] = pair
    return table


def berger_isometry_oracle(a: float, b: float) -> np.ndarray:
    """Coefficients (columns) on (T1, T2, T3) of the X in su(2) with
    ad(X)ᵀQ + Q ad(X) = 0 for Q = diag(1, b, a): the null space of the six
    independent entries of that symmetric system, by SVD, singular values
    below 1e-10 of the largest taken as zero."""
    Q = np.diag([1.0, b, a])
    rows = []
    for k in range(3):
        # ad(T_k) on the frame, from [T1,T2]=T3, [T2,T3]=T1, [T3,T1]=T2
        A = np.zeros((3, 3))
        i, j = (k + 1) % 3, (k + 2) % 3
        A[j, i], A[i, j] = 1.0, -1.0
        C = A.T @ Q + Q @ A
        rows.append([C[0, 1], C[0, 2], C[1, 2], C[0, 0], C[1, 1], C[2, 2]])
    M = np.array(rows).T
    _, s, vh = np.linalg.svd(M)
    if s[0] == 0.0:
        return np.eye(3)
    return vh[int(np.sum(s > 1e-10 * s[0])):].T


def trace_coords_einsum(basis: np.ndarray, X: np.ndarray) -> np.ndarray:
    """-trace(B_k X) for each B_k of a stack: shape (k,) for one matrix,
    (..., k) for a stack; the einsum that ``_linalg.trace_coords`` replaced
    with one GEMM."""
    return -np.einsum("kij,...ji->...k", basis, X).real


def lens_decks(tops):
    """Every L(K; 1, q_2, ..., q_m) with each q_i a unit mod K, as (K,
    exponents), for m = 2, 3, ... and K from 2 to ``tops[m - 2]``."""
    for m, top in enumerate(tops, start=2):
        for K in range(2, top + 1):
            units = [q for q in range(1, K) if gcd(q, K) == 1]
            for rest in itertools.combinations_with_replacement(units, m - 1):
                yield K, (1, *rest)


def lens_closed_form(K: int, exps) -> tuple:
    """Wolf's classification of homogeneous spherical space forms on the lens
    deck L(K; 1, q_2, ..., q_m), each q_i a unit mod K, as (free, every
    element constant, centralizer_dim, verdict): the deck is free; it is
    constant iff every q_i = +-1 mod K; its centralizer is the sum of u(m_j)
    over the classes {q, -q} mod K, m_j exponents each (all of so(2m) for
    K = 2, whose one element is -I); and it is a witness iff there is one
    class."""
    m = len(exps)
    classes = Counter(min(q % K, -q % K) for q in exps)
    constant = all((q - 1) % K == 0 or (q + 1) % K == 0 for q in exps)
    cdim = m * (2 * m - 1) if K == 2 else sum(c * c for c in classes.values())
    verdict = HOMOGENEOUS_WITNESS_FOUND if len(classes) == 1 else NOT_CONSTANT_DISPLACEMENT
    return True, constant, cdim, verdict


def lens_deck_mismatches(tops) -> tuple[int, list]:
    """``verify_instance`` on every deck of ``lens_decks(tops)`` against
    ``lens_closed_form``: the number of decks, and each (K, exponents, got,
    want) that differs."""
    count, mismatches = 0, []
    for K, exps in lens_decks(tops):
        report = verify_instance(sphere_deck(lens_group(K, exps)))
        got = (report.free, all(e.constant for e in report.clifford_per_element),
               report.centralizer_dim, report.verdict)
        want = lens_closed_form(K, exps)
        if got != want:
            mismatches.append((K, exps, got, want))
        count += 1
    return count, mismatches
