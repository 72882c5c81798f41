"""Homogeneity pipeline for space-form quotients: freeness, per-element
constant displacement, and transitivity of the deck group's centralizer.

Two ambient models are supported.  On the round sphere S^{n} the deck group is
a finite set of orthogonal matrices and the ambient isometry algebra is
so(n+1).  On a compact group manifold with its bi-invariant metric the deck
group is a finite set of two-sided translations x -> g1^{-1} x g2 and the
ambient algebra is the sum of the left- and right-translation fields, the
pairs (X, Y) acting through x -> exp(tX) x exp(tY).

The centralizer of the deck in the full isometry algebra is exact: for a
finite group, the mean of Ad over the group is the orthogonal projector onto
the directions every element fixes, so the centralizer is the eigenspace for
eigenvalue 1 of that mean, held as coordinates on ``algebra_basis`` (so(n+1)
on a sphere; the left and the right factor on a group manifold).  The same
pass of Ad decides constant displacement on a group manifold.

Transitivity is decided at one point.  The identity component of the deck
group's centralizer in the full isometry group is compact, so its orbits are
closed; an orbit is open, hence all of the connected manifold, exactly when
the centralizer fields span the tangent space at one of its points.  The
pipeline therefore takes the rank at the base point only (e_1 on a sphere, the
identity on a group manifold).

No point is drawn.  Each deck element gets one displacement range [lo, hi],
computed once per deck: exact on a sphere; on a group manifold the closed-form
least displacement against the largest one at a fixed set of points.  It
decides constancy on a sphere (hi - lo within ``_tol.EIGEN``) and freeness on
a group manifold (lo above it but for the identity map), and gives each
element's value (lo when constant, hi - lo when not) and the forward re-check
(the largest hi - lo, at most ``tol``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import _tol
from ._linalg import rank_rel, trace_coords
from .compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    _adjoint_pass,
    _basis_stack,
    _identity_maps,
    _translation_ranges,
    center_elements,
    check_in_group,
)
from .constant_curvature import is_free_on_sphere, sphere_displacement_range
from .errors import (
    InvalidParameter,
    InvariantViolated,
    ModelMismatch,
)
from .finite_groups import FiniteQuaternionGroup, closure_certificate

NOT_FREE = "NotFree"
NOT_CONSTANT_DISPLACEMENT = "NotConstantDisplacement"
HOMOGENEOUS_WITNESS_FOUND = "HomogeneousWitnessFound"
NO_WITNESS_IN_AMBIENT = "NoWitnessInAmbient"


@dataclass(frozen=True)
class SphereModel:
    """Round S^{ambient_dim - 1} inside R^{ambient_dim}."""

    ambient_dim: int

    def __post_init__(self):
        if self.ambient_dim < 3:
            raise InvalidParameter("sphere model needs ambient dimension >= 3")

    @property
    def manifold_dim(self) -> int:
        return self.ambient_dim - 1


@dataclass(frozen=True)
class GroupManifoldModel:
    """A compact group with its bi-invariant metric."""

    spec: CompactGroupSpec

    @property
    def manifold_dim(self) -> int:
        return self.spec.algebra_dim


def left_translation_isometry(spec: CompactGroupSpec, a: np.ndarray) -> TwoSidedIsometry:
    """The map x -> a x as a two-sided translation; its deck checks ``a``."""
    return TwoSidedIsometry(np.asarray(a).conj().T, spec.identity())


@dataclass(frozen=True, eq=False)
class DeckGroup:
    """A finite group of isometries in one declared ambient model.

    Validation checks that the elements form a group, with one closure
    certificate (``_check_group``), and leaves them as one stack in
    ``matrices``: (k, n, n) floats on a sphere, the (k, 2, d, d) pairs
    (g1, g2) on a group manifold.
    """

    model: SphereModel | GroupManifoldModel
    elements: tuple
    matrices: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.model, SphereModel):
            self._validate_sphere()
        else:
            self._validate_group()

    @property
    def order(self) -> int:
        return len(self.elements)

    # -- validation ---------------------------------------------------------

    def _validate_sphere(self):
        n = self.model.ambient_dim
        mats = [np.asarray(g, dtype=float) for g in self.elements]
        if any(g.shape != (n, n) for g in mats):
            raise ModelMismatch(f"expected {n}x{n} matrices")
        if not mats:
            raise InvalidParameter("deck group is empty")
        mats = np.stack(mats)
        # written so that NaN entries fail too; every entry of an orthogonal
        # matrix lies in [-1, 1], so a larger one is refused before the product
        if not (np.max(np.abs(mats)) <= 1.0 + _tol.ORTHOGONAL
                and np.max(np.abs(np.swapaxes(mats, 1, 2) @ mats - np.eye(n))) <= _tol.ORTHOGONAL):
            raise ModelMismatch("element is not orthogonal")
        _check_group(mats)
        object.__setattr__(self, "matrices", mats)

    def _validate_group(self):
        spec = self.model.spec
        if any(not isinstance(iso, TwoSidedIsometry) or iso.inverted for iso in self.elements):
            raise ModelMismatch("group-manifold decks consist of translation pairs")
        if not self.elements:
            raise InvalidParameter("deck group is empty")
        d = spec.matrix_size
        pairs = check_in_group(spec, [g for iso in self.elements for g in (iso.g1, iso.g2)])
        object.__setattr__(self, "matrices", pairs.reshape(-1, 2, d, d))
        # (z g1, z g2) is the same map as (g1, g2) for every central z, so the
        # deck is a group of maps exactly when the blocks diag(z g1, z g2), over
        # all elements and all z, form a group of matrices
        blocks = np.zeros((len(self.elements), 2 * d, 2 * d), dtype=complex)
        blocks[:, :d, :d], blocks[:, d:, d:] = self.matrices[:, 0], self.matrices[:, 1]
        center = center_elements(spec)[:, 0, 0]
        _check_group((center[:, None, None, None] * blocks).reshape(-1, 2 * d, 2 * d))


def _check_group(mats: np.ndarray) -> None:
    """NotClosed unless a stack of matrices forms a group: it holds the
    identity and no element twice, within ``_tol.CLOSURE``, and it is closed.
    Closure is certified from the products with a few generators
    (``closure_certificate``): each such product lies within ``_tol.CLOSURE``
    of an element, and every other product within 2 l sqrt(m) CLOSURE in
    Frobenius norm, for m entries per matrix and its right factor at depth l
    of the certificate's walk.  Right multiplication by each generator then
    permutes the elements, so every element has an inverse."""
    closure_certificate(mats)


def sphere_deck(matrices) -> DeckGroup:
    """The deck of a list of orthogonal matrices, on the sphere of the first
    one's size."""
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if not mats:
        raise InvalidParameter("deck group is empty")
    return DeckGroup(SphereModel(mats[0].shape[0]), tuple(mats))


def sphere_deck_from_quaternions(group: FiniteQuaternionGroup) -> DeckGroup:
    """Left multiplication action of a finite quaternion group on S^3."""
    mats = tuple(group.left_translation_matrices())
    return DeckGroup(SphereModel(4), mats)


def group_deck(spec: CompactGroupSpec, isometries) -> DeckGroup:
    return DeckGroup(GroupManifoldModel(spec), tuple(isometries))


# ---------------------------------------------------------------------------
# centralizer and transitivity


def _adjoint_average(deck: DeckGroup):
    """The centralizer and the constancy flags of one pass of Ad over the
    deck.  The mean of Ad over a finite group is the orthogonal projector onto
    its fixed directions: the centralizer is its eigenspace for eigenvalue 1."""
    model = deck.model
    if isinstance(model, SphereModel):
        spec, maps = CompactGroupSpec("SO", model.ambient_dim), deck.matrices[:, None]
    else:
        spec, maps = model.spec, deck.matrices
    means, constant = _adjoint_pass(spec, maps)
    w, V = np.linalg.eigh(trace_coords(_basis_stack(spec), means))
    return tuple(v[:, x > _tol.PROJECTOR_SPLIT] for x, v in zip(w, V)), constant


def centralizer_algebra(deck: DeckGroup) -> tuple[np.ndarray, ...]:
    """The ambient directions fixed by Ad of every deck element, one
    orthonormal coordinate array on ``algebra_basis`` (columns) per factor of
    the isometry algebra: so(n) on a sphere; the left and the right fields on
    a group manifold, where Ad(γ)(X, Y) = (g1^H X g1, g2^H Y g2)."""
    return _adjoint_average(deck)[0]


def transitivity_rank(Z, model):
    """Rank of the centralizer fields' span in the tangent space at the base
    point (e_1 on a sphere, the identity on a group manifold), for the
    coordinate arrays of ``centralizer_algebra``.  Returns (rank, dim M).

    With Z the centralizer in the full isometry algebra, full rank at this
    one point means the centralizer is transitive, and a deficit means it is
    not: its orbits are closed, and open exactly where the rank is full.
    """
    if isinstance(model, SphereModel):
        (C,) = Z
        B = _basis_stack(CompactGroupSpec("SO", model.ambient_dim))
        rows = C.T @ B[:, :, 0]  # the fields X e_1
    else:
        # a left field X and a right field Y are X and Y at the identity
        rows = np.hstack(Z).T
    return rank_rel(rows), model.manifold_dim


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class VerifyConfig:
    """``seed`` is recorded in the report.  ``samples`` is range-checked but
    read by nothing: the pipeline draws no points.  ``tol`` is the largest
    forward re-check spread only: every model decides freeness at ``_tol.EIGEN``
    (``is_free_on_sphere``, or the least displacement on group manifolds)."""

    seed: int = 0
    samples: int = 200
    tol: float = _tol.DISPLACEMENT

    def __post_init__(self):
        if self.samples < 10:
            raise InvalidParameter("samples must be >= 10")
        if self.tol <= 0:
            raise InvalidParameter("tol must be positive")


@dataclass(frozen=True)
class ElementEvidence:
    element_id: int
    constant: bool
    # lo when constant (the map moves every point by it); otherwise the spread
    # hi - lo of the exact sphere range or of the attained group-manifold range
    value: float


@dataclass(frozen=True)
class HomogeneityReport:
    free: bool
    free_offender: int | None
    clifford_per_element: tuple[ElementEvidence, ...]
    centralizer_dim: int
    transitivity: tuple[int, int, int]  # (points tested, rank, dim M)
    verdict: str
    seed: int
    tolerances: dict
    forward_max_gap: float | None
    note: str = (
        "transitivity decided at the base point: the centralizer in the full "
        "isometry algebra has closed orbits, so full rank at one point is "
        "transitivity and a deficit is not"
    )

    def to_json_dict(self) -> dict:
        pts, min_rank, dim = self.transitivity
        return {
            "free": self.free,
            "elements": [
                {"id": e.element_id, "constant": e.constant, "value": e.value}
                for e in self.clifford_per_element
            ],
            "centralizer_dim": self.centralizer_dim,
            "rank_evidence": {
                "points": pts,
                "min_rank": min_rank,
                "dim": dim,
                "forward_max_gap": self.forward_max_gap,
                "scope": self.note,
            },
            "verdict": self.verdict,
            "seed": self.seed,
            "tolerances": self.tolerances,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def verdict_from_evidence(free: bool, all_constant: bool, min_rank: int, dim: int) -> str:
    """The report verdict as a pure function of its evidence fields."""
    if not free:
        return NOT_FREE
    if not all_constant:
        return NOT_CONSTANT_DISPLACEMENT
    if min_rank == dim:
        return HOMOGENEOUS_WITNESS_FOUND
    return NO_WITNESS_IN_AMBIENT


def verify_instance(deck: DeckGroup, config: VerifyConfig | None = None) -> HomogeneityReport:
    """Run the full pipeline on the deck's model: freeness, constant
    displacement per element, centralizer computation, transitivity rank, and
    the forward re-check of a witness, which raises InvariantViolated when
    some element's displacement range is wider than ``config.tol``."""
    model = deck.model
    config = config if config is not None else VerifyConfig()

    # every named tolerance that can change the verdict
    tolerances = {"displacement": config.tol, "closure": _tol.CLOSURE,
                  "eigen": _tol.EIGEN, "rank_cutoff": _tol.RANK_CUTOFF}
    # one pass of Ad over the deck and one displacement range [lo, hi] per
    # element, each computed once
    Z, constant = _adjoint_average(deck)
    if isinstance(model, SphereModel):
        freeness = is_free_on_sphere(deck.matrices)
        free, free_offender = freeness.free, freeness.offender
        lo, hi = sphere_displacement_range(deck.matrices)
        constant = hi - lo <= _tol.EIGEN  # the flags of Ad are for translations
    else:
        tolerances["central"] = _tol.CENTRAL
        spec = model.spec
        inverted = np.zeros(deck.order, dtype=bool)  # decks hold translations only
        lo, hi = _translation_ranges(spec, deck.matrices, inverted)
        # x -> g1^{-1} x g2 fixes a point iff g1 and g2 are conjugate, i.e.
        # iff lo, the distance between their classes, vanishes
        fixing = np.flatnonzero((lo <= _tol.EIGEN) & ~_identity_maps(spec, deck.matrices))
        free_offender = int(fixing[0]) if fixing.size else None
        free = free_offender is None
    # a constant map moves every point by its least displacement
    values = np.where(constant, lo, hi - lo)
    elements = tuple(
        ElementEvidence(i, bool(c), float(v)) for i, (c, v) in enumerate(zip(constant, values))
    )

    min_rank, dim = transitivity_rank(Z, model)
    all_constant = all(e.constant for e in elements)
    verdict = verdict_from_evidence(free, all_constant, min_rank, dim)

    forward_max_gap = None
    if verdict == HOMOGENEOUS_WITNESS_FOUND:
        forward_max_gap = float(np.max(hi - lo))
        if forward_max_gap > config.tol:
            raise InvariantViolated(
                "forward consistency violated: full rank but displacement gap "
                f"{forward_max_gap:.3e} exceeds {config.tol:.1e}"
            )

    return HomogeneityReport(
        free=free,
        free_offender=free_offender,
        clifford_per_element=elements,
        centralizer_dim=sum(C.shape[1] for C in Z),
        transitivity=(1, min_rank, dim),
        verdict=verdict,
        seed=config.seed,
        tolerances=tolerances,
        forward_max_gap=forward_max_gap,
    )
