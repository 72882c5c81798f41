"""Homogeneity pipeline for space-form quotients: freeness, per-element
constant displacement, and transitivity of the deck group's centralizer.

Two ambient models are supported.  On the round sphere S^{n} the deck group is
a finite set of orthogonal matrices and the ambient isometry algebra is
so(n+1).  On a compact group manifold with its bi-invariant metric the deck
group is a finite set of two-sided translations x -> g1^{-1} x g2 and the
ambient algebra is the sum of the left- and right-translation fields, encoded
as stacked pairs (X, Y) acting through x -> exp(tX) x exp(tY).

Transitivity is decided at one point.  The identity component of the deck
group's centralizer in the full isometry group is compact, so its orbits are
closed; an orbit is open, hence all of the connected manifold, exactly when
the centralizer fields span the tangent space at one of its points.  The
pipeline therefore takes the rank at the base point only (e_1 on a sphere, the
identity on a group manifold).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ._linalg import _vec, null_space, rank_rel
from .compact_lie import (
    CompactGroupSpec,
    TwoSidedIsometry,
    algebra_basis,
    center_elements,
    check_in_group,
    conjugacy_class_distance,
    group_displacement_profile,
    is_constant_displacement_translation,
    is_identity_isometry,
)
from .constant_curvature import (
    clifford_evidence,
    is_free_on_sphere,
    sphere_displacement_profile,
)
from .errors import (
    EmptyAmbient,
    InvalidParameter,
    InvariantViolated,
    ModelMismatch,
    NotClosed,
)
from .finite_groups import (
    FiniteQuaternionGroup,
    cayley_table,
    table_inverses,
)

_CLOSURE_TOL = 1e-9

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


def sphere_ambient_basis(ambient_dim: int) -> tuple[np.ndarray, ...]:
    return algebra_basis(CompactGroupSpec("SO", ambient_dim))


def group_ambient_basis(spec: CompactGroupSpec) -> tuple[np.ndarray, ...]:
    """Basis of left ⊕ right translation generators, as stacked (X, Y) pairs."""
    d = spec.matrix_size
    zero = np.zeros((d, d), dtype=complex)
    out = []
    for X in algebra_basis(spec):
        out.append(np.stack([X.astype(complex), zero]))
    for Y in algebra_basis(spec):
        out.append(np.stack([zero, Y.astype(complex)]))
    return tuple(out)


def left_translation_isometry(spec: CompactGroupSpec, a: np.ndarray) -> TwoSidedIsometry:
    """The map x -> a x as a two-sided translation."""
    a = check_in_group(spec, a)
    return TwoSidedIsometry(np.asarray(a).conj().T, spec.identity())


@dataclass(frozen=True, eq=False)
class DeckGroup:
    """A finite group of isometries in one declared ambient model.

    On a sphere, validation leaves the elements as one (k, n, n) float stack
    in ``matrices`` and the deck's Cayley table in ``table`` (table[i, j] =
    index of elements[i] @ elements[j]); group-manifold decks have both None.
    """

    model: SphereModel | GroupManifoldModel
    elements: tuple
    matrices: np.ndarray | None = field(default=None, init=False, repr=False)
    table: np.ndarray | None = field(default=None, init=False, repr=False)

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
        if not np.max(np.abs(np.swapaxes(mats, 1, 2) @ mats - np.eye(n))) <= _CLOSURE_TOL:
            raise ModelMismatch("element is not orthogonal")  # NaN entries too
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "table", _group_table(mats))

    def _validate_group(self):
        spec = self.model.spec
        for iso in self.elements:
            if not isinstance(iso, TwoSidedIsometry) or iso.inverted:
                raise ModelMismatch("group-manifold decks consist of translation pairs")
            check_in_group(spec, iso.g1)
            check_in_group(spec, iso.g2)
        if not self.elements:
            raise InvalidParameter("deck group is empty")
        # (z g1, z g2) is the same map as (g1, g2) for every central z, so the
        # deck is a group of maps exactly when the blocks diag(z g1, z g2), over
        # all elements and all z, form a group of matrices
        d = spec.matrix_size
        blocks = np.zeros((len(self.elements), 2 * d, 2 * d), dtype=complex)
        for i, iso in enumerate(self.elements):
            blocks[i, :d, :d], blocks[i, d:, d:] = iso.g1, iso.g2
        center = np.array([z[0, 0] for z in center_elements(spec)])
        _group_table((center[:, None, None, None] * blocks).reshape(-1, 2 * d, 2 * d))


def _group_table(mats: np.ndarray) -> np.ndarray:
    """Cayley table of a stack of matrices that must form a group: it holds the
    identity and is closed under products and inverses, within _CLOSURE_TOL."""
    dist_to_eye = np.max(np.abs(mats - np.eye(mats.shape[-1])), axis=(1, 2))
    identity = int(np.argmin(dist_to_eye))
    if dist_to_eye[identity] > _CLOSURE_TOL:
        raise NotClosed("deck group does not contain the identity")
    table = cayley_table(mats, _CLOSURE_TOL)
    table_inverses(table, identity)
    return table


def sphere_deck(matrices, ambient_dim: int | None = None) -> DeckGroup:
    mats = [np.asarray(m, dtype=float) for m in matrices]
    if not mats:
        raise InvalidParameter("deck group is empty")
    n = ambient_dim if ambient_dim is not None else mats[0].shape[0]
    return DeckGroup(SphereModel(n), tuple(mats))


def sphere_deck_from_quaternions(group: FiniteQuaternionGroup) -> DeckGroup:
    """Left multiplication action of a finite quaternion group on S^3."""
    mats = tuple(group.left_translation_matrices())
    return DeckGroup(SphereModel(4), mats)


def group_deck(spec: CompactGroupSpec, isometries) -> DeckGroup:
    return DeckGroup(GroupManifoldModel(spec), tuple(isometries))


# ---------------------------------------------------------------------------
# centralizer and transitivity


def _ad_minus_identity(deck: DeckGroup, basis: np.ndarray) -> np.ndarray:
    """(Ad(γ) − I) b for every deck element γ (axis 0) and basis element b
    (axis 1)."""
    if isinstance(deck.model, SphereModel):
        g = deck.matrices[:, None]
        return g @ basis @ np.swapaxes(g, -1, -2) - basis
    # a group-manifold direction is a pair (X, Y): Ad(γ)(X, Y) = (g1^H X g1, g2^H Y g2)
    g = np.stack([np.stack([iso.g1, iso.g2]) for iso in deck.elements])[:, None]
    return np.swapaxes(g.conj(), -1, -2) @ basis @ g - basis


def centralizer_algebra(deck: DeckGroup, ambient_basis) -> tuple:
    """Basis of the ambient directions fixed by Ad of every deck element — the
    common null space of the stacked (Ad(γ) − I) maps, built for all elements
    and basis directions at once.  The null-space coefficients are orthonormal,
    so the basis is orthonormal in the ``_vec`` dot product whenever the
    ambient basis is, as the sphere and group-manifold bases are."""
    basis = list(ambient_basis)
    if not basis:
        raise EmptyAmbient("ambient basis is empty")
    B = np.stack(basis)
    # column b holds _vec((Ad(γ) − I) b) of every γ, one element after another
    M = np.swapaxes(_vec(_ad_minus_identity(deck, B), lead=2), 1, 2).reshape(-1, len(basis))
    if np.max(np.abs(M)) <= 1e-12:  # identity-only deck: everything commutes
        coeff = np.eye(len(basis))
    else:
        coeff = null_space(M, rel_cutoff=1e-8)
    return tuple(np.tensordot(coeff.T, B, axes=1))


def transitivity_rank(Z_basis, model):
    """Rank of the centralizer fields' span in the tangent space at the base
    point (e_1 on a sphere, the identity on a group manifold).  Returns
    (rank, dim M).

    With Z the centralizer in the full isometry algebra, full rank at this
    one point means the centralizer is transitive, and a deficit means it is
    not: its orbits are closed, and open exactly where the rank is full.
    """
    dim = model.manifold_dim
    if len(Z_basis) == 0:
        return 0, dim
    Z = np.stack(Z_basis)
    if isinstance(model, SphereModel):
        rows = Z[:, :, 0]  # X e_1
    else:
        rows = _vec(Z[:, 0] + Z[:, 1], lead=1)  # X·1 + 1·Y
    return rank_rel(rows, rel_cutoff=1e-8), dim


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    samples: int = 200
    tol: float = 1e-7

    def __post_init__(self):
        if self.samples < 10:
            raise InvalidParameter("samples must be >= 10")
        if self.tol <= 0:
            raise InvalidParameter("tol must be positive")


@dataclass(frozen=True)
class ElementEvidence:
    element_id: int
    constant: bool
    value: float  # displacement angle when constant, sampled gap when not


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


def _sphere_element_evidence(deck, config, rng):
    constant, values = clifford_evidence(deck.matrices, config.samples, rng, tol=1e-9)
    return tuple(
        ElementEvidence(i, bool(c), float(v)) for i, (c, v) in enumerate(zip(constant, values))
    )


def _group_element_evidence(deck, config, rng):
    spec = deck.model.spec
    out = []
    for i, iso in enumerate(deck.elements):
        res = is_constant_displacement_translation(
            spec, iso, tol=config.tol, samples=config.samples, rng=rng
        )
        value = res.profile.mean if res.constant else res.profile.gap
        out.append(ElementEvidence(i, res.constant, float(value)))
    return tuple(out)


def verify_instance(
    deck: DeckGroup,
    model=None,
    config: VerifyConfig | None = None,
) -> HomogeneityReport:
    """Run the full pipeline: freeness, constant displacement per element,
    centralizer computation, transitivity rank, and the forward re-check."""
    if model is not None and model != deck.model:
        raise ModelMismatch("explicit model disagrees with the deck group's model")
    model = deck.model
    config = config if config is not None else VerifyConfig()
    rng = np.random.default_rng(config.seed)

    if isinstance(model, SphereModel):
        freeness = is_free_on_sphere(deck.matrices, tol=1e-9, table=deck.table)
        free = freeness.free
        free_offender = freeness.offender
        elements = _sphere_element_evidence(deck, config, rng)
        ambient = sphere_ambient_basis(model.ambient_dim)
    else:
        spec = model.spec
        # x -> g1^{-1} x g2 fixes a point iff g1 and g2 are conjugate; its
        # least displacement is the distance between their classes
        free_offender = next(
            (
                i
                for i, iso in enumerate(deck.elements)
                if not is_identity_isometry(spec, iso, tol=_CLOSURE_TOL)
                and conjugacy_class_distance(spec, iso.g1, iso.g2) <= config.tol
            ),
            None,
        )
        free = free_offender is None
        elements = _group_element_evidence(deck, config, rng)
        ambient = group_ambient_basis(spec)

    Z = centralizer_algebra(deck, ambient)
    min_rank, dim = transitivity_rank(Z, model)
    all_constant = all(e.constant for e in elements)
    verdict = verdict_from_evidence(free, all_constant, min_rank, dim)

    forward_max_gap = None
    if verdict == HOMOGENEOUS_WITNESS_FOUND:
        if isinstance(model, SphereModel):
            profiles = sphere_displacement_profile(deck.matrices, config.samples, rng)
        else:
            profiles = [
                group_displacement_profile(model.spec, iso, config.samples, rng)
                for iso in deck.elements
            ]
        forward_max_gap = float(max(p.gap for p in profiles))
        if forward_max_gap > config.tol:
            raise InvariantViolated(
                "forward consistency violated: full rank but displacement gap "
                f"{forward_max_gap:.3e} exceeds {config.tol:.1e}"
            )

    return HomogeneityReport(
        free=free,
        free_offender=free_offender,
        clifford_per_element=elements,
        centralizer_dim=len(Z),
        transitivity=(1, min_rank, dim),
        verdict=verdict,
        seed=config.seed,
        tolerances={"displacement": config.tol, "rank_cutoff": 1e-8},
        forward_max_gap=forward_max_gap,
    )
