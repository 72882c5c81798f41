"""The three benchmark workloads: which verifications one cycle runs, the
inputs they get, and the answer each one must give.

A workload is an ordered mix of operations.  The harness repeats the mix in
cycles; cycle ``c`` of workload seed ``s`` draws every ``--seed`` value and
every random conjugator from ``SeedSequence([s, c])``, so the same seed gives
the same inputs.  The program only ever sees the generated argv, matrix files
and matrices.

Each expected verdict follows from how the input was built, not from what the
current code prints:

* left multiplication by a finite group of unit quaternions, or by the complex
  scalar ``exp(2 pi i/k)`` on C^m (lens spaces with all exponents equal), is a
  free Clifford action whose centralizer is transitive on the sphere;
* a lens action with distinct rotation angles is free but has non-constant
  displacement;
* a rotation with a fixed 2-plane fixes points;
* a left translation on a compact group is free with constant displacement and
  the right translations commute with it;
* the two-sided translation ``x -> g^-k x (h g^k h^-1)`` fixes ``x = h^-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from homoglab import compact_lie, verifier

SAMPLES = "200"
SMOKE_SAMPLES = "20"
MOTIONS = "8"
KILLING_DIRECTIONS = "3"


@dataclass
class Op:
    """One verification.  ``argv`` runs ``homoglab.cli.main``; ``call`` runs a
    library function.  ``verdict`` and ``exit`` are the expected answers; each
    of ``checks`` returns a problem with the report, or None.  ``probe`` marks
    the operations re-run for the determinism check."""

    kind: str
    verdict: str
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    exit: int | None = None
    checks: list[Callable[[dict], str | None]] = field(default_factory=list)
    probe: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[["CycleInputs"], list[Op]]


@dataclass
class CycleInputs:
    """Everything one cycle derives from the workload seed."""

    rng: np.random.Generator
    workdir: Path
    cycle: int
    samples: str

    def seed(self) -> str:
        return str(int(self.rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# evidence checks; each returns None when the field holds, else a message


def expect(path: str, want) -> Callable[[dict], str | None]:
    def check(rep: dict) -> str | None:
        got = _dig(rep, path)
        return None if got == want else f"{path} = {got!r}, expected {want!r}"

    return check


def expect_true(path: str, pred: Callable, what: str) -> Callable[[dict], str | None]:
    def check(rep: dict) -> str | None:
        got = _dig(rep, path)
        try:
            ok = pred(got)
        except (TypeError, KeyError, IndexError):
            ok = False
        return None if ok else f"{path} = {got!r}, expected {what}"

    return check


def _dig(rep, path: str):
    for key in path.split("."):
        if isinstance(rep, dict) and key in rep:
            rep = rep[key]
        else:
            return "<missing>"
    return rep


def _homogeneous_checks(order: int, dim: int, centralizer: int):
    """A witness verdict: free, constant, full rank at every point."""
    return [
        expect("inputs.order", order),
        expect("evidence.free", True),
        expect_true("evidence.elements",
                    lambda els: bool(els) and all(e["constant"] is True for e in els),
                    "all constant"),
        expect("evidence.centralizer_dim", centralizer),
        expect("evidence.rank_evidence.min_rank", dim),
        expect("evidence.rank_evidence.dim", dim),
    ]


# ---------------------------------------------------------------------------
# generated inputs


def random_rotation(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diagonal(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def plane_rotation(n: int, blocks) -> np.ndarray:
    """Block-diagonal rotation by the given angles; remaining axes fixed."""
    g = np.eye(n)
    for i, t in enumerate(blocks):
        c, s = np.cos(t), np.sin(t)
        g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[c, -s], [s, c]]
    return g


def write_matrix(path: Path, m: np.ndarray) -> None:
    """The CLI's matrix file format: the size, then one row per line."""
    rows = [" ".join(f"{x:.17g}" for x in row) for row in m]
    path.write_text("\n".join([str(m.shape[0]), *rows]) + "\n")


def _expm_skew(x: np.ndarray) -> np.ndarray:
    """exp of a skew-hermitian matrix through one hermitian eigendecomposition."""
    w, v = np.linalg.eigh(-1j * x)
    return (v * np.exp(1j * w)) @ v.conj().T


def random_group_element(family: str, n: int, rng: np.random.Generator) -> np.ndarray:
    """exp of a random algebra element of SU(n) or Sp(n) (J-commuting form)."""
    def skew(k):
        g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        return (g - g.conj().T) / 2.0

    if family == "SU":
        x = skew(n)
        x = x - np.trace(x) / n * np.eye(n)
    else:
        a = skew(n)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        b = (b + b.T) / 2.0
        x = np.block([[a, -b.conj()], [b, a.conj()]])
    return _expm_skew(x)


def cyclic_generator(family: str, n: int, order: int) -> np.ndarray:
    """A non-central element of the given order in SU(n) or Sp(n)."""
    z = np.exp(2j * np.pi / order)
    if family == "SU":
        return np.diag([z, z.conjugate()] + [1.0] * (n - 2)).astype(complex)
    a = np.diag([z] + [1.0] * (n - 1))
    return np.block([[a, np.zeros((n, n))], [np.zeros((n, n)), a.conj()]])


def two_sided_deck(family: str, n: int, order: int, rng: np.random.Generator):
    """The translations x -> g^-k x (h g^k h^-1), k < order, with g a random
    conjugate of a non-central element of the given order.  Every
    non-identity element fixes x = h^-1."""
    spec = compact_lie.CompactGroupSpec(family, n)
    q = random_group_element(family, n, rng)
    h = random_group_element(family, n, rng)
    g = q @ cyclic_generator(family, n, order) @ q.conj().T
    isos, p = [], np.eye(g.shape[0], dtype=complex)
    for _ in range(order):
        isos.append(compact_lie.TwoSidedIsometry(p, h @ p @ h.conj().T))
        p = p @ g
    return spec, isos


# ---------------------------------------------------------------------------
# space-forms


_S3_DECKS = [
    # (group, order, centralizer dim): left multiplication commutes with all
    # right multiplications (3) plus the left fields fixed by the group
    ("cyclic-12", 12, 4),
    ("binary-dihedral-6", 24, 3),
    ("binary-tetrahedral", 24, 3),
    ("binary-octahedral", 48, 3),
    ("binary-icosahedral", 120, 3),
    ("antipodal", 2, 6),
    ("lens-5-1-1", 5, 4),
]


def space_forms(ci: CycleInputs) -> list[Op]:
    s = ci.samples
    ops = []
    for group, order, cdim in _S3_DECKS:
        ops.append(Op(
            kind=f"check-homogeneity s3/{group}",
            argv=["check-homogeneity", "--model", "s3", "--group", group,
                  "--samples", s, "--seed", ci.seed()],
            exit=0, verdict="HomogeneousWitnessFound",
            checks=_homogeneous_checks(order, 3, cdim),
            probe=group == "binary-tetrahedral",
        ))
    ops.append(Op(
        kind="check-homogeneity s3/binary-icosahedral readme",
        argv=["check-homogeneity", "--model", "s3", "--group",
              "binary-icosahedral", "--seed", "42"],
        exit=0, verdict="HomogeneousWitnessFound",
        checks=_homogeneous_checks(120, 3, 3),
    ))
    # distinct rotation angles: free, displacement not constant; the commutant
    # is one so(2) per rotation plane
    for model, group, order, cdim in (
        ("s3", "lens-7-1-2", 7, 2),
        ("s5", "lens-9-1-2-4", 9, 3),
    ):
        ops.append(Op(
            kind=f"check-homogeneity {model}/{group}",
            argv=["check-homogeneity", "--model", model, "--group", group,
                  "--samples", s, "--seed", ci.seed()],
            exit=1, verdict="NotConstantDisplacement",
            checks=[
                expect("inputs.order", order),
                expect("evidence.free", True),
                expect_true("evidence.elements",
                            lambda els: els[0]["constant"] and not all(e["constant"] for e in els),
                            "identity constant, some element not"),
                expect("evidence.centralizer_dim", cdim),
            ],
        ))
    ops.append(Op(
        kind="check-homogeneity s7/lens-12-1-1-1-1",
        argv=["check-homogeneity", "--model", "s7", "--group", "lens-12-1-1-1-1",
              "--samples", s, "--seed", ci.seed()],
        exit=0, verdict="HomogeneousWitnessFound",
        checks=_homogeneous_checks(12, 7, 16),  # commutant u(4)
    ))
    for group, order, kind in (("binary-octahedral", 48, "binary_octahedral"),
                               ("binary-icosahedral", 120, "binary_icosahedral")):
        ops.append(Op(
            kind=f"construct {group}",
            argv=["construct", "--group", group, "--seed", ci.seed()],
            exit=0, verdict="Constructed",
            checks=[
                expect("evidence.order", order),
                expect("evidence.classification", kind),
                expect("evidence.classification_round_trip", True),
                expect("evidence.abelian_subgroups_cyclic", True),
                expect("evidence.unique_central_involution", True),
                expect("evidence.odd_sylow_cyclic", True),
            ],
        ))
    ops.append(Op(
        kind="check-free s3/binary-icosahedral",
        argv=["check-free", "--model", "s3", "--group", "binary-icosahedral",
              "--seed", ci.seed()],
        exit=0, verdict="Free",
        checks=[expect("evidence.order", 120), expect("evidence.offender", None)],
    ))
    k = int(ci.rng.integers(3, 7))
    fixed_plane = ci.workdir / f"fixed_plane_{ci.cycle}.txt"
    conj = random_rotation(ci.rng, 4)
    write_matrix(fixed_plane, conj @ plane_rotation(4, [2 * np.pi / k]) @ conj.T)
    ops.append(Op(
        kind="check-free s3/fixed-plane-file",
        argv=["check-free", "--model", "s3", "--matrix-file", str(fixed_plane),
              "--seed", ci.seed()],
        exit=1, verdict="NotFree",
        checks=[expect("evidence.order", k), expect("evidence.offender", 1)],
    ))
    lens = ci.workdir / f"lens_5_12_{ci.cycle}.txt"
    conj = random_rotation(ci.rng, 4)
    write_matrix(lens, conj @ plane_rotation(4, [2 * np.pi / 5, 4 * np.pi / 5]) @ conj.T)
    ops.append(Op(
        kind="check-clifford s3/lens-5-1-2-file",
        argv=["check-clifford", "--model", "s3", "--matrix-file", str(lens),
              "--samples", s, "--seed", ci.seed()],
        exit=1, verdict="NotConstantDisplacement",
        checks=[expect_true("evidence.elements",
                            lambda els: len(els) == 1 and not els[0]["constant"]
                            and els[0]["value"] > 0,
                            "one non-constant element")],
        probe=True,
    ))
    ops.append(Op(
        kind="probe-noncompact",
        argv=["probe-noncompact", "--motions", MOTIONS, "--seed", ci.seed()],
        exit=0, verdict="ProbesConsistent",
        checks=[
            expect("evidence.euclidean_exact_agreements", int(MOTIONS)),
            expect("evidence.hyperbolic_strictly_increasing", int(MOTIONS)),
            expect("evidence.central_displacement_zero", True),
        ],
        probe=True,
    ))
    return ops


# ---------------------------------------------------------------------------
# group-decks


_GROUP_DECKS = [
    # (model, deck, order, dim, centralizer dim): a central deck commutes
    # with all left and right fields; cyclic-3 keeps the right fields plus the
    # left fields commuting with its generator
    ("su2", "center", 2, 3, 6),
    ("su2", "cyclic-3", 3, 3, 4),
    ("so3", "center", 1, 3, 6),
    ("so3", "cyclic-3", 3, 3, 4),
    ("so4", "center", 2, 6, 12),
    ("so4", "cyclic-3", 3, 6, 8),
    ("su3", "center", 3, 8, 16),
    ("su3", "cyclic-3", 3, 8, 10),
    ("sp2", "center", 2, 10, 20),
    ("sp2", "cyclic-3", 3, 10, 14),
]


def group_decks(ci: CycleInputs) -> list[Op]:
    ops = []
    for model, deck, order, dim, cdim in _GROUP_DECKS:
        ops.append(Op(
            kind=f"check-homogeneity {model}/{deck}",
            argv=["check-homogeneity", "--model", model, "--group", deck,
                  "--samples", ci.samples, "--seed", ci.seed()],
            exit=0, verdict="HomogeneousWitnessFound",
            checks=_homogeneous_checks(order, dim, cdim),
            probe=(model, deck) == ("su2", "cyclic-3"),
        ))
    for family, n in (("SU", 2), ("SU", 3), ("Sp", 2)):
        spec, isos = two_sided_deck(family, n, 3, ci.rng)
        cfg = verifier.VerifyConfig(seed=int(ci.seed()), samples=int(ci.samples))
        ops.append(Op(
            kind=f"verify_instance two-sided {family}({n})",
            # through the module attributes, so traced runs see the wrappers
            call=lambda spec=spec, isos=isos, cfg=cfg: verifier.verify_instance(
                verifier.group_deck(spec, isos), config=cfg
            ),
            verdict="NotFree",
            checks=[expect("free", False)],
            probe=(family, n) == ("SU", 2),
        ))
    return ops


# ---------------------------------------------------------------------------
# killing-catalog


def killing_catalog(ci: CycleInputs) -> list[Op]:
    s = ci.samples
    ops = []
    # a left-invariant field on a group with its bi-invariant metric, and the
    # Hopf circle field on S^{2m+1}, have constant length
    for space in ("su3", "so5", "sp2", "hopf-1", "hopf-2", "hopf-3"):
        ops.append(Op(
            kind=f"check-killing {space}",
            argv=["check-killing", "--space", space,
                  *(["--field", "right"] if space == "hopf-2" else []),  # the README run
                  "--samples", s, "--seed", ci.seed()],
            exit=0, verdict="ConstantLength",
            checks=[expect("evidence.samples", int(s))],
            probe=space == "hopf-2",
        ))
    # SO(5)/SO(3) has no constant-length Killing field
    ops.append(Op(
        kind="check-killing so5-so3",
        argv=["check-killing", "--space", "so5-so3", "--directions", KILLING_DIRECTIONS,
              "--samples", s, "--seed", ci.seed()],
        exit=1, verdict="NotConstantLength",
        checks=[expect("evidence.directions", int(KILLING_DIRECTIONS)),
                expect_true("evidence.min_relative_gap", lambda g: g > 1e-7, "> tol")],
    ))
    for entry in (1, 10, 15, 17):
        ops.append(Op(
            kind=f"catalog verify {entry}",
            argv=["catalog", "verify", str(entry), "--samples", s, "--seed", ci.seed()],
            exit=0, verdict="CatalogCheckPassed",
            checks=[expect("evidence.entry.id", entry),
                    expect("evidence.status", "passed")],
            probe=entry == 15,
        ))
    ops.append(Op(
        kind="catalog list",
        argv=["catalog", "list", "--seed", ci.seed()],
        exit=0, verdict="Listed",
        checks=[expect_true("evidence.entries", lambda e: len(e) == 19, "19 entries")],
    ))
    # right-isometry algebra of the Berger metric diag(1, b, a): round sphere
    # 3, squashed along the fibre (a < b = 1) 1, fully squashed (a < b < 1) 0
    case = int(ci.rng.integers(0, 3))
    a, b, dim = [(1.0, 1.0, 3),
                 (float(ci.rng.uniform(0.2, 0.9)), 1.0, 1),
                 (float(ci.rng.uniform(0.1, 0.4)), float(ci.rng.uniform(0.5, 0.9)), 0)][case]
    ops.append(Op(
        kind="check-berger",
        argv=["check-berger", "--a", repr(a), "--b", repr(b), "--seed", ci.seed()],
        exit=0, verdict="Computed",
        checks=[expect("evidence.dimension", dim)],
    ))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "space-forms",
            "Sphere quotients with deck orders 2 to 120: closure, Cayley tables, "
            "freeness and the stacked centralizer SVD set the cost; no compact-group sampling.",
            space_forms,
        ),
        Workload(
            "group-decks",
            "Decks on compact group manifolds, including non-free two-sided decks: "
            "min_displacement descent and Haar sampling dominate.",
            group_decks,
        ),
        Workload(
            "killing-catalog",
            "Killing-field length profiles and catalog checks: Haar sampling without "
            "the descent, and the only user of the homogeneous-space code.",
            killing_catalog,
        ),
    )
}
