"""Command-line interface: construct groups, run displacement/freeness/Killing
checks, drive the homogeneity pipeline, verify catalog entries, and probe
noncompact model spaces.  Every run emits one JSON report with the fields
command, inputs, seed, tolerances, evidence, verdict, wall_time_ms, printed as
one line with sorted keys (``python -m json.tool`` indents it); the report
validates against data/report_schema.json.

Exit codes: 0 for a pass/witness verdict, 1 for a fail verdict, 2 for usage or
configuration errors.  Identical command + seed give byte-identical evidence
(wall_time_ms is outside the determinism claim).

Matrix files are plain text: first line the size n, then n rows of n
whitespace-separated real entries.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time

import numpy as np

from . import _tol
from ._linalg import trace_norm
from .compact_lie import (
    CompactGroupSpec,
    center_elements,
    check_in_algebra,
    haar_orthogonal,
    random_algebra_element,
)
from .constant_curvature import (
    EuclideanMotion,
    HyperbolicMotion,
    check_orthogonal,
    clifford_evidence,
    cyclic_powers,
    euclidean_bounded,
    hyperbolic_bounded_probe,
    is_free_on_sphere,
    lens_group,
)
from .errors import HomoglabError, InvalidParameter, ModelMismatch, ParseError, ZeroField
from .finite_groups import (
    GroupType,
    check_space_form_constraints,
    check_table_work,
    classify,
    named_binary_group,
)
from .homogeneous import (
    _normalizes_isotropy,
    berger_right_isometry_algebra,
    catalog_load,
    catalog_verify,
    group_space,
    hopf_sphere_space,
    killing_length_profile,
    so5_so3_space,
    u1_centralizer_direction,
)
from .profiles import DisplacementProfile
from .verifier import (
    GroupManifoldModel,
    SphereModel,
    VerifyConfig,
    group_deck,
    left_translation_isometry,
    sphere_deck,
    verify_instance,
)

_PASS_VERDICTS = {
    "Constructed",
    "Computed",
    "Listed",
    "ConstantDisplacement",
    "Free",
    "ConstantLength",
    "HomogeneousWitnessFound",
    "CatalogCheckPassed",
    "Informational",
    "ProbesConsistent",
}


# ---------------------------------------------------------------------------
# matrix file format


def parse_matrix_text(text: str) -> np.ndarray:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty matrix file")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"first line must be the matrix size, got {lines[0]!r}")
    if n < 1 or len(lines) != n + 1:
        raise ParseError(f"expected {n} rows after the size line, got {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:], start=2):
        tokens = ln.split()
        if len(tokens) != n:
            raise ParseError(f"line {k}: expected {n} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            try:
                row.append(float(tok))
            except ValueError:
                raise ParseError(f"line {k}: cannot parse entry {tok!r}")
        rows.append(row)
    return np.array(rows)


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_matrix_text(fh.read())
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read matrix file {path}: {e}")


# ---------------------------------------------------------------------------
# name parsing

_BINARY_TAGS = {
    "binary-tetrahedral": GroupType.binary_tetrahedral,
    "binary-octahedral": GroupType.binary_octahedral,
    "binary-icosahedral": GroupType.binary_icosahedral,
}


_MAX_GROUP_SIZE = 12  # matrix groups above this are outside the intended scope
# largest sphere model: s23 in R^24, the matrix size of the largest group model sp12
_MAX_SPHERE_DIM = 2 * _MAX_GROUP_SIZE - 1
_KILLING_DIRECTIONS = 25  # default --directions of check-killing on so5-so3
# most --samples.  check-killing, its one reader, draws them 4096 at a time on
# hopf-M --field left and so5-so3; on suN/soN/spN and hopf-M --field right it
# draws none and counts that many points of one provably constant length
_MAX_SAMPLES = 10**6
_MAX_MOTIONS = 10**4  # most --motions: 30-50 ms of probes, warm on 2 vCPU


def parse_model(name: str):
    m = re.fullmatch(r"(su|so|sp)(\d+)", name)
    if m:
        family = {"su": "SU", "so": "SO", "sp": "Sp"}[m.group(1)]
        n = int(m.group(2))
        if not 2 <= n <= _MAX_GROUP_SIZE:
            raise InvalidParameter(f"group size must be between 2 and {_MAX_GROUP_SIZE}")
        return GroupManifoldModel(CompactGroupSpec(family, n))
    m = re.fullmatch(r"s(\d+)", name)
    if m:
        dim = int(m.group(1))
        if not 2 <= dim <= _MAX_SPHERE_DIM:
            raise InvalidParameter(f"sphere models run from s2 to s{_MAX_SPHERE_DIM}")
        return SphereModel(dim + 1)
    raise InvalidParameter(
        f"unknown model {name!r}: expected sN (sphere) or suN/soN/spN (group manifold)"
    )


def _requested_tag(name: str) -> GroupType | None:
    m = re.fullmatch(r"cyclic-(\d+)", name)
    if m:
        return GroupType.cyclic(int(m.group(1)))
    m = re.fullmatch(r"binary-dihedral-(\d+)", name)
    if m:
        return GroupType.binary_dihedral(int(m.group(1)))
    if name in _BINARY_TAGS:
        return _BINARY_TAGS[name]()
    return None


def _quaternion_group_from_name(name: str):
    tag = _requested_tag(name)
    if tag is None:
        return None
    check_table_work(name, tag.expected_order(), 16)  # 4 x 4 left translations
    return named_binary_group(tag)


def sphere_group_matrices(name: str, ambient: int | None = None):
    """Orthogonal matrices for a named deck group acting on a sphere."""
    q = _quaternion_group_from_name(name)
    if q is not None:
        if ambient is not None and ambient != 4:
            raise ModelMismatch(f"{name} acts by quaternion multiplication on s3 only")
        return q.left_translation_matrices()
    m = re.fullmatch(r"lens-(\d+)((?:-\d+)+)", name)
    if m:
        k = int(m.group(1))
        exps = tuple(int(t) for t in m.group(2).split("-") if t)
        check_table_work(name, k, (2 * len(exps)) ** 2)
        mats = lens_group(k, exps)
        if ambient is not None and mats[0].shape[0] != ambient:
            raise ModelMismatch(
                f"{name} acts on s{mats[0].shape[0] - 1}, not s{ambient - 1}"
            )
        return mats
    if name == "antipodal":
        if ambient is None:
            raise InvalidParameter("antipodal needs a declared sphere model")
        return [np.eye(ambient), -np.eye(ambient)]
    raise InvalidParameter(f"unknown sphere group {name!r}")


def group_manifold_deck(spec: CompactGroupSpec, name: str):
    """Left-translation deck groups on a compact group manifold."""
    if name == "center":
        return [left_translation_isometry(spec, z) for z in center_elements(spec)]
    m = re.fullmatch(r"cyclic-(\d+)", name)
    if m:
        order = int(m.group(1))
        if order < 1:
            raise InvalidParameter("cyclic order must be positive")
        d = spec.matrix_size
        # the deck is closed on its blocks diag(z g1, z g2), z central
        check_table_work(name, order * len(center_elements(spec)), (2 * d) ** 2)
        if spec.family == "SO":
            gen = np.eye(d)
            c, s = np.cos(2 * np.pi / order), np.sin(2 * np.pi / order)
            gen[:2, :2] = [[c, -s], [s, c]]
        else:
            zeta = np.exp(2j * np.pi / order)
            if spec.family == "SU":
                gen = np.diag([zeta, np.conj(zeta)] + [1.0] * (d - 2))
            else:
                A = np.diag([zeta] + [1.0] * (spec.n - 1))
                gen = np.block([[A, np.zeros_like(A)], [np.zeros_like(A), np.conj(A)]])
        return [left_translation_isometry(spec, g) for g in cyclic_powers(gen)]
    raise InvalidParameter(f"unknown group-manifold deck {name!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _emit(report: dict, output: str | None) -> None:
    """Write the report to ``output``, if given, then print it; an unwritable
    ``output`` is refused before anything reaches stdout."""
    text = json.dumps(report, sort_keys=True)  # no indent, so json's C encoder runs
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise InvalidParameter(f"cannot write --output {output!r}: {e.strerror or e}") from None
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): the verdict stands, and
        # stdout goes to devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _exit_code(verdict: str) -> int:
    return 0 if verdict in _PASS_VERDICTS else 1


# ---------------------------------------------------------------------------
# subcommands; each returns (inputs, tolerances, evidence, verdict), where
# tolerances holds every named tolerance that can change the verdict


def _cmd_construct(args):
    group = _quaternion_group_from_name(args.group)
    if group is not None:
        tag = classify(group)
        requested = _requested_tag(args.group)
        round_trip = tag == requested
        cons = check_space_form_constraints(group)
        evidence = {
            "order": group.order,
            "classification": tag.kind,
            "parameter": tag.param,
            "classification_round_trip": round_trip,
            "abelian_subgroups_cyclic": cons.abelian_subgroups_cyclic,
            "unique_central_involution": cons.unique_central_involution,
            "odd_sylow_cyclic": cons.odd_sylow_cyclic,
        }
        verdict = "Constructed" if round_trip else "ClassificationMismatch"
        return {"group": args.group}, {"closure": _tol.CLOSURE}, evidence, verdict
    mats = sphere_group_matrices(args.group)
    evidence = {"order": len(mats), "matrix_size": int(mats[0].shape[0])}
    return {"group": args.group}, {"closure": _tol.CLOSURE}, evidence, "Constructed"


def _sphere_matrices(args):
    """The inputs and the matrices of a check-clifford or check-free run on a
    sphere model: the deck named by --group, or the one orthogonal matrix of
    the model's size in --matrix-file."""
    model = parse_model(args.model)
    if not isinstance(model, SphereModel):
        raise InvalidParameter(f"{args.command} runs on sphere models")
    inputs = {"model": args.model}
    if args.matrix_file is None:  # an empty --matrix-file is a file name too
        inputs["group"] = args.group
        return inputs, sphere_group_matrices(args.group, model.ambient_dim)
    M = load_matrix(args.matrix_file)
    if M.shape != (model.ambient_dim, model.ambient_dim):
        raise ModelMismatch(
            f"matrix is {M.shape[0]}x{M.shape[1]}, model needs {model.ambient_dim}"
        )
    inputs["matrix_file"] = os.path.basename(args.matrix_file)
    return inputs, check_orthogonal(M)


def _cmd_check_clifford(args):
    inputs, mats = _sphere_matrices(args)
    tolerances = {"eigen": _tol.EIGEN}
    if args.matrix_file is None:
        tolerances["closure"] = _tol.CLOSURE
    constant, values = clifford_evidence(mats)
    elements = [
        {"id": i, "constant": bool(c), "value": float(v)}
        for i, (c, v) in enumerate(zip(constant, values))
    ]
    verdict = "ConstantDisplacement" if constant.all() else "NotConstantDisplacement"
    return inputs, tolerances, {"elements": elements}, verdict


def _cmd_check_free(args):
    inputs, mats = _sphere_matrices(args)
    deck = sphere_deck(mats if args.matrix_file is None else cyclic_powers(mats))
    res = is_free_on_sphere(deck.matrices)
    evidence = {"order": deck.order, "offender": res.offender}
    verdict = "Free" if res.free else "NotFree"
    return inputs, {"closure": _tol.CLOSURE, "eigen": _tol.EIGEN}, evidence, verdict


def _cmd_check_killing(args):
    group = re.fullmatch(r"(su|so|sp)\d+", args.space)
    hopf = re.fullmatch(r"hopf-(\d+)", args.space)
    if not (group or hopf or args.space == "so5-so3"):
        raise InvalidParameter(
            f"unknown space {args.space!r}: expected suN/soN/spN, hopf-M, or so5-so3"
        )
    # each flag acts on one kind of space only, and is refused on the others
    if args.field is not None and not hopf:
        raise InvalidParameter("--field applies to hopf-M spaces only")
    if args.directions is not None and args.space != "so5-so3":
        raise InvalidParameter("--directions applies to so5-so3 only")
    inputs = {"space": args.space}
    tolerances = {"relative_gap": _tol.DISPLACEMENT}
    rng = np.random.default_rng(args.seed)
    if group:
        spec = parse_model(args.space).spec
        xi = random_algebra_element(spec, rng, unit=True)
        # the isotropy is trivial and the trace form Ad-invariant, so the
        # field of ξ has length |Ad(g⁻¹)ξ| = |ξ| at every point g
        prof = _constant_length_profile(group_space(spec), xi, args.samples)
    elif hopf:
        mm = int(hopf.group(1))
        if mm + 1 > _MAX_GROUP_SIZE:
            raise InvalidParameter(
                f"hopf-M builds SU(M + 1): M must be at most {_MAX_GROUP_SIZE - 1}"
            )
        inputs["field"] = field = args.field or "right"
        space = hopf_sphere_space(mm)
        direction = u1_centralizer_direction(mm + 1, mm)
        if field == "right":
            # the u(1) direction normalizes 𝔥, so its frame is proj_𝔪 of it at
            # every point (catalog entry 15)
            prof = _constant_length_profile(space, direction, args.samples, right=True)
        else:
            prof = killing_length_profile(space, direction, args.samples, rng)
    else:
        directions = _KILLING_DIRECTIONS if args.directions is None else args.directions
        if directions * args.samples > _MAX_SAMPLES:
            raise InvalidParameter(f"--directions x --samples must be at most {_MAX_SAMPLES}")
        inputs["directions"] = directions
        space = so5_so3_space()
        gaps = []
        for _ in range(directions):
            xi = random_algebra_element(space.group, rng, unit=True)
            prof = killing_length_profile(space, xi, args.samples, rng)
            gaps.append(prof.relative_gap)
        evidence = {"directions": directions, "min_relative_gap": float(min(gaps))}
        verdict = "NotConstantLength" if min(gaps) > _tol.DISPLACEMENT else "ConstantLength"
        return inputs, tolerances, evidence, verdict
    verdict = "ConstantLength" if prof.relative_gap <= _tol.DISPLACEMENT else "NotConstantLength"
    return inputs, tolerances, _profile_evidence(prof), verdict


def _constant_length_profile(space, X, samples, *, right=False):
    """The profile of a Killing field whose length is that of ``X`` at every
    point: ``samples`` copies of ``space.tangent_length(X)``, no point drawn.
    ``X`` is refused as ``killing_length_profile`` refuses a direction: when
    it is not in the algebra or is zero, and, as a ``right`` field, when it
    does not normalize the isotropy algebra."""
    X = check_in_algebra(space.group, X)
    if not trace_norm(X) > _tol.ZERO:
        raise ZeroField("field direction is zero")
    if right and not _normalizes_isotropy(space, X):
        raise InvalidParameter("right component must normalize the isotropy algebra")
    return DisplacementProfile.from_values(np.full(samples, space.tangent_length(X)))


def _profile_evidence(prof):
    return {
        "min": prof.min,
        "max": prof.max,
        "mean": prof.mean,
        "gap": prof.gap,
        "relative_gap": prof.relative_gap if np.isfinite(prof.relative_gap) else None,
        "samples": prof.samples,
    }


def _cmd_check_berger(args):
    rep = berger_right_isometry_algebra(args.a, args.b)
    evidence = {
        "dimension": rep.dimension,
        "coefficients": {"a": args.a, "b": args.b},
    }
    return {"a": args.a, "b": args.b}, {}, evidence, "Computed"


def _cmd_check_homogeneity(args):
    model = parse_model(args.model)
    config = VerifyConfig(seed=args.seed, samples=args.samples)
    if isinstance(model, SphereModel):
        deck = sphere_deck(sphere_group_matrices(args.group, model.ambient_dim))
    else:
        deck = group_deck(model.spec, group_manifold_deck(model.spec, args.group))
    report = verify_instance(deck, config=config)
    evidence = report.to_json_dict()
    inputs = {
        "model": args.model,
        "group": args.group,
        "order": deck.order,
    }
    return inputs, evidence.pop("tolerances"), evidence, report.verdict


def _cmd_catalog(args):
    inputs = {"action": args.action}
    if args.path:
        inputs["path"] = os.path.basename(args.path)
    if args.action == "list":
        entries = catalog_load(args.path)
        evidence = {
            "entries": [
                {"id": e.id, "name": e.name, "G": e.G, "H": e.H} for e in entries
            ]
        }
        return inputs, {}, evidence, "Listed"
    inputs["entry"] = args.entry
    rep = catalog_verify(args.entry, path=args.path)
    evidence = {
        "entry": {"id": rep.entry.id, "name": rep.entry.name},
        "status": rep.status,
        "details": rep.details,
        "measurements": rep.evidence,
    }
    verdict = {
        "passed": "CatalogCheckPassed",
        "failed": "CatalogCheckFailed",
        "informational": "Informational",
    }[rep.status]
    return inputs, rep.tolerances, evidence, verdict


def _cmd_probe_noncompact(args):
    rng = np.random.default_rng(args.seed)
    motions = args.motions
    # euclidean: exact boundedness verdict vs "rotation part is the identity";
    # motion k has dimension 2 + k % 3 and is a pure translation iff k is even
    pure, agree = np.arange(motions) % 2 == 0, 0
    for dim in (2, 3, 4)[:motions]:  # a dimension without motions is skipped
        want = pure[dim - 2 :: 3]
        A = np.tile(np.eye(dim), (want.size, 1, 1))
        A[~want] = haar_orthogonal(dim, rng, int(np.sum(~want)))
        bounded, _ = euclidean_bounded(EuclideanMotion(A, rng.standard_normal((want.size, dim))))
        agree += int(np.sum(bounded == want))
    # hyperbolic: strict growth for non-central motions, zero for +-I; det 1 by
    # construction: a > 0 and d = (1 + bc) / a
    a = np.exp(rng.standard_normal(motions))
    b, c = rng.standard_normal((2, motions))
    m = np.stack([a, b, c, (1.0 + b * c) / a], axis=-1).reshape(-1, 2, 2)
    _, sups = hyperbolic_bounded_probe(HyperbolicMotion(m))
    strict = int(np.sum(np.all(sups[:, 1:] > sups[:, :-1], axis=1)))
    _, central = hyperbolic_bounded_probe(HyperbolicMotion(np.stack([np.eye(2), -np.eye(2)])))
    central_zero = bool(np.all(central == 0.0))
    evidence = {"motions": motions, "euclidean_exact_agreements": agree,
                "hyperbolic_strictly_increasing": strict, "central_displacement_zero": central_zero}
    verdict = "ProbesConsistent" if agree == strict == motions and central_zero else "ProbeMismatch"
    return {"motions": motions}, {"closure": _tol.CLOSURE}, evidence, verdict


# ---------------------------------------------------------------------------
# argument parsing


def _count(low: int, high: int):
    """An argparse type: an integer from ``low`` to ``high``."""
    def count(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = low - 1
        if not low <= n <= high:
            raise argparse.ArgumentTypeError(f"must be an integer from {low} to {high}, got {text!r}")
        return n
    return count


def _add_common(p: argparse.ArgumentParser, samples: bool = False) -> None:
    """--seed and --output on every subcommand; --samples only where the
    subcommand reads it, so a flag it would ignore is refused.  The
    exceptions: check-clifford, check-homogeneity and catalog verify draw no
    points but still take and range-check --samples, which existing scripts
    pass them."""
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", type=str, default=None)
    if samples:
        p.add_argument("--samples", type=_count(10, _MAX_SAMPLES), default=1000)


class _Parser(argparse.ArgumentParser):
    """Refuses bad usage like every other configuration error: a
    HomoglabError, reported as one line on stderr with exit code 2."""

    def error(self, message):
        raise InvalidParameter(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="homoglab",
        description="Constant-displacement isometries and homogeneity checks "
        "on spheres and compact group manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a named group and report its shape")
    p.add_argument("--group", required=True)
    _add_common(p)

    p = sub.add_parser("check-clifford", help="constant-displacement test on a sphere")
    p.add_argument("--model", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group")
    src.add_argument("--matrix-file")
    _add_common(p, samples=True)

    p = sub.add_parser("check-free", help="fixed-point-freeness test on a sphere")
    p.add_argument("--model", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group")
    src.add_argument("--matrix-file")
    _add_common(p)

    p = sub.add_parser("check-killing", help="Killing-field length profile")
    p.add_argument("--space", required=True)
    # None when not given: each is refused on the spaces it does not act on
    p.add_argument("--field", choices=["left", "right"], default=None)
    p.add_argument("--directions", type=_count(1, _MAX_SAMPLES), default=None)
    _add_common(p, samples=True)

    p = sub.add_parser("check-berger", help="right-isometry algebra of a left-invariant metric on the 3-sphere group")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("check-homogeneity", help="run the full homogeneity pipeline")
    p.add_argument("--model", required=True)
    p.add_argument("--group", required=True)
    _add_common(p, samples=True)

    p = sub.add_parser("catalog", help="list or verify catalog entries")
    actions = p.add_subparsers(dest="action", required=True)
    p = actions.add_parser("list", help="list the catalog entries")
    p.add_argument("--path", default=None)
    _add_common(p)
    p = actions.add_parser("verify", help="verify one catalog entry")
    p.add_argument("entry", type=int)
    p.add_argument("--path", default=None)
    _add_common(p, samples=True)

    p = sub.add_parser("probe-noncompact", help="bounded-displacement probes on flat and hyperbolic space")
    p.add_argument("--motions", type=_count(1, _MAX_MOTIONS), default=100)
    _add_common(p)

    return parser


_PARSER = build_parser()  # parse_args keeps no state between calls

_DISPATCH = {
    "construct": _cmd_construct,
    "check-clifford": _cmd_check_clifford,
    "check-free": _cmd_check_free,
    "check-killing": _cmd_check_killing,
    "check-berger": _cmd_check_berger,
    "check-homogeneity": _cmd_check_homogeneity,
    "catalog": _cmd_catalog,
    "probe-noncompact": _cmd_probe_noncompact,
}


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        if args.seed < 0:
            raise InvalidParameter("--seed must be non-negative")
        start = time.perf_counter()
        inputs, tolerances, evidence, verdict = _DISPATCH[args.command](args)
        wall = (time.perf_counter() - start) * 1000.0
        report = {
            "command": args.command,
            "inputs": inputs,
            "seed": args.seed,
            "tolerances": tolerances,
            "evidence": evidence,
            "verdict": verdict,
            "wall_time_ms": round(wall, 3),
        }
        _emit(report, args.output)
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 2
    except HomoglabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return _exit_code(verdict)


if __name__ == "__main__":
    sys.exit(main())
