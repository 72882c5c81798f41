"""Command-line interface: construct groups, run displacement/freeness/Killing
checks, drive the homogeneity pipeline, verify catalog entries, and probe
noncompact model spaces.  Every run emits one JSON report with the fields
command, inputs, seed, tolerances, evidence, verdict, wall_time_ms; the report
validates against data/report_schema.json.

Exit codes: 0 for a pass/witness verdict, 1 for a fail verdict, 2 for usage or
configuration errors.  Identical command + seed give byte-identical evidence
(wall_time_ms is outside the determinism claim).

Matrix files are plain text: first line the size n, then n rows of n
whitespace-separated entries, complex entries written as "re,im".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time

import numpy as np

from .compact_lie import (
    CompactGroupSpec,
    center_elements,
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
from .errors import HomoglabError, InvalidParameter, ModelMismatch, ParseError
from .finite_groups import (
    GroupType,
    check_space_form_constraints,
    classify,
    named_binary_group,
)
from .homogeneous import (
    berger_right_isometry_algebra,
    catalog_load,
    catalog_verify,
    group_space,
    hopf_sphere_space,
    killing_length_profile,
    so5_so3_space,
    u1_centralizer_direction,
)
from .profiles import constant_length_verdict
from .verifier import (
    GroupManifoldModel,
    SphereModel,
    VerifyConfig,
    group_deck,
    left_translation_isometry,
    sphere_deck,
    verify_instance,
)

SEED_ENV = "HOMOGLAB_SEED"

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


def format_matrix(M: np.ndarray) -> str:
    M = np.asarray(M)
    lines = [str(M.shape[0])]
    for row in M:
        if np.iscomplexobj(M):
            lines.append(" ".join(f"{z.real:.17g},{z.imag:.17g}" for z in row))
        else:
            lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


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
    is_complex = False
    for k, ln in enumerate(lines[1:], start=2):
        tokens = ln.split()
        if len(tokens) != n:
            raise ParseError(f"line {k}: expected {n} entries, got {len(tokens)}")
        row = []
        for tok in tokens:
            try:
                if "," in tok:
                    re_s, im_s = tok.split(",")
                    row.append(complex(float(re_s), float(im_s)))
                    is_complex = True
                else:
                    row.append(float(tok))
            except ValueError:
                raise ParseError(f"line {k}: cannot parse entry {tok!r}")
        rows.append(row)
    return np.array(rows, dtype=complex if is_complex else float)


def load_matrix(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            return parse_matrix_text(fh.read())
    except OSError as e:
        raise ParseError(f"cannot read matrix file {path}: {e}")


# ---------------------------------------------------------------------------
# name parsing

_BINARY_TAGS = {
    "binary-tetrahedral": GroupType.binary_tetrahedral,
    "binary-octahedral": GroupType.binary_octahedral,
    "binary-icosahedral": GroupType.binary_icosahedral,
}


_MAX_GROUP_SIZE = 12  # matrix groups above this are outside the intended scope


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
        if dim < 2:
            raise InvalidParameter("sphere models start at s2")
        return SphereModel(dim + 1)
    raise InvalidParameter(
        f"unknown model {name!r}: expected sN (sphere) or suN/soN/spN (group manifold)"
    )


def _quaternion_group_from_name(name: str):
    m = re.fullmatch(r"cyclic-(\d+)", name)
    if m:
        return named_binary_group(GroupType.cyclic(int(m.group(1))))
    m = re.fullmatch(r"binary-dihedral-(\d+)", name)
    if m:
        return named_binary_group(GroupType.binary_dihedral(int(m.group(1))))
    if name in _BINARY_TAGS:
        return named_binary_group(_BINARY_TAGS[name]())
    return None


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
        zeta = np.exp(2j * np.pi / order)
        if spec.family == "SO":
            if order > 2 and d < 2:
                raise InvalidParameter("rotation block needs size >= 2")
            block = np.eye(d)
            c, s = np.cos(2 * np.pi / order), np.sin(2 * np.pi / order)
            block[:2, :2] = [[c, -s], [s, c]]
            gen = block
        elif spec.family == "SU":
            gen = np.diag([zeta, np.conj(zeta)] + [1.0] * (d - 2)).astype(complex)
        else:
            n = spec.n
            A = np.diag([zeta] + [1.0] * (n - 1)).astype(complex)
            gen = np.block(
                [[A, np.zeros((n, n))], [np.zeros((n, n)), np.conj(A)]]
            )
        out, g = [], spec.identity().astype(complex)
        for _ in range(order):
            out.append(left_translation_isometry(spec, g))
            g = g @ gen
        return out
    raise InvalidParameter(f"unknown group-manifold deck {name!r}")


# ---------------------------------------------------------------------------
# report plumbing


def _emit(report: dict, output: str | None) -> None:
    text = json.dumps(report, sort_keys=True, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    print(text, flush=True)


def _exit_code(verdict: str) -> int:
    return 0 if verdict in _PASS_VERDICTS else 1


# ---------------------------------------------------------------------------
# subcommands; each returns (inputs, tolerances, evidence, verdict)


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


def _cmd_construct(args, rng):
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
        return {"group": args.group}, {}, evidence, verdict
    mats = sphere_group_matrices(args.group)
    evidence = {"order": len(mats), "matrix_size": int(mats[0].shape[0])}
    return {"group": args.group}, {}, evidence, "Constructed"


def _real_orthogonal_from_file(path: str, model: SphereModel) -> np.ndarray:
    M = load_matrix(path)
    if np.iscomplexobj(M):
        if np.max(np.abs(M.imag)) > 0:
            raise ModelMismatch("sphere isometries must be real orthogonal")
        M = M.real
    if M.shape != (model.ambient_dim, model.ambient_dim):
        raise ModelMismatch(
            f"matrix is {M.shape[0]}x{M.shape[1]}, model needs {model.ambient_dim}"
        )
    return check_orthogonal(M)


def _cmd_check_clifford(args, rng):
    model = parse_model(args.model)
    if not isinstance(model, SphereModel):
        raise InvalidParameter("check-clifford runs on sphere models")
    inputs = {"model": args.model}
    if args.matrix_file:
        mats = [_real_orthogonal_from_file(args.matrix_file, model)]
        inputs["matrix_file"] = os.path.basename(args.matrix_file)
    else:
        mats = sphere_group_matrices(args.group, model.ambient_dim)
        inputs["group"] = args.group
    constant, values = clifford_evidence(mats, args.samples, rng, tol=1e-9)
    elements = [
        {"id": i, "constant": bool(c), "value": float(v)}
        for i, (c, v) in enumerate(zip(constant, values))
    ]
    verdict = (
        "ConstantDisplacement"
        if all(e["constant"] for e in elements)
        else "NotConstantDisplacement"
    )
    return inputs, {"eigen": 1e-9}, {"elements": elements}, verdict


def _cmd_check_free(args, rng):
    model = parse_model(args.model)
    if not isinstance(model, SphereModel):
        raise InvalidParameter("check-free runs on sphere models")
    inputs = {"model": args.model}
    if args.matrix_file:
        mats = cyclic_powers(_real_orthogonal_from_file(args.matrix_file, model))
        inputs["matrix_file"] = os.path.basename(args.matrix_file)
    else:
        mats = sphere_group_matrices(args.group, model.ambient_dim)
        inputs["group"] = args.group
    res = is_free_on_sphere(mats, tol=1e-9)
    evidence = {"order": len(mats), "offender": res.offender}
    verdict = "Free" if res.free else "NotFree"
    return inputs, {"eigen": 1e-9}, evidence, verdict


def _cmd_check_killing(args, rng):
    if args.directions < 1:
        raise InvalidParameter("--directions must be >= 1")
    inputs = {"space": args.space, "field": args.field, "directions": args.directions}
    tolerances = {"relative_gap": args.tol}
    m = re.fullmatch(r"(su|so|sp)(\d+)", args.space)
    if m:
        n = int(m.group(2))
        if not 2 <= n <= _MAX_GROUP_SIZE:
            raise InvalidParameter(f"group size must be between 2 and {_MAX_GROUP_SIZE}")
        spec = CompactGroupSpec({"su": "SU", "so": "SO", "sp": "Sp"}[m.group(1)], n)
        space = group_space(spec)
        xi = random_algebra_element(spec, rng, unit=True)
        prof = killing_length_profile(space, xi, args.samples, rng)
        evidence = _profile_evidence(prof)
        verdict = (
            "ConstantLength"
            if constant_length_verdict(prof, rel_tol=args.tol)
            else "NotConstantLength"
        )
        return inputs, tolerances, evidence, verdict
    m = re.fullmatch(r"hopf-(\d+)", args.space)
    if m:
        mm = int(m.group(1))
        space = hopf_sphere_space(mm)
        direction = u1_centralizer_direction(mm + 1, mm)
        if args.field == "right":
            prof = killing_length_profile(space, None, args.samples, rng, right=direction)
        else:
            prof = killing_length_profile(space, direction, args.samples, rng)
        evidence = _profile_evidence(prof)
        verdict = (
            "ConstantLength"
            if constant_length_verdict(prof, rel_tol=args.tol)
            else "NotConstantLength"
        )
        return inputs, tolerances, evidence, verdict
    if args.space == "so5-so3":
        space = so5_so3_space()
        gaps = []
        for _ in range(args.directions):
            xi = random_algebra_element(space.group, rng, unit=True)
            prof = killing_length_profile(space, xi, args.samples, rng)
            gaps.append(prof.relative_gap)
        evidence = {"directions": args.directions, "min_relative_gap": float(min(gaps))}
        verdict = (
            "NotConstantLength" if min(gaps) > args.tol else "ConstantLength"
        )
        return inputs, tolerances, evidence, verdict
    raise InvalidParameter(
        f"unknown space {args.space!r}: expected suN/soN/spN, hopf-M, or so5-so3"
    )


def _profile_evidence(prof):
    return {
        "min": prof.min,
        "max": prof.max,
        "mean": prof.mean,
        "gap": prof.gap,
        "relative_gap": prof.relative_gap if np.isfinite(prof.relative_gap) else None,
        "samples": prof.samples,
    }


def _cmd_check_berger(args, rng):
    rep = berger_right_isometry_algebra(args.a, args.b)
    evidence = {
        "dimension": rep.dimension,
        "coefficients": {"a": args.a, "b": args.b},
    }
    return {"a": args.a, "b": args.b}, {}, evidence, "Computed"


def _cmd_check_homogeneity(args, rng):
    model = parse_model(args.model)
    config = VerifyConfig(seed=args.seed, samples=args.samples, tol=args.tol)
    if isinstance(model, SphereModel):
        deck = sphere_deck(
            sphere_group_matrices(args.group, model.ambient_dim), model.ambient_dim
        )
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


def _cmd_catalog(args, rng):
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
    if args.entry is None:
        raise InvalidParameter("catalog verify needs an entry id")
    inputs["entry"] = args.entry
    rep = catalog_verify(args.entry, path=args.path, rng=rng, samples=args.samples)
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
    return inputs, {}, evidence, verdict


def _cmd_probe_noncompact(args, rng):
    motions = args.motions
    if motions < 1:
        raise InvalidParameter("--motions must be >= 1")
    # euclidean: exact boundedness verdict vs "rotation part is the identity"
    agree = 0
    for k in range(motions):
        dim = 2 + (k % 3)
        pure = k % 2 == 0
        if pure:
            A = np.eye(dim)
        else:
            A = haar_orthogonal(dim, rng)
        b = rng.standard_normal(dim)
        bounded, growth = euclidean_bounded(EuclideanMotion(A, b))
        if bounded == pure:
            agree += 1
    # hyperbolic: strict growth for non-central motions, zero for +-I
    strict = 0
    for _ in range(motions):
        m = rng.standard_normal((2, 2))
        det = np.linalg.det(m)
        if abs(det) < 1e-3:
            m = m + np.eye(2)
            det = np.linalg.det(m)
        if det < 0:
            m[0] = -m[0]
            det = -det
        m = m / np.sqrt(det)
        _, sups = hyperbolic_bounded_probe(HyperbolicMotion(m))
        if all(b > a for a, b in zip(sups, sups[1:])):
            strict += 1
    central_zero = True
    for sgn in (1.0, -1.0):
        _, sups = hyperbolic_bounded_probe(HyperbolicMotion(sgn * np.eye(2)))
        central_zero = central_zero and max(sups) == 0.0
    evidence = {
        "motions": motions,
        "euclidean_exact_agreements": agree,
        "hyperbolic_strictly_increasing": strict,
        "central_displacement_zero": central_zero,
    }
    ok = agree == motions and strict == motions and central_zero
    return (
        {"motions": motions},
        {},
        evidence,
        "ProbesConsistent" if ok else "ProbeMismatch",
    )


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    # a string default goes through type=int, so a malformed variable is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get(SEED_ENV, "0"))
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--output", type=str, default=None)


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
    _add_common(p)

    p = sub.add_parser("check-free", help="fixed-point-freeness test on a sphere")
    p.add_argument("--model", required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--group")
    src.add_argument("--matrix-file")
    _add_common(p)

    p = sub.add_parser("check-killing", help="Killing-field length profile")
    p.add_argument("--space", required=True)
    p.add_argument("--field", choices=["left", "right"], default="right")
    p.add_argument("--directions", type=int, default=25)
    _add_common(p)

    p = sub.add_parser("check-berger", help="right-isometry algebra of a left-invariant metric on the 3-sphere group")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    _add_common(p)

    p = sub.add_parser("check-homogeneity", help="run the full homogeneity pipeline")
    p.add_argument("--model", required=True)
    p.add_argument("--group", required=True)
    _add_common(p)

    p = sub.add_parser("catalog", help="list or verify catalog entries")
    p.add_argument("action", choices=["list", "verify"])
    p.add_argument("entry", type=int, nargs="?")
    p.add_argument("--path", default=None)
    _add_common(p)

    p = sub.add_parser("probe-noncompact", help="bounded-displacement probes on flat and hyperbolic space")
    p.add_argument("--motions", type=int, default=100)
    _add_common(p)

    return parser


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
        args = build_parser().parse_args(argv)
        if args.samples < 10:
            raise InvalidParameter("--samples must be >= 10")
        if not 0 < args.tol < math.inf:
            raise InvalidParameter("--tol must be positive and finite")
        if args.seed < 0:
            raise InvalidParameter("--seed must be non-negative")
        rng = np.random.default_rng(args.seed)
        start = time.perf_counter()
        inputs, tolerances, evidence, verdict = _DISPATCH[args.command](args, rng)
    except SystemExit as e:  # --help
        return 0 if e.code in (0, None) else 2
    except HomoglabError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
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
    try:
        _emit(report, args.output)
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): the verdict stands, and
        # stdout goes to devnull so the flush at exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return _exit_code(verdict)


if __name__ == "__main__":
    sys.exit(main())
