"""CLI contract: exit codes, JSON report shape, determinism, matrix files."""

import argparse
import contextlib
import functools
import io
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jsonschema

import homoglab
from homoglab import _tol, cli, finite_groups
from homoglab.cli import build_parser, format_matrix, load_matrix, main, parse_matrix_text
from homoglab.constant_curvature import lens_group
from homoglab.errors import ParseError
from homoglab.profiles import DisplacementProfile

try:
    from importlib.resources import files

    SCHEMA = json.loads(
        files("homoglab").joinpath("data/report_schema.json").read_text()
    )
except Exception:  # pragma: no cover
    SCHEMA = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def check_schema(report):
    if SCHEMA is not None:
        jsonschema.validate(report, SCHEMA)


# ---------------------------------------------------------------------------
# the three documented invocations


def test_homogeneity_binary_icosahedral(capsys):
    code, rep = run_cli(
        capsys, "check-homogeneity", "--model", "s3", "--group",
        "binary-icosahedral", "--seed", "42",
    )
    assert code == 0
    assert rep["verdict"] == "HomogeneousWitnessFound"
    check_schema(rep)


def test_clifford_matrix_file_fail_case(capsys, tmp_path):
    gen = lens_group(5, (1, 2))[1]
    f = tmp_path / "lens_5_12.txt"
    f.write_text(format_matrix(gen))
    code, rep = run_cli(capsys, "check-clifford", "--model", "s3", "--matrix-file", str(f))
    assert code == 1
    assert rep["verdict"] == "NotConstantDisplacement"
    (entry,) = rep["evidence"]["elements"]
    assert not entry["constant"] and entry["value"] > 0.1
    check_schema(rep)


def test_catalog_verify_entry_10(capsys):
    code, rep = run_cli(capsys, "catalog", "verify", "10")
    assert code == 0
    assert rep["verdict"] == "CatalogCheckPassed"
    assert rep["evidence"]["status"] == "passed"
    found = rep["evidence"]["measurements"]
    assert set(found) == {"certified_min", "component_dims", "touched_dims", "untouched_max"}
    assert abs(found["certified_min"] - 1 / np.sqrt(2)) <= 1e-12
    assert found["component_dims"] == [1, 5, 14, 35] and found["touched_dims"] == [35]
    assert found["untouched_max"] <= _tol.BRACKET
    check_schema(rep)


# ---------------------------------------------------------------------------
# report envelope


def test_report_field_set(capsys):
    code, rep = run_cli(capsys, "construct", "--group", "binary-dihedral-3")
    assert code == 0
    assert set(rep) == {
        "command",
        "inputs",
        "seed",
        "tolerances",
        "evidence",
        "verdict",
        "wall_time_ms",
    }
    assert rep["command"] == "construct"
    assert rep["verdict"] == "Constructed"
    assert rep["evidence"]["order"] == 12
    check_schema(rep)


def test_construct_classifies_catalogued_groups(capsys):
    for name, order in [("cyclic-7", 7), ("binary-tetrahedral", 24), ("binary-icosahedral", 120)]:
        code, rep = run_cli(capsys, "construct", "--group", name)
        assert code == 0 and rep["evidence"]["order"] == order
        assert rep["evidence"]["classification_round_trip"] is True
        assert rep["evidence"]["odd_sylow_cyclic"] is True
        assert rep["evidence"]["abelian_subgroups_cyclic"] is True


def test_determinism_modulo_wall_time(capsys):
    argv = ["check-homogeneity", "--model", "s3", "--group", "lens-7-1-1", "--seed", "5"]
    _, a = run_cli(capsys, *argv)
    _, b = run_cli(capsys, *argv)
    a.pop("wall_time_ms"), b.pop("wall_time_ms")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


@pytest.mark.parametrize(
    "argv",
    [["check-homogeneity", "--model", "s5", "--group", "lens-9-1-2-4"],
     ["check-homogeneity", "--model", "so4", "--group", "cyclic-3"],
     ["check-clifford", "--model", "s3", "--group", "lens-7-1-2"],
     ["catalog", "verify", "1"],
     ["catalog", "verify", "10"],
     ["catalog", "verify", "15"],
     ["catalog", "verify", "17"]],
    ids=["sphere-pipeline", "group-pipeline", "check-clifford", "catalog-1", "catalog-10",
         "catalog-15", "catalog-17"],
)
def test_seed_and_samples_do_not_move_a_drawless_report(capsys, argv):
    """check-homogeneity, check-clifford and catalog verify draw no point:
    --seed is only recorded, and --samples is range-checked and otherwise
    unread."""
    _, a = run_cli(capsys, *argv, "--seed", "1", "--samples", "10")
    _, b = run_cli(capsys, *argv, "--seed", "2", "--samples", "5000")
    for rep, seed in ((a, 1), (b, 2)):
        assert rep.pop("seed") == rep["evidence"].pop("seed", seed) == seed
        rep.pop("wall_time_ms")
    assert a == b


def test_seed_env_variable(capsys, monkeypatch):
    """--seed defaults to 0, and no environment variable sets it."""
    monkeypatch.setenv("HOMOGLAB_SEED", "777")
    _, rep = run_cli(capsys, "check-free", "--model", "s3", "--group", "cyclic-4")
    assert rep["seed"] == 0
    _, rep = run_cli(capsys, "check-free", "--model", "s3", "--group", "cyclic-4", "--seed", "5")
    assert rep["seed"] == 5


_ONE_RUN_EACH = [
    ["construct", "--group", "binary-tetrahedral"],
    ["check-clifford", "--model", "s3", "--group", "lens-7-1-2"],
    ["check-free", "--model", "s3", "--group", "cyclic-4"],
    ["check-killing", "--space", "hopf-1", "--samples", "20"],
    ["check-berger", "--a", "1.0", "--b", "1.0"],
    ["check-homogeneity", "--model", "s3", "--group", "binary-icosahedral"],
    ["catalog", "list"],
    ["probe-noncompact", "--motions", "3"],
]


@pytest.mark.parametrize("argv", _ONE_RUN_EACH, ids=[argv[0] for argv in _ONE_RUN_EACH])
def test_a_report_is_one_sorted_line_and_the_output_file_holds_it(capsys, tmp_path, argv):
    """A report prints as one line of JSON with sorted keys and the C
    encoder's default separators; --output writes the same text."""
    assert {a[0] for a in _ONE_RUN_EACH} == set(SCHEMA["properties"]["command"]["enum"])
    out = tmp_path / "rep.json"
    main([*argv, "--output", str(out)])
    printed = capsys.readouterr().out
    (line,) = printed.splitlines()
    assert printed == line + "\n"
    assert line == json.dumps(json.loads(line), sort_keys=True)
    assert out.read_text() == printed


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
def test_unwritable_output_exits_2_with_one_stderr_line(capsys, tmp_path, where):
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code = main(["construct", "--group", "cyclic-1", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: cannot write --output")


def test_every_report_records_its_deciding_tolerances(capsys):
    sphere = {"closure": _tol.CLOSURE, "eigen": _tol.EIGEN}
    pipeline = {"displacement": _tol.DISPLACEMENT, "closure": _tol.CLOSURE,
                "rank_cutoff": _tol.RANK_CUTOFF}
    few = ["--samples", "20"]
    runs = [
        (["construct", "--group", "binary-tetrahedral"], {"closure": _tol.CLOSURE}),
        (["construct", "--group", "lens-5-1-2"], {"closure": _tol.CLOSURE}),
        (["check-clifford", "--model", "s3", "--group", "cyclic-4", *few], sphere),
        (["check-free", "--model", "s3", "--group", "cyclic-4"], sphere),
        (["check-killing", "--space", "hopf-1", *few], {"relative_gap": _tol.DISPLACEMENT}),
        (["check-berger", "--a", "0.5", "--b", "1"], {}),
        (["check-homogeneity", "--model", "s3", "--group", "cyclic-4", *few],
         {**pipeline, "eigen": _tol.EIGEN}),
        (["check-homogeneity", "--model", "su2", "--group", "center", *few],
         {**pipeline, "eigen": _tol.EIGEN, "central": _tol.CENTRAL}),
        (["catalog", "verify", "1", *few], {"eigen": _tol.EIGEN, "geodesic": _tol.GEODESIC}),
        (["catalog", "verify", "10", *few], {"bracket": _tol.BRACKET}),
        (["catalog", "verify", "15", *few], {"bracket": _tol.BRACKET}),
        (["catalog", "verify", "17", *few], {}),
        (["catalog", "verify", "2", *few], {}),
        (["catalog", "list"], {}),
        (["probe-noncompact", "--motions", "3"], {"closure": _tol.CLOSURE}),
    ]
    assert {argv[0] for argv, _ in runs} == set(SCHEMA["properties"]["command"]["enum"])
    for argv, want in runs:
        _, rep = run_cli(capsys, *argv)
        assert rep["tolerances"] == want, argv


@pytest.mark.parametrize(
    "model,group",
    [("s3", g) for g in ("cyclic-12", "binary-dihedral-6", "binary-tetrahedral",
                         "binary-octahedral", "binary-icosahedral", "antipodal", "lens-5-1-1")]
    + [("s7", "lens-12-1-1-1-1")],
)
def test_sphere_witness_holds_at_a_tight_tolerance(capsys, model, group):
    """The exact forward re-check of a Clifford-Wolf deck stays at round-off,
    far below 1e-10, near displacement 0 and pi too."""
    code, rep = run_cli(capsys, "check-homogeneity", "--model", model, "--group", group,
                        "--samples", "200")
    assert code == 0, rep["verdict"]
    assert rep["evidence"]["rank_evidence"]["forward_max_gap"] <= 1e-10


def _fresh_env():
    """The environment of a new interpreter that imports this homoglab."""
    src = str(Path(homoglab.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_closed_stdout_keeps_the_exit_code_and_the_output_file(tmp_path):
    out = tmp_path / "rep.json"
    proc = subprocess.Popen(
        [sys.executable, "-m", "homoglab.cli", "check-homogeneity", "--model", "s5",
         "--group", "lens-9-1-2-4", "--samples", "20", "--output", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_fresh_env(),
    )
    proc.stdout.close()  # the reader is gone before the report is written
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1, err
    assert "Traceback" not in err and err == ""
    assert json.loads(out.read_text())["verdict"] == "NotConstantDisplacement"


def test_import_loads_no_scipy():
    """The CLI runs on numpy alone: importing scipy.linalg would more than
    double the start-up time of every process."""
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, homoglab.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=_fresh_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------------
# one parser per process: no state carries over from one main call to the next

_AFTER = ("check-killing", "--space", "hopf-1", "--samples", "50")


@pytest.fixture(scope="module")
def fresh_report():
    """Exit code and report of an argv in a new interpreter, without
    wall_time_ms; one interpreter per argv."""

    @functools.cache
    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "homoglab.cli", *argv],
                              capture_output=True, text=True, env=_fresh_env(), timeout=120)
        report = json.loads(proc.stdout)
        report.pop("wall_time_ms")
        return proc.returncode, report

    return run


@pytest.mark.parametrize(
    "before,code,after",
    [
        (["check-homogeneity", "--model", "s3", "--group", "no-such-group"], 2, _AFTER),
        (["check-killing", "--space", "hopf-1", "--field", "up"], 2, _AFTER),
        (["--help"], 0, _AFTER),
        (["check-killing", "--help"], 0, _AFTER),
        (["construct", "--group", "cyclic-3"], 0, _AFTER),
        (["check-killing", "--space", "hopf-1", "--field", "left", "--samples", "20",
          "--seed", "9"], 0, _AFTER),
        (["check-killing", "--space", "hopf-1", "--directions", "5"], 2, _AFTER),
        # the named spaces and the Sym² split are built once per process: a
        # run that reads them again prints what a fresh process prints
        (["catalog", "verify", "10"], 0, ("catalog", "verify", "10")),
        (["check-killing", "--space", "hopf-2", "--field", "left", "--samples", "20",
          "--seed", "9"], 1, ("check-killing", "--space", "hopf-2", "--field", "right")),
        (["check-killing", "--space", "so5-so3", "--directions", "2", "--samples", "20",
          "--seed", "9"], 1, ("check-killing", "--space", "so5-so3", "--directions", "3")),
    ],
    ids=["unknown-group", "bad-choice", "help", "subcommand-help", "other-subcommand",
         "other-options", "refused-flag", "catalog-10-twice", "hopf-2-left-then-right",
         "so5-so3-twice"],
)
def test_a_run_after_another_matches_a_fresh_interpreter(
    capsys, fresh_report, before, code, after
):
    assert main(before) == code
    capsys.readouterr()
    got, report = run_cli(capsys, *after)
    report.pop("wall_time_ms")
    assert (got, report) == fresh_report(after)


# ---------------------------------------------------------------------------
# verdicts and exit codes across subcommands


def test_clifford_pass_for_named_group(capsys):
    code, rep = run_cli(capsys, "check-clifford", "--model", "s3", "--group", "binary-octahedral")
    assert code == 0
    assert rep["verdict"] == "ConstantDisplacement"
    assert all(e["constant"] for e in rep["evidence"]["elements"])


def test_free_pass_for_named_group(capsys):
    code, rep = run_cli(capsys, "check-free", "--model", "s3", "--group", "binary-dihedral-4")
    assert code == 0
    assert rep["verdict"] == "Free" and rep["evidence"]["offender"] is None


@pytest.mark.parametrize(
    "argv,order",
    [
        (("check-homogeneity", "--model", "s3", "--group", "binary-icosahedral"), 120),
        (("construct", "--group", "binary-icosahedral"), 120),
        (("check-free", "--model", "s3", "--group", "binary-icosahedral"), 120),
        (("check-free", "--model", "s3", "--matrix-file", "lens_5_12.txt"), 5),
    ],
    ids=["check-homogeneity", "construct", "check-free", "check-free-matrix-file"],
)
def test_a_quaternion_deck_is_closed_once(capsys, monkeypatch, tmp_path, argv, order):
    """One closure per run, through the one walk of finite_groups: a deck run
    certifies its list once (closure_certificate) and builds no table;
    construct reads the quaternion group's one Cayley table off the walk
    (cayley_table), and the table and its element orders, computed once,
    serve classify and the space-form screen;
    is_free_on_sphere closes nothing.  The walk forms its products as at most
    floor(log2 k) columns of k products each, every one paired by _pair, so
    no run forms the k^2 products of the whole table."""
    from homoglab import finite_groups

    if "--matrix-file" in argv:
        path = tmp_path / argv[-1]
        path.write_text(format_matrix(lens_group(5, (1, 2))[1]))
        argv = argv[:-1] + (str(path),)
    built, walks, columns = [], [], []
    for closure in ("cayley_table", "closure_certificate"):

        def counting(mats, closure=closure, original=getattr(finite_groups, closure)):
            built.append((closure, len(mats)))
            return original(mats)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "homoglab" and hasattr(module, closure):
                monkeypatch.setattr(module, closure, counting)

    def walking(mats, original=finite_groups._walk):
        walks.append(len(mats))
        return original(mats)

    def pairing(prods, flat, order, original=finite_groups._pair):
        columns.append(prods.shape)
        return original(prods, flat, order)

    def ordering(table, identity, original=finite_groups.element_orders):
        orders.append(len(table))
        return original(table, identity)

    orders = []
    monkeypatch.setattr(finite_groups, "_walk", walking)
    monkeypatch.setattr(finite_groups, "_pair", pairing)
    monkeypatch.setattr(finite_groups, "element_orders", ordering)
    code, _ = run_cli(capsys, *argv)
    assert code == 0
    construct = argv[0] == "construct"
    assert built == [("cayley_table" if construct else "closure_certificate", order)]
    assert walks == [order]
    # construct reads the orders once, for classify and the space-form screen
    assert orders == ([order] if construct else [])
    # binary-icosahedral: at most floor(log2 120) = 6 columns of 120 products
    assert 1 <= len(columns) <= order.bit_length() - 1
    assert set(columns) == {(order, 16)}


def test_free_flags_fixed_points(capsys, tmp_path):
    g = np.eye(4)
    c, s = np.cos(2 * np.pi / 3), np.sin(2 * np.pi / 3)
    g[:2, :2] = [[c, -s], [s, c]]
    f = tmp_path / "rot.txt"
    f.write_text(format_matrix(g))
    code, rep = run_cli(capsys, "check-free", "--model", "s3", "--matrix-file", str(f))
    assert code == 1
    assert rep["verdict"] == "NotFree"
    assert rep["evidence"]["order"] == 3  # cyclic closure of the generator
    assert rep["evidence"]["offender"] == 1


def test_killing_left_vs_right_on_hopf(capsys):
    code, rep = run_cli(capsys, "check-killing", "--space", "hopf-2", "--field", "right")
    assert code == 0 and rep["verdict"] == "ConstantLength"
    code, rep = run_cli(capsys, "check-killing", "--space", "hopf-2", "--field", "left")
    assert code == 1 and rep["verdict"] == "NotConstantLength"
    assert rep["evidence"]["relative_gap"] > 0.3


def test_killing_group_manifold_is_constant(capsys):
    code, rep = run_cli(capsys, "check-killing", "--space", "su3", "--seed", "3")
    assert code == 0 and rep["verdict"] == "ConstantLength"
    assert rep["evidence"]["relative_gap"] <= 1e-8


def test_killing_so5_so3_directions(capsys):
    code, rep = run_cli(
        capsys, "check-killing", "--space", "so5-so3", "--directions", "10", "--samples", "60",
    )
    assert code == 1 and rep["verdict"] == "NotConstantLength"
    assert rep["evidence"]["min_relative_gap"] > 1e-3


_KILLING_RUNS = (
    [[f"su{n}"] for n in (2, 3, 4, 5, 6, 12)]
    + [[f"so{n}"] for n in (3, 4, 5, 6)]
    + [[f"sp{n}"] for n in (2, 3, 4, 12)]
    + [[f"hopf-{m}", "--field", f] for m in (1, 2, 3, 4, 5, 11) for f in ("left", "right")]
    + [["so5-so3"]]
)


@pytest.mark.parametrize("space", _KILLING_RUNS, ids=[" ".join(r) for r in _KILLING_RUNS])
def test_killing_verdicts_are_far_from_the_fixed_bound(capsys, space):
    """check-killing decides at DISPLACEMENT = 1e-7, orders of magnitude from
    every measured gap: constant fields (bi-invariant group metrics, right
    fields on hopf-M, the left field of hopf-1) within 1e-12, the others at
    least 0.1."""
    code, rep = run_cli(capsys, "check-killing", "--space", *space,
                        "--samples", "200", "--seed", "1")
    assert rep["tolerances"] == {"relative_gap": _tol.DISPLACEMENT}
    ev = rep["evidence"]
    gap = ev["min_relative_gap"] if space == ["so5-so3"] else ev["relative_gap"]
    if space != ["so5-so3"] and (space[-1] != "left" or space[0] == "hopf-1"):
        assert (code, rep["verdict"]) == (0, "ConstantLength")
        assert gap <= 1e-12
    else:
        assert (code, rep["verdict"]) == (1, "NotConstantLength")
        assert gap >= 0.1


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--space", "su3", "--field", "left", "--directions", "7"], "--field"),
        (["--space", "so5", "--field", "right"], "--field"),
        (["--space", "so5-so3", "--field", "left"], "--field"),
        (["--space", "hopf-1", "--directions", "5"], "--directions"),
        (["--space", "sp2", "--directions", "3"], "--directions"),
    ],
    ids=["su3-both", "so5-field", "so5-so3-field", "hopf-1-directions", "sp2-directions"],
)
def test_killing_refuses_a_flag_its_space_ignores(capsys, argv, flag):
    assert main(["check-killing", *argv, "--samples", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {flag} applies to")


def test_killing_inputs_hold_only_the_flags_that_act(capsys):
    _, rep = run_cli(capsys, "check-killing", "--space", "su3", "--samples", "10")
    assert rep["inputs"] == {"space": "su3"}
    _, rep = run_cli(capsys, "check-killing", "--space", "hopf-2", "--samples", "10")
    assert rep["inputs"] == {"space": "hopf-2", "field": "right"}
    _, rep = run_cli(capsys, "check-killing", "--space", "so5-so3", "--samples", "10")
    assert rep["inputs"] == {"space": "so5-so3", "directions": 25}
    assert rep["evidence"]["directions"] == 25


def test_killing_hopf_space_is_bounded_like_the_group_models(capsys):
    assert main(["check-killing", "--space", "hopf-12"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert f"at most {cli._MAX_GROUP_SIZE - 1}" in line


def test_sphere_models_are_bounded_like_the_group_models(capsys):
    """s23 lies in R^24, the matrix size of sp12; s24 is refused before any
    deck is built."""
    assert main(["check-homogeneity", "--model", "s24", "--group", "antipodal"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "s23" in line and cli._MAX_SPHERE_DIM == 23
    code, rep = run_cli(capsys, "check-homogeneity", "--model", "s23", "--group", "antipodal")
    assert code == 0
    assert rep["verdict"] == "HomogeneousWitnessFound"


@pytest.mark.parametrize(
    "a,b", [(1e-5, 2e-5), (np.pi - 1e-5, np.pi - 2e-5)], ids=["near-0", "near-pi"]
)
def test_clifford_matrix_file_with_unequal_angles_near_0_and_pi(capsys, tmp_path, a, b):
    """Angles 1e-5 and 2e-5 (or pi minus them) give a symmetric part that is
    scalar to about 1e-10, but a displacement that is not constant."""
    g = np.zeros((4, 4))
    for i, t in enumerate((a, b)):
        g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]
    f = tmp_path / "g.txt"
    f.write_text(format_matrix(g))
    code, rep = run_cli(capsys, "check-clifford", "--model", "s3", "--matrix-file", str(f))
    assert code == 1
    assert rep["verdict"] == "NotConstantDisplacement"
    (entry,) = rep["evidence"]["elements"]
    assert not entry["constant"] and entry["value"] > 5e-6


@pytest.mark.parametrize("action", ["list", "verify"])
@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_an_unreadable_catalog_path_exits_2_with_one_stderr_line(capsys, tmp_path, action, case):
    path = {"missing": tmp_path / "no_such_catalog.txt", "directory": tmp_path,
            "not-utf8": tmp_path / "latin1.txt"}[case]
    (tmp_path / "latin1.txt").write_bytes("id: 1 | name: S\xe9\n".encode("latin-1"))
    argv = ["catalog", action, *(["1"] if action == "verify" else []), "--path", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot read catalog")


# a catalog entry runs the check its checks field names, whatever its id
_PROJECTIVE = ("name: P^m(C) | G: SU(m+1) | H: U(m) | isometry_group: PSU(m+1) semidirect Z2"
               " | fibration: none")
_HOPF = ("name: S^{2m+1} | G: SU(m+1) | H: SU(m) | isometry_group: U(m+1) semidirect Z2"
         " | fibration: S^{2m+1} -> P^m(C)")


def _write_catalog(tmp_path, *lines):
    path = tmp_path / "catalog.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_an_informational_entry_at_id_10_runs_no_check(capsys, tmp_path):
    path = _write_catalog(tmp_path, f"id: 10 | {_PROJECTIVE} | checks: informational")
    code, rep = run_cli(capsys, "catalog", "verify", "10", "--path", path)
    assert code == 0
    assert rep["verdict"] == "Informational"
    assert rep["evidence"]["measurements"] == {} and rep["tolerances"] == {}
    check_schema(rep)


def test_a_hopf_entry_at_id_3_runs_the_hopf_check(capsys, tmp_path):
    path = _write_catalog(tmp_path, f"id: 3 | {_HOPF} | checks: hopf-constant-length")
    code, rep = run_cli(capsys, "catalog", "verify", "3", "--path", path, "--seed", "5")
    _, bundled = run_cli(capsys, "catalog", "verify", "15", "--seed", "5")
    assert code == 0
    assert rep["verdict"] == "CatalogCheckPassed"
    assert rep["evidence"]["measurements"] == bundled["evidence"]["measurements"]
    assert rep["tolerances"] == bundled["tolerances"] == {"bracket": _tol.BRACKET}
    check_schema(rep)


@pytest.mark.parametrize("checks", ["hopf-constant-lenght", "hopf-constant-length, berger-isometry-dims"],
                         ids=["unknown", "two-checks"])
def test_an_unknown_or_second_check_name_exits_2_with_one_stderr_line(capsys, tmp_path, checks):
    path = _write_catalog(tmp_path, f"id: 3 | {_HOPF} | checks: {checks}")
    assert main(["catalog", "verify", "3", "--path", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: catalog entry 3")


def test_berger_dimension_cases(capsys):
    for a, b, d in [(1.0, 1.0, 3), (0.5, 1.0, 1), (0.3, 0.7, 0)]:
        code, rep = run_cli(capsys, "check-berger", "--a", str(a), "--b", str(b))
        assert code == 0
        assert rep["evidence"]["dimension"] == d


def test_homogeneity_fail_exit_code(capsys):
    code, rep = run_cli(capsys, "check-homogeneity", "--model", "s3", "--group", "lens-5-1-2")
    assert code == 1
    assert rep["verdict"] == "NotConstantDisplacement"
    assert rep["evidence"]["centralizer_dim"] == 2


def test_homogeneity_group_manifold_model(capsys):
    code, rep = run_cli(capsys, "check-homogeneity", "--model", "su2", "--group", "center")
    assert code == 0
    assert rep["verdict"] == "HomogeneousWitnessFound"


@pytest.mark.parametrize("model", ["s3", "su2"], ids=["sphere", "group"])
def test_tol_does_not_decide_freeness(capsys, model):
    """Every model decides freeness at EIGEN, and only the forward re-check
    reads DISPLACEMENT: x -> -x is free, and the report says so."""
    code, rep = run_cli(capsys, "check-homogeneity", "--model", model, "--group", "cyclic-2")
    assert (code, rep["verdict"], rep["evidence"]["free"]) == (0, "HomogeneousWitnessFound", True)
    assert rep["tolerances"]["eigen"] == _tol.EIGEN


def test_catalog_list(capsys):
    code, rep = run_cli(capsys, "catalog", "list")
    assert code == 0
    assert rep["verdict"] == "Listed"
    assert len(rep["evidence"]["entries"]) == 19


def test_probe_noncompact(capsys):
    code, rep = run_cli(capsys, "probe-noncompact", "--motions", "20", "--seed", "1")
    assert code == 0
    assert rep["verdict"] == "ProbesConsistent"
    assert rep["evidence"]["euclidean_exact_agreements"] == 20
    assert rep["evidence"]["hyperbolic_strictly_increasing"] == 20
    assert rep["evidence"]["central_displacement_zero"] is True


def test_probe_noncompact_draws_det_one_motions(capsys, monkeypatch):
    """Every hyperbolic draw, [[a, b], [c, (1 + bc)/a]] with a = e^N(0,1),
    has det 1 to round-off, far inside HyperbolicMotion's check, and its
    sups over the nested balls strictly increase; the central motions +-I,
    bounded, are left out.  The draws are read off the stacks the run hands
    to the probes: one hyperbolic stack of draws and one of +-I per run, and
    one Euclidean stack per dimension."""
    draws, dets, euclidean_calls = [], [], []

    def probe(motion, original=cli.hyperbolic_bounded_probe):
        bounded, sups = original(motion)
        draws.append(sups[~bounded])
        dets.append(np.linalg.det(motion.matrix[~bounded]))
        return bounded, sups

    def euclidean(motion, original=cli.euclidean_bounded):
        euclidean_calls.append(len(motion.rotation))
        return original(motion)

    monkeypatch.setattr(cli, "hyperbolic_bounded_probe", probe)
    monkeypatch.setattr(cli, "euclidean_bounded", euclidean)
    for seed in range(20):
        code, rep = run_cli(capsys, "probe-noncompact", "--motions", "100", "--seed", str(seed))
        assert (code, rep["evidence"]["hyperbolic_strictly_increasing"]) == (0, 100)
    assert [len(d) for d in draws] == [100, 0] * 20
    assert euclidean_calls == [34, 33, 33] * 20
    sups = np.concatenate(draws)
    assert sups.shape[0] == 2000
    assert np.all(sups[:, 0] > 0) and np.all(sups[:, 1:] > sups[:, :-1])
    assert np.max(np.abs(np.concatenate(dets) - 1)) <= 1e-13


# ---------------------------------------------------------------------------
# usage and configuration failures exit 2


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["check-clifford", "--model", "q3", "--group", "cyclic-2"],
        ["check-clifford", "--model", "s3", "--group", "no-such-group"],
        ["check-clifford", "--model", "s3", "--group", "cyclic-2", "--samples", "3"],
        ["check-killing", "--space", "hopf-1", "--tol", "0"],
        ["check-clifford", "--model", "s3", "--matrix-file", "/nonexistent/m.txt"],
        ["check-free", "--model", "s5", "--group", "binary-dihedral-3"],
        ["check-killing", "--space", "so9000"],
        ["check-killing", "--space", "foo"],
        ["check-berger", "--a", "0", "--b", "1"],
        ["catalog", "verify", "99"],
        ["catalog", "verify"],
        ["check-clifford", "--model", "su2", "--group", "center"],
        ["construct", "--group", "antipodal"],
        ["check-homogeneity", "--model", "su2", "--group", "cyclic-0"],
    ],
    ids=[
        "unknown-command",
        "bad-model",
        "bad-group",
        "samples-too-small",
        "zero-tol",
        "missing-file",
        "quaternion-group-off-s3",
        "bad-space",
        "unknown-space",
        "berger-zero-coefficient",
        "unknown-catalog-entry",
        "catalog-verify-missing-id",
        "clifford-on-a-group-model",
        "antipodal-without-a-model",
        "cyclic-0-on-a-group-model",
    ],
)
def test_usage_errors(capsys, argv):
    assert main(argv) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check-killing", "--space", "so5-so3", "--directions", "0"],
        ["check-killing", "--space", "su3", "--directions", "-5", "--samples", "10"],
        ["check-killing", "--space", "hopf-2", "--directions", "0"],
        ["probe-noncompact", "--motions", "0"],
        ["probe-noncompact", "--motions", "-3"],
    ],
    ids=[
        "no-directions",
        "negative-directions-su3",
        "no-directions-hopf-2",
        "no-motions",
        "negative-motions",
    ],
)
def test_empty_counts_exit_2_with_one_stderr_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_an_infinite_relative_gap_is_recorded_as_null():
    """A profile with zero mean and a nonzero gap has an infinite relative
    gap, which the report records as null: JSON has no infinity."""
    prof = DisplacementProfile(min=-1.0, max=1.0, mean=0.0, samples=2)
    assert prof.relative_gap == np.inf
    assert DisplacementProfile(min=0.0, max=0.0, mean=0.0, samples=2).relative_gap == 0.0
    evidence = cli._profile_evidence(prof)
    assert evidence["relative_gap"] is None and evidence["gap"] == 2.0
    json.dumps(evidence, allow_nan=False)


@pytest.mark.parametrize(
    "argv",
    [
        ["probe-noncompact", "--motions", "1000000000"],
        ["probe-noncompact", "--motions", "10001"],
        ["check-killing", "--space", "so5-so3", "--directions", "1000000000"],
        ["check-killing", "--space", "so5-so3", "--directions", "1001", "--samples", "1000"],
        ["check-killing", "--space", "so5-so3", "--samples", "40001"],
    ],
    ids=["motions-1e9", "motions-10001", "directions-1e9", "directions-times-samples",
         "default-directions-times-samples"],
)
def test_counts_above_their_bound_exit_2_with_one_stderr_line(capsys, argv):
    """--motions runs up to 10^4 probes, and check-killing on so5-so3 draws
    up to 10^6 points over all its directions; more is refused at once."""
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_counts_at_their_bound_parse():
    args = build_parser().parse_args(["probe-noncompact", "--motions", "10000"])
    assert args.motions == 10000
    args = build_parser().parse_args(
        ["check-killing", "--space", "so5-so3", "--directions", "1000", "--samples", "1000"])
    assert args.directions * args.samples == 10**6


@pytest.mark.parametrize(
    "argv",
    [
        ["probe-noncompact", "--motions", "x"],
        ["check-homogeneity", "--model", "s3"],
        ["construct", "--group", "cyclic-3", "--seed", "-1"],
        ["check-killing", "--space", "hopf-1", "--tol", "nan"],
        ["check-killing", "--space", "hopf-1", "--tol", "inf"],
        ["catalog", "show"],
        [],
        ["check-clifford", "--model", "s3", "--group", "cyclic-2", "--samples", "1000000000"],
        ["check-homogeneity", "--model", "su2", "--group", "foo"],
        ["construct", "--group", "cyclic-0"],
    ],
    ids=["bad-int", "missing-option", "negative-seed", "nan-tol", "inf-tol", "bad-choice",
         "no-command", "samples-too-large", "unknown-group-deck", "cyclic-0"],
)
def test_malformed_argv_exits_2_with_one_stderr_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


# --samples only where a subcommand reads it, and --tol nowhere; catalog's
# actions are keyed "catalog list" and "catalog verify"
_READS = {
    "check-clifford": ("--samples",),
    "check-killing": ("--samples",),
    "check-homogeneity": ("--samples",),
    "catalog verify": ("--samples",),
}
_VALID = {
    "construct": ["construct", "--group", "cyclic-3"],
    "check-clifford": ["check-clifford", "--model", "s3", "--group", "binary-tetrahedral"],
    "check-free": ["check-free", "--model", "s3", "--group", "binary-icosahedral"],
    "check-killing": ["check-killing", "--space", "hopf-1"],
    "check-berger": ["check-berger", "--a", "1", "--b", "1"],
    "check-homogeneity": ["check-homogeneity", "--model", "s3", "--group", "cyclic-3"],
    "catalog list": ["catalog", "list"],
    "catalog verify": ["catalog", "verify", "10"],
    "probe-noncompact": ["probe-noncompact", "--motions", "3"],
}
_IGNORED = [
    (cmd, flag)
    for cmd in _VALID
    for flag in ("--samples", "--tol")
    if flag not in _READS.get(cmd, ())
]


@pytest.mark.parametrize("cmd,flag", _IGNORED, ids=[f"{c}{f}" for c, f in _IGNORED])
def test_a_flag_the_subcommand_ignores_exits_2(capsys, cmd, flag):
    assert main([*_VALID[cmd], flag, "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert f"unrecognized arguments: {flag}" in line


def _parser_flags(parser=cli._PARSER, prefix=""):
    """{subcommand: its option strings} of the parser main uses; a subcommand
    with actions of its own gives one entry per action ("catalog list")."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {}
    for name, p in sub.choices.items():
        if any(isinstance(a, argparse._SubParsersAction) for a in p._actions):
            flags.update(_parser_flags(p, f"{prefix}{name} "))
        else:
            flags[prefix + name] = {
                o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")
            }
    return flags


def test_readme_flags_table_lists_every_flag_of_every_subcommand():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| `([a-z -]+)` +\| ((?:`--[a-z-]+`(?:, )?)+) +\|$", text, flags=re.M)
    assert {cmd: set(re.findall(r"`(--[a-z-]+)`", cell)) for cmd, cell in rows} == _parser_flags()
    for cmd, flags in _parser_flags().items():
        assert {"--samples", "--tol"} & flags == set(_READS.get(cmd, ())), cmd


def test_malformed_seed_variable_is_ignored(capsys, monkeypatch):
    monkeypatch.setenv("HOMOGLAB_SEED", "abc")
    code, rep = run_cli(capsys, "construct", "--group", "cyclic-3")
    assert code == 0 and rep["seed"] == 0
    code, rep = run_cli(capsys, "construct", "--group", "cyclic-3", "--seed", "4")
    assert code == 0 and rep["seed"] == 4


def test_non_orthogonal_matrix_file_is_refused(capsys, tmp_path):
    # a NaN entry fails the orthogonality test; an infinite or huge entry is
    # refused before a product can warn on stderr; "1,nan" is not a real entry
    for first in ("nan", "1,nan", "inf", "-inf", "1e200"):
        f = tmp_path / "nan.txt"
        f.write_text(f"4\n{first} 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
        for cmd in ("check-free", "check-clifford"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                assert main([cmd, "--model", "s3", "--matrix-file", str(f)]) == 2, (first, cmd)
            assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("cmd", ["check-free", "check-clifford"])
def test_complex_matrix_file_is_refused(capsys, tmp_path, cmd):
    """Entries are real floats: an "re,im" token exits 2, even with a zero
    imaginary part."""
    f = tmp_path / "complex.txt"
    f.write_text("4\n1,0 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    assert main([cmd, "--model", "s3", "--matrix-file", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "cannot parse entry '1,0'" in line


def test_construct_large_cyclic_group_quickly(capsys):
    start = time.perf_counter()
    code, rep = run_cli(capsys, "construct", "--group", "cyclic-360")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert rep["verdict"] == "Constructed"
    assert rep["evidence"]["order"] == 360
    assert rep["evidence"]["abelian_subgroups_cyclic"] is True
    check_schema(rep)


_PAST_THE_BOUND = f"product entries, more than {finite_groups._TABLE_WORK}"


@pytest.mark.parametrize(
    "argv",
    [
        ["check-homogeneity", "--model", "s3", "--group", "lens-40000-1-1"],
        ["check-free", "--model", "s3", "--group", "lens-40000-1-1"],
        ["check-homogeneity", "--model", "su2", "--group", "cyclic-20000"],
        ["construct", "--group", "cyclic-10001"],
        ["check-homogeneity", "--model", "su12", "--group", "cyclic-833"],
    ],
    ids=["homogeneity-lens", "free-lens", "su2-cyclic", "quaternion-cyclic", "su12-cyclic"],
)
def test_a_deck_past_the_order_cap_exits_2_before_it_is_built(capsys, monkeypatch, argv):
    """A named deck whose Cayley table would score more than the bound of
    finite_groups.check_table_work (k^2 m product entries; on suN, cyclic-K
    has K N blocks of (2N)^2 entries) is refused by name."""

    def never(*args, **kwargs):
        raise AssertionError("a deck past the cap was built")

    for name in ("named_binary_group", "lens_group", "cyclic_powers"):
        monkeypatch.setattr(cli, name, never)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: {argv[-1]}: a Cayley table of ")
    assert line.endswith(_PAST_THE_BOUND)


def test_matrix_powers_past_the_table_bound_exit_2(capsys, tmp_path):
    """check-free --matrix-file stops listing the powers of a rotation of
    order 10 000 on s11 once their table would pass the bound."""
    g = np.eye(12)
    c, s = np.cos(2 * np.pi / 10_000), np.sin(2 * np.pi / 10_000)
    g[:2, :2] = [[c, -s], [s, c]]
    path = tmp_path / "order_10000.txt"
    path.write_text(format_matrix(g))
    assert main(["check-free", "--model", "s11", "--matrix-file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: matrix powers: a Cayley table of 342 matrices of 144 entries")
    assert line.endswith(_PAST_THE_BOUND)


class _Checked(Exception):
    pass


@pytest.mark.parametrize(
    "under,over",
    [
        (["construct", "--group", "cyclic-1024"], ["construct", "--group", "cyclic-1025"]),
        (["construct", "--group", "binary-dihedral-256"],
         ["construct", "--group", "binary-dihedral-257"]),
        (["check-homogeneity", "--model", "s3", "--group", "lens-1024-1-1"],
         ["check-homogeneity", "--model", "s3", "--group", "lens-1025-1-1"]),
        (["check-free", "--model", "s11", "--group", "lens-341-1-1-1-1-1-1"],
         ["check-free", "--model", "s11", "--group", "lens-342-1-1-1-1-1-1"]),
        (["check-homogeneity", "--model", "su2", "--group", "cyclic-512"],
         ["check-homogeneity", "--model", "su2", "--group", "cyclic-513"]),
        (["check-homogeneity", "--model", "su12", "--group", "cyclic-14"],
         ["check-homogeneity", "--model", "su12", "--group", "cyclic-15"]),
        (["check-homogeneity", "--model", "sp12", "--group", "cyclic-42"],
         ["check-homogeneity", "--model", "sp12", "--group", "cyclic-43"]),
    ],
    ids=["quaternion-cyclic", "binary-dihedral", "s3-lens", "s11-lens", "su2-cyclic",
         "su12-cyclic", "sp12-cyclic"],
)
def test_the_largest_deck_under_the_table_bound_passes_its_check(monkeypatch, under, over):
    """The CLI checks each named deck through check_table_work before it
    builds it; the largest admitted deck of each kind passes, the next is
    refused.  Neither is built."""
    checked = []

    def check_only(name, order, entries):
        checked.append(order * order * entries)
        finite_groups.check_table_work(name, order, entries)
        raise _Checked

    monkeypatch.setattr(cli, "check_table_work", check_only)
    with pytest.raises(_Checked):
        main(under)
    assert main(over) == 2
    under_work, over_work = checked
    assert under_work <= finite_groups._TABLE_WORK < over_work


@pytest.mark.parametrize("command", ["check-clifford", "check-free"])
def test_empty_matrix_file_name_exits_2_with_one_stderr_line(capsys, command):
    """An empty --matrix-file names a file that cannot be read; it is not
    taken for a missing one, which would send the run on to --group."""
    assert main([command, "--model", "s3", "--matrix-file", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "cannot read matrix file" in line


@pytest.mark.parametrize("model", ["su2"], ids=["group"])
def test_broken_invariant_exits_2_with_one_stderr_line(capsys, monkeypatch, model):
    """A failed internal consistency check is refused like a usage error.
    The forward re-check can fire on a group manifold only (on a sphere a
    witness has every spread within EIGEN): widening the upper end of every
    displacement range leaves freeness and the constancy flags as they are."""
    from homoglab import compact_lie

    real = compact_lie._translation_ranges

    def wide_ranges(*args):
        lo, hi = real(*args)
        return lo, hi + 1.0

    monkeypatch.setattr(compact_lie, "_translation_ranges", wide_ranges)
    assert main(["check-homogeneity", "--model", model, "--group", "center"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "forward consistency violated" in line


# ---------------------------------------------------------------------------
# matrix file format


def test_matrix_round_trip(rng):
    m = rng.normal(size=(4, 4))
    back = parse_matrix_text(format_matrix(m))
    assert back.dtype == np.float64 and np.array_equal(back, m)


def test_matrix_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="matrix size"):
        parse_matrix_text("nope\n1 2\n3 4\n")
    with pytest.raises(ParseError, match="expected 2 rows"):
        parse_matrix_text("2\n1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix_text("2\n1 2\n3 x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix_text("2\n1 2 3\n4 5\n")
    with pytest.raises(ParseError, match="empty matrix file"):
        parse_matrix_text(" \n\n")
    f = tmp_path / "ok.txt"
    f.write_text("2\n0 -1\n1 0\n")
    assert np.allclose(load_matrix(str(f)), [[0, -1], [1, 0]])
    f.write_bytes(b"2\n0 -1\n1 \xe9\n")  # not UTF-8
    with pytest.raises(ParseError):
        load_matrix(str(f))


# ---------------------------------------------------------------------------
# argv fuzzing: every run exits 0/1 with a schema-valid report, or 2 with one
# line on stderr, and none ends in a traceback


def _mostly(valid, malformed):
    """A token from ``valid`` (weighted three to one) or from ``malformed``."""
    return st.sampled_from(3 * list(valid) + list(malformed))


def _names(prefix, lo, hi):
    return st.integers(lo, hi).map(lambda n: f"{prefix}{n}")


_SAMPLES = _mostly(["10", "17", "50"], ["-3", "0", "9", "x", "1e3", "", "nan"])
_TOLS = st.sampled_from(["1e-7", "1e-3", "0.5", "0", "-1", "nan", "inf", "x", ""])
_SEEDS = _mostly(["0", "1", "42", "99999999999999999999"], ["-1", "x", ""])
_COUNTS = _mostly(["1", "2", "3"], ["-2", "0", "x", "1.5", "200000", "1000000000"])
_FLOATS = _mostly(["1", "0.8", "0.5", "0.25"], ["0", "-1", "2", "nan", "inf", "1e400", "x"])
_SPHERE_GROUPS = _mostly(
    ["binary-tetrahedral", "binary-octahedral", "binary-icosahedral", "antipodal"],
    ["center", "cyclic-", "cyclic-x", "lens-", "lens-5", "no-such-group"],
) | _names("cyclic-", -1, 60) | _names("binary-dihedral-", -1, 15) | st.tuples(
    st.integers(0, 60), st.lists(st.integers(-2, 13), min_size=1, max_size=4)
).map(lambda t: "lens-" + "-".join(str(x) for x in (t[0], *t[1])))
_SPHERES = _mostly(["s2", "s3", "s3", "s5", "s7"], ["s1", "s24", "su2", "x3", ""])
_MODELS = _mostly(
    ["s3", "s3", "s5", "s7", "su2", "su3", "so3", "so4", "sp2"],
    ["s1", "s24", "su1", "su13", "x3", ""],
)
_SPACES = _mostly(
    ["su2", "su3", "so5", "sp2", "hopf-1", "hopf-3", "so5-so3"], ["so13", "hopf-0", "so5-so2", "x"]
)


@st.composite
def _argv(draw, files):
    cmd = draw(_mostly(
        ["construct", "check-clifford", "check-free", "check-killing", "check-berger",
         "check-homogeneity", "catalog", "probe-noncompact"],
        ["no-such-command"],
    ))
    argv = [cmd]
    if cmd == "construct":
        argv += ["--group", draw(_SPHERE_GROUPS)]
    elif cmd in ("check-clifford", "check-free"):
        argv += ["--model", draw(_SPHERES)]
        if draw(st.booleans()):
            argv += ["--group", draw(_SPHERE_GROUPS)]
        else:
            argv += ["--matrix-file", draw(st.sampled_from(files))]
    elif cmd == "check-killing":
        argv += ["--space", draw(_SPACES)]
        # --field acts on hopf-M and --directions on so5-so3: mostly there,
        # now and then elsewhere, which exits 2
        if draw(st.booleans()) if argv[2].startswith("hopf") else draw(st.integers(0, 9)) == 0:
            argv += ["--field", draw(_mostly(["left", "right"], ["up"]))]
        if draw(st.booleans()) if argv[2] == "so5-so3" else draw(st.integers(0, 9)) == 0:
            argv += ["--directions", draw(_COUNTS)]
    elif cmd == "check-berger":
        argv += ["--a", draw(_FLOATS), "--b", draw(_FLOATS)]
    elif cmd == "check-homogeneity":
        argv += ["--model", draw(_MODELS), "--group", draw(_SPHERE_GROUPS)]
        if not argv[2].startswith("s") or draw(st.booleans()):
            argv[-1] = draw(_SPHERE_GROUPS | st.just("center"))
    elif cmd == "catalog":
        argv += [draw(_mostly(["list", "verify"], ["show"]))]
        if argv[1] != "list" or draw(st.integers(0, 9)) == 0:
            argv += [draw(_mostly(["1", "2", "10", "19"], ["0", "20", "x"]))]
        if draw(st.integers(0, 4)) == 0:  # none of the files is a catalog
            argv += ["--path", draw(st.sampled_from(files + [str(Path(files[0]).parent)]))]
    elif cmd == "probe-noncompact":
        argv += ["--motions", draw(_COUNTS)]
    reads = _READS.get(" ".join(argv[:2]) if cmd == "catalog" else cmd, ())
    # --samples always where the subcommand reads it; now and then where it
    # does not, and --tol, which no subcommand reads: both exit 2
    if "--samples" in reads or draw(st.integers(0, 9)) == 0:
        argv += ["--samples", draw(_SAMPLES)]
    if draw(st.integers(0, 9)) == 0:
        argv += ["--tol", draw(_TOLS)]
    if draw(st.booleans()):
        argv += ["--seed", draw(_SEEDS)]
    if draw(st.integers(0, 3)) == 0:
        # a writable file, a directory, or a file in a missing directory
        d = Path(files[0]).parent
        argv += ["--output", str(draw(st.sampled_from([d / "out.json", d, d / "no" / "out.json"])))]
    # drop a token now and then
    if len(argv) > 1 and draw(st.integers(0, 9)) == 0:
        del argv[draw(st.integers(1, len(argv) - 1))]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    c, s = np.cos(2 * np.pi / 5), np.sin(2 * np.pi / 5)
    texts = {
        "rot4.txt": format_matrix(np.block([[np.array([[c, -s], [s, c]]), np.zeros((2, 2))],
                                            [np.zeros((2, 2)), np.eye(2)]])),
        "eye3.txt": format_matrix(np.eye(3)),
        "scale4.txt": format_matrix(2.0 * np.eye(4)),
        "nan4.txt": "4\n" + "nan 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
        "inf4.txt": "4\n" + "inf 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n",
        "complex4.txt": "4\n" + "0,1 0,0 0,0 0,0\n0,0 0,1 0,0 0,0\n0,0 0,0 0,1 0,0\n0,0 0,0 0,0 0,1\n",
        "bad.txt": "2\n1 x\n",
        "empty.txt": "",
        "latin1.txt": "4\n1 0 0 0 \xe9\n",  # not UTF-8 once encoded
    }
    for name, text in texts.items():
        (d / name).write_bytes(text.encode("latin-1"))
    return [str(d / name) for name in texts] + [str(d / "missing.txt")]


def _reject_constant(name):
    raise ValueError(f"report holds {name}, which is not JSON")


def test_argv_fuzz_keeps_the_cli_contract(fuzz_files):
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(fuzz_files))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out.getvalue() == "", argv
            assert len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        else:
            report = json.loads(out.getvalue(), parse_constant=_reject_constant)
            check_schema(report)
            assert report["command"] == argv[0]

    run()
