"""CLI contract: exit codes, JSON report shape, determinism, matrix files."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import jsonschema

import homoglab
from homoglab.cli import format_matrix, load_matrix, main, parse_matrix_text
from homoglab.constant_curvature import lens_group
from homoglab.errors import ParseError

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
    assert rep["evidence"]["measurements"]["min_relative_gap"] > 1e-3
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


def test_seed_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("HOMOGLAB_SEED", "777")
    _, rep = run_cli(capsys, "check-free", "--model", "s3", "--group", "cyclic-4")
    assert rep["seed"] == 777
    monkeypatch.delenv("HOMOGLAB_SEED")
    _, rep = run_cli(capsys, "check-free", "--model", "s3", "--group", "cyclic-4")
    assert rep["seed"] == 0


def test_output_file_matches_stdout(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = main(["check-berger", "--a", "1.0", "--b", "1.0", "--output", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    assert json.loads(out.read_text()) == json.loads(printed)


@pytest.mark.parametrize(
    "model,group",
    [("s3", g) for g in ("cyclic-12", "binary-dihedral-6", "binary-tetrahedral",
                         "binary-octahedral", "binary-icosahedral", "antipodal", "lens-5-1-1")]
    + [("s7", "lens-12-1-1-1-1")],
)
def test_sphere_witness_holds_at_a_tight_tolerance(capsys, model, group):
    """The sampled forward re-check of a Clifford-Wolf deck stays at round-off,
    far below 1e-10, near displacement 0 and pi too."""
    code, rep = run_cli(capsys, "check-homogeneity", "--model", model, "--group", group,
                        "--samples", "200", "--tol", "1e-10")
    assert code == 0, rep["verdict"]
    assert rep["evidence"]["rank_evidence"]["forward_max_gap"] <= 1e-10


def test_closed_stdout_keeps_the_exit_code_and_the_output_file(tmp_path):
    out = tmp_path / "rep.json"
    src = str(Path(homoglab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "homoglab.cli", "check-homogeneity", "--model", "s5",
         "--group", "lens-9-1-2-4", "--samples", "20", "--output", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()  # the reader is gone before the report is written
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1, err
    assert "Traceback" not in err and err == ""
    assert json.loads(out.read_text())["verdict"] == "NotConstantDisplacement"


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


# ---------------------------------------------------------------------------
# usage and configuration failures exit 2


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["check-clifford", "--model", "q3", "--group", "cyclic-2"],
        ["check-clifford", "--model", "s3", "--group", "no-such-group"],
        ["check-clifford", "--model", "s3", "--group", "cyclic-2", "--samples", "3"],
        ["check-clifford", "--model", "s3", "--group", "cyclic-2", "--tol", "0"],
        ["check-clifford", "--model", "s3", "--matrix-file", "/nonexistent/m.txt"],
        ["check-free", "--model", "s5", "--group", "binary-dihedral-3"],
        ["check-killing", "--space", "so9000"],
        ["check-berger", "--a", "0", "--b", "1"],
        ["catalog", "verify", "99"],
        ["catalog", "verify"],
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
        "berger-zero-coefficient",
        "unknown-catalog-entry",
        "catalog-verify-missing-id",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["probe-noncompact", "--motions", "x"],
        ["check-homogeneity", "--model", "s3"],
        ["construct", "--group", "cyclic-3", "--seed", "-1"],
        ["construct", "--group", "cyclic-3", "--tol", "nan"],
        ["construct", "--group", "cyclic-3", "--tol", "inf"],
        ["catalog", "show"],
        [],
    ],
    ids=["bad-int", "missing-option", "negative-seed", "nan-tol", "inf-tol", "bad-choice", "no-command"],
)
def test_malformed_argv_exits_2_with_one_stderr_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


def test_malformed_seed_variable_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("HOMOGLAB_SEED", "abc")
    assert main(["construct", "--group", "cyclic-3"]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_non_orthogonal_matrix_file_is_refused(capsys, tmp_path):
    f = tmp_path / "nan.txt"
    f.write_text("4\nnan 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n")
    for cmd in ("check-free", "check-clifford"):
        assert main([cmd, "--model", "s3", "--matrix-file", str(f)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


def test_construct_large_cyclic_group_quickly(capsys):
    import time

    start = time.perf_counter()
    code, rep = run_cli(capsys, "construct", "--group", "cyclic-360")
    assert time.perf_counter() - start < 5.0
    assert code == 0
    assert rep["verdict"] == "Constructed"
    assert rep["evidence"]["order"] == 360
    assert rep["evidence"]["abelian_subgroups_cyclic"] is True
    check_schema(rep)


def test_broken_invariant_exits_2_with_one_stderr_line(capsys, monkeypatch):
    """A failed internal consistency check is refused like a usage error."""
    from homoglab import verifier
    from homoglab.profiles import DisplacementProfile

    def drifting_profile(spec, iso, samples, rng):
        return DisplacementProfile.from_values(np.linspace(0.0, 1.0, samples))

    monkeypatch.setattr(verifier, "group_displacement_profile", drifting_profile)
    argv = ["check-homogeneity", "--model", "su2", "--group", "center", "--samples", "10"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert "forward consistency violated" in line


# ---------------------------------------------------------------------------
# matrix file format


def test_matrix_round_trip(rng):
    m = rng.normal(size=(4, 4))
    assert np.allclose(parse_matrix_text(format_matrix(m)), m)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = parse_matrix_text(format_matrix(z))
    assert np.allclose(back, z)


def test_matrix_parse_errors(tmp_path):
    with pytest.raises(ParseError, match="matrix size"):
        parse_matrix_text("nope\n1 2\n3 4\n")
    with pytest.raises(ParseError, match="expected 2 rows"):
        parse_matrix_text("2\n1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_matrix_text("2\n1 2\n3 x\n")
    with pytest.raises(ParseError, match="line 2"):
        parse_matrix_text("2\n1 2 3\n4 5\n")
    f = tmp_path / "ok.txt"
    f.write_text("2\n0 -1\n1 0\n")
    assert np.allclose(load_matrix(str(f)), [[0, -1], [1, 0]])


# ---------------------------------------------------------------------------
# argv fuzzing: every run exits 0/1 with a schema-valid report, or 2 with one
# line on stderr, and none ends in a traceback


def _mostly(valid, malformed):
    """A token from ``valid`` (weighted three to one) or from ``malformed``."""
    return st.sampled_from(3 * list(valid) + list(malformed))


def _names(prefix, lo, hi):
    return st.integers(lo, hi).map(lambda n: f"{prefix}{n}")


_SAMPLES = _mostly(["10", "17", "50"], ["-3", "0", "9", "x", "1e3", "", "nan"])
_TOLS = _mostly(["1e-7", "1e-3", "0.5"], ["0", "-1", "nan", "inf", "-inf", "1e400", "x", ""])
_SEEDS = _mostly(["0", "1", "42", "99999999999999999999"], ["-1", "x", ""])
_COUNTS = _mostly(["1", "2", "3"], ["-2", "0", "x", "1.5"])
_FLOATS = _mostly(["1", "0.8", "0.5", "0.25"], ["0", "-1", "2", "nan", "inf", "1e400", "x"])
_SPHERE_GROUPS = _mostly(
    ["binary-tetrahedral", "binary-octahedral", "binary-icosahedral", "antipodal"],
    ["center", "cyclic-", "cyclic-x", "lens-", "lens-5", "no-such-group"],
) | _names("cyclic-", -1, 60) | _names("binary-dihedral-", -1, 15) | st.tuples(
    st.integers(0, 60), st.lists(st.integers(-2, 13), min_size=1, max_size=4)
).map(lambda t: "lens-" + "-".join(str(x) for x in (t[0], *t[1])))
_SPHERES = _mostly(["s2", "s3", "s3", "s5", "s7"], ["s1", "su2", "x3", ""])
_MODELS = _mostly(
    ["s3", "s3", "s5", "s7", "su2", "su3", "so3", "so4", "sp2"], ["s1", "su1", "su13", "x3", ""]
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
        argv += ["--field", draw(_mostly(["left", "right"], ["up"]))]
        argv += ["--directions", draw(_COUNTS)]
    elif cmd == "check-berger":
        argv += ["--a", draw(_FLOATS), "--b", draw(_FLOATS)]
    elif cmd == "check-homogeneity":
        argv += ["--model", draw(_MODELS), "--group", draw(_SPHERE_GROUPS)]
        if not argv[2].startswith("s") or draw(st.booleans()):
            argv[-1] = draw(_SPHERE_GROUPS | st.just("center"))
    elif cmd == "catalog":
        argv += [draw(_mostly(["list", "verify"], ["show"]))]
        argv += [draw(_mostly(["1", "2", "10", "19"], ["0", "20", "x"]))]
    elif cmd == "probe-noncompact":
        argv += ["--motions", draw(_COUNTS)]
    argv += ["--samples", draw(_SAMPLES)]
    for flag, values in (("--tol", _TOLS), ("--seed", _SEEDS)):
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    # drop a token now and then
    if draw(st.integers(0, 9)) == 0:
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
        "complex4.txt": format_matrix(np.eye(4) * 1j),
        "bad.txt": "2\n1 x\n",
        "empty.txt": "",
    }
    for name, text in texts.items():
        (d / name).write_text(text)
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
