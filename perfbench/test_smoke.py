"""Smoke test of the benchmark harness: every workload at a tiny size, in both
modes, must print every metric BENCHMARK.json names, with its unit, and every
operation must pass its oracle.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    full = json.loads(
        (ROOT / "perfbench" / "out" / f"BENCH_{workload}_seed7_trace{trace}.json").read_text()
    )
    assert full["probes"] and all(p["identical"] for p in full["probes"])
    assert set(full["environment"]) >= {"numpy", "scipy", "openblas_numpy", "nproc",
                                        "blas_threads", "git_commit", "workload_seed"}
    if trace:
        assert full["trace"]["coverage_check"]["ops_off"] == []
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints
    no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "space-forms", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_keeps_ten_beyond():
    """The tail sits at the percentile that leaves ten values beyond it."""
    from harness import tail

    value, pct = tail([float(v) for v in range(1, 101)])
    assert pct == 90.0 and 89.0 < value < 91.0
    assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_self_times_add_up():
    import homoglab.verifier
    from homoglab.finite_groups import GroupType, named_binary_group
    from tracing import Tracer, installed_wrappers

    tracer = Tracer()
    tracer.install()
    try:
        deck = homoglab.verifier.sphere_deck_from_quaternions(
            named_binary_group(GroupType.binary_tetrahedral())
        )
        homoglab.verifier.verify_instance(deck)
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    own = tracer.take_op()
    tracer.add(own, 1.0)
    assert sum(own.values()) == pytest.approx(sum(tracer.self_s.values()))
    assert tracer.calls["verifier.verify_instance"] == 1
    assert tracer.calls["constant_curvature.is_free_on_sphere"] == 1
    assert tracer.counts["constant_curvature.is_free_on_sphere.products"] == 24**2
    assert all(s >= 0 for s in tracer.self_s.values())
