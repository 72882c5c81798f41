"""homoglab benchmark: closed-loop verification workloads, end to end and per
layer.

    python3 perfbench/run.py --workload space-forms --seed 1 --seconds 20 --trace 0

One client in one process runs the workload's mix of verifications in cycles,
each operation starting after the previous one finished.  CLI operations call
``homoglab.cli.main(argv)`` in-process with stdout captured; library
operations call the public API.  Every operation is checked against the answer
fixed by how its input was built (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` first runs the same loop untraced for half the time, then traced
for the other half, and reports the per-layer metrics; the ratio of the two is
the tracing overhead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full results, with the
environment stamp, go to ``perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json``.
``--smoke`` runs at a tiny size for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BLAS_THREADS = "1"
SETUP_IMPORTS = 9

# The child times the import between two runs of the speed kernel, after
# one warm-up run, and prints: import seconds, kernel seconds before and
# after, and the file it imported.
SETUP_SNIPPET = """
import sys, time
sys.path.insert(0, {perfbench!r})
import speed
speed.kernel_seconds()
before = speed.kernel_seconds()
start = time.perf_counter()
import homoglab.cli
seconds = time.perf_counter() - start
print(seconds, before, speed.kernel_seconds(), homoglab.cli.__file__)
""".format(perfbench=str(Path(__file__).resolve().parent))


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure_setup(repeats: int) -> dict:
    """Seconds to ``import homoglab.cli`` in fresh interpreters, at the
    reference machine speed.  One priming import first, so a fresh
    checkout's bytecode compilation is not counted."""
    raw, norm = [], []
    for i in range(repeats + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            fail(f"fresh import of homoglab.cli failed:\n{proc.stderr}")
        seconds, before, after, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            fail(f"imported homoglab from {path}, not from {SRC}")
        if i:
            raw.append(float(seconds))
            norm.append(float(seconds) * speed.scale(float(before), float(after)))
    return {"value": statistics.median(norm), "unit": "s", "ops": repeats,
            "samples": norm, "raw_wall_value": statistics.median(raw), "raw_samples": raw}


def environment_stamp(args, spec_workload) -> dict:
    import numpy as np
    import scipy
    from importlib.metadata import PackageNotFoundError, version

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            return "unknown"

    try:
        jsonschema_version = version("jsonschema")
    except PackageNotFoundError:
        jsonschema_version = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "homoglab").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": jsonschema_version,
        "openblas_numpy": blas(np.show_config),
        "openblas_scipy": blas(scipy.show_config),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workload": spec_workload,
    }


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], required=True)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "homoglab" / "cli.py").is_file():
        fail(f"no homoglab sources under {SRC}; run from a full checkout")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail(f"no BENCHMARK.json in {ROOT}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one BLAS thread, set before numpy loads, in this process and its children
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("HOMOGLAB_SEED", None)
    sys.path.insert(0, str(SRC))

    import harness
    from workloads import WORKLOADS

    args = parse_args(argv, sorted(WORKLOADS))
    setup = None
    if not args.trace:
        setup = measure_setup(1 if args.smoke else SETUP_IMPORTS)

    import homoglab.cli

    if not Path(homoglab.cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported homoglab from {homoglab.cli.__file__}, not from {SRC}")

    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir()
    try:
        run = harness.Run(workload, args.seed, workdir, smoke=args.smoke)
        results = run.execute(args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if setup is not None:
        results["end_to_end"]["setup_s"] = setup
    measured = results["per_layer"] if args.trace else results["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        fail(f"harness did not measure {missing}")
    metrics = {
        m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }
    results["environment"] = environment_stamp(
        args, {"name": workload.name, "why": workload.why, "mix": results.pop("mix")}
    )
    path = OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    harness.print_summary(results, metrics, path, sys.stderr)
    print(json.dumps({
        "correct": results["failed"] == 0,
        "attempted": results["attempted"],
        "failed": results["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
