"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload group-decks --seeds 1-10

Runs the benchmark once per seed (untraced, ``run_seconds`` from
BENCHMARK.json) and prints, per metric, the median, the quartiles and the
spread: the distance between the first and third quartile as a share of the
median, next to the metric's bound.  The raw values go to
``perfbench/out/spread_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    p = argparse.ArgumentParser(description="run-to-run spread of the end-to-end metrics")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"), help="e.g. 1-10")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    failed = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
    print(f"{args.workload}: {len(args.seeds)} runs, {failed} failed operations")
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        print(f"  {m['name']:16s} median {med:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
              f"spread {spread:6.3f}  bound {m['bound']}  "
              f"{'ok' if spread < m['bound'] / 3 else 'WIDE'}")
    out = ROOT / "perfbench" / "out" / f"spread_{args.workload}.json"
    out.write_text(json.dumps({"seeds": args.seeds, "values": values}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
