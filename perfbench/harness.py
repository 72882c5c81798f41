"""The closed loop: run a workload's cycles, time each operation, check each
against its oracle, and turn the timings and spans into metrics."""

from __future__ import annotations

import gc
import io
import json
import resource
import statistics
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import jsonschema
import numpy as np
from scipy.special import betainc

import homoglab.cli
import speed
import tracing
from workloads import SAMPLES, SMOKE_SAMPLES, CycleInputs, Op, Workload

SCHEMA_PATH = Path(homoglab.cli.__file__).parent / "data" / "report_schema.json"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations beyond it
# an operation's self times must account for its wall time to within this
# share, or this many seconds for very short operations
COVERAGE_TOL = 0.05
COVERAGE_FLOOR_S = 2e-4


@dataclass
class Result:
    op: Op
    phase: str
    cycle: int
    seconds: float  # wall time of the operation
    scale: float  # to the reference machine speed, see speed.py
    problems: list[str] = field(default_factory=list)
    evidence: str | None = None  # canonical JSON of the report's evidence
    self_s: float = 0.0  # traced runs: the operation's summed span self times
    kernels: list[float] = field(default_factory=list)  # speed kernel before, after

    @property
    def norm_ms(self) -> float:
        """Wall time at the reference machine speed."""
        return self.seconds * self.scale * 1000.0


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  The mixes hold a few operation kinds of very different
    cost, and the sample median would jump between neighbouring kinds from
    run to run; this estimate moves smoothly between them.  (scipy.special is
    already loaded by homoglab; scipy.stats would add 30 MB to peak_rss_mb.)"""
    x = np.sort(np.asarray(values))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def tail(values_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least TAIL_BEYOND
    values above it; the maximum when there are too few values."""
    n = len(values_ms)
    if n <= TAIL_BEYOND:
        return max(values_ms), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(values_ms, p), 100.0 * p


def _latency(results: list[Result], raw: bool = False) -> dict:
    """Timings at the reference machine speed, or as measured with ``raw``.
    Throughput is the median over cycles of the cycle's operations per
    second, so one cycle caught in a slow spell does not move it."""
    cycles = defaultdict(list)
    for r in results:
        cycles[r.cycle].append(r.seconds * 1000.0 if raw else r.norm_ms)
    values = [v for c in cycles.values() for v in c]
    tail_ms, pct = tail(values)
    return {
        "ops": len(values),
        "cycles": len(cycles),
        "ops_per_s": statistics.median(1000.0 * len(c) / sum(c) for c in cycles.values()),
        "p50_ms": quantile(values, 0.5),
        "tail_ms": tail_ms,
        "tail_percentile": pct,
    }


class Run:
    def __init__(self, workload: Workload, seed: int, workdir: Path, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.samples = SMOKE_SAMPLES if smoke else SAMPLES
        self.validator = jsonschema.Draft7Validator(json.loads(SCHEMA_PATH.read_text()))
        self.results: list[Result] = []
        self.tracer: tracing.Tracer | None = None
        self.next_cycle = 0

    # -- one operation -------------------------------------------------------

    def _run_op(self, op: Op):
        """Execute one operation; only this is timed."""
        out = io.StringIO()
        code = value = error = None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            start = perf_counter()
            try:
                if op.argv is not None:
                    code = homoglab.cli.main(op.argv)
                else:
                    value = op.call()
            except Exception as e:  # an operation that raises is a failed operation
                error = f"{type(e).__name__}: {e}"
            seconds = perf_counter() - start
        return seconds, (code, out.getvalue(), value, error)

    def _check(self, op: Op, code, stdout: str, value, error) -> tuple[list[str], str | None]:
        if error is not None:
            return [f"raised {error}"], None
        problems = []
        if op.argv is not None:
            if code not in (0, 1, 2):
                problems.append(f"exit code {code} outside 0, 1, 2")
            elif code != op.exit:
                problems.append(f"exit code {code}, expected {op.exit}")
            try:
                report = json.loads(stdout)
            except ValueError:
                return problems + ["stdout is not one JSON report"], None
            problems += [f"schema: {e.message}" for e in self.validator.iter_errors(report)]
            if not isinstance(report, dict):
                return problems, None
            evidence = report.get("evidence")
        else:
            report = json.loads(json.dumps(value.to_json_dict()))
            evidence = report
        if report.get("verdict") != op.verdict:
            problems.append(f"verdict {report.get('verdict')!r}, expected {op.verdict!r}")
        problems += [m for check in op.checks if (m := check(report)) is not None]
        return problems, json.dumps(evidence, sort_keys=True)

    def _run_ops(self, ops: list[Op], phase: str, cycle: int) -> list[Result]:
        """Run operations back to back with a speed kernel between each two,
        then check every output.  Each operation starts from a collected heap,
        as it would in a fresh CLI process, so the garbage collector's timing
        does not depend on what ran before it."""
        raw, kernels = [], [speed.kernel_seconds()]
        for op in ops:
            gc.collect()
            seconds, out = self._run_op(op)
            kernels.append(speed.kernel_seconds())
            own = self.tracer.take_op() if self.tracer else {}
            raw.append((op, seconds, out, own))
        results = []
        for i, ((op, seconds, out, own), scale) in enumerate(zip(raw, speed.scales(kernels))):
            problems, evidence = self._check(op, *out)
            if self.tracer:
                self.tracer.add(own, scale)
            results.append(Result(op, phase, cycle, seconds, scale, problems, evidence,
                                  sum(own.values()), kernels[i : i + 2]))
        if self.tracer:
            self.tracer.take_op()  # drop spans of reading library reports in _check
        self.results += results
        return results

    # -- cycles --------------------------------------------------------------

    def _cycle_ops(self) -> tuple[int, list[Op]]:
        cycle = self.next_cycle
        self.next_cycle += 1
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, cycle]))
        ci = CycleInputs(rng, self.workdir, cycle, self.samples)
        return cycle, self.workload.build(ci)

    def _loop(self, phase: str, budget: float) -> list[Result]:
        """Whole cycles until the budget is spent; a cycle starts only when
        about half of it fits.  Input generation sits between cycles."""
        results, walls = [], []
        begin = perf_counter()
        while not walls or perf_counter() - begin + statistics.fmean(walls) / 2 < budget:
            cycle, ops = self._cycle_ops()
            start = perf_counter()
            results += self._run_ops(ops, phase, cycle)
            walls.append(perf_counter() - start)
        return results

    def execute(self, seconds: float, traced: bool) -> dict:
        leaks = tracing.installed_wrappers()
        # warm-up: the probe operations of the first cycle, the reference for
        # the determinism check after the loop
        cycle, ops = self._cycle_ops()
        warm = self._run_ops([op for op in ops if op.probe], "warmup", cycle)
        budget = seconds / 2 if traced else seconds
        plain = self._loop("timed", budget)
        leaks += tracing.installed_wrappers()
        if leaks:
            raise RuntimeError(f"span wrappers bound during the untraced run: {leaks}")
        probes = self._determinism_probe(warm)
        scales = [r.scale for r in plain]
        out = {
            "mix": [op.kind for op in ops],
            "probes": probes,
            "wrapper_leak_check": "no span wrapper bound in any homoglab namespace "
                                  "before or after the untraced loop",
            "end_to_end": self._end_to_end(plain),
            "machine_speed": {
                "reference_kernel_s": speed.REFERENCE_S,
                "scale_median": statistics.median(scales),
                "scale_min": min(scales),
                "scale_max": max(scales),
            },
            "kinds": self._kinds(plain),
            "timed_ops": [
                {"kind": r.op.kind, "cycle": r.cycle, "wall_ms": r.seconds * 1000.0,
                 "scale": r.scale, "kernels_s": r.kernels}
                for r in plain
            ],
        }
        if traced:
            self.tracer = tracing.Tracer()
            self.tracer.install()
            try:
                spans = self._loop("traced", budget)
            finally:
                self.tracer.uninstall()
            if tracing.installed_wrappers():
                raise RuntimeError("span wrappers left bound after uninstall")
            out["per_layer"], out["trace"] = self._per_layer(spans, plain)
        failures = [r for r in self.results if r.problems]
        out["attempted"] = len(self.results)
        out["failed"] = len(failures)
        out["failed_frac"] = len(failures) / len(self.results)
        out["failures"] = [
            {"kind": r.op.kind, "phase": r.phase, "cycle": r.cycle,
             "argv": r.op.argv, "problems": r.problems}
            for r in failures
        ]
        return out

    def _determinism_probe(self, warm: list[Result]) -> list[dict]:
        """Re-run the probe operations of the warm-up cycle with the same inputs
        and require byte-identical evidence."""
        out = []
        for ref in warm:
            (again,) = self._run_ops([ref.op], "probe", ref.cycle)
            same = again.evidence is not None and again.evidence == ref.evidence
            if not same:
                again.problems.append("evidence differs from the first run with the same seed")
            out.append({"kind": ref.op.kind, "identical": same})
        return out

    # -- metrics -------------------------------------------------------------

    def _end_to_end(self, results: list[Result]) -> dict:
        lat = _latency(results)
        n = lat["ops"]
        return {
            "ops_per_s": {"value": lat["ops_per_s"], "unit": "1/s", "ops": n,
                          "cycles": lat["cycles"]},
            "latency_ms_p50": {"value": lat["p50_ms"], "unit": "ms", "ops": n},
            "latency_ms_tail": {"value": lat["tail_ms"], "unit": "ms", "ops": n,
                                "percentile": lat["tail_percentile"],
                                "ops_beyond": min(TAIL_BEYOND, n - 1)},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB", "ops": n,
            },
            "raw_wall_time": _latency(results, raw=True),
        }

    @staticmethod
    def _kinds(results: list[Result]) -> dict:
        """Informational latency per operation kind; not gated."""
        by_kind = defaultdict(list)
        for r in results:
            by_kind[r.op.kind].append(r)
        return {
            k: {"ops": len(v),
                "median_ms": statistics.median(r.norm_ms for r in v),
                "raw_wall_median_ms": statistics.median(r.seconds * 1000.0 for r in v)}
            for k, v in by_kind.items()
        }

    def _per_layer(self, spans: list[Result], plain: list[Result]):
        """Per-operation counts and self times (at the reference machine
        speed) from the traced loop."""
        t = self.tracer
        n = len(spans)
        metrics = {}
        for span in t.spans:
            layer, _, rest = span.partition(".")
            name = f"{tracing.metric_module(layer)}.{rest}"
            metrics[f"{name}.calls"] = {"value": t.calls[span] / n, "unit": "1/op"}
            metrics[f"{name}.self_s"] = {"value": t.self_s[span] / n, "unit": "s/op"}
        by_module = defaultdict(float)
        for span, s in t.self_s.items():
            by_module[span.partition(".")[0]] += s
        for layer in tracing.LAYERS:
            metrics[f"{tracing.metric_module(layer)}.self_s"] = {
                "value": by_module[layer] / n, "unit": "s/op"}
        for key, value in t.counts.items():
            metrics[tracing.metric_module(key)] = {"value": value / n, "unit": "1/op"}
        md = tracing.MIN_DISPLACEMENT
        cand = t.counts.get(f"{md}.candidates", 0)
        metrics[f"{md}.accept_ratio"] = {
            "value": t.counts.get(f"{md}.accepted", 0) / cand if cand else 0.0,
            "unit": "ratio", "candidates": cand}
        for key in ("constant_curvature.is_free_on_sphere.products",
                    "linalg.svd.elements", f"{md}.evals"):
            metrics.setdefault(key, {"value": 0.0, "unit": "1/op"})
        own = sum(r.self_s for r in spans)
        op_wall = sum(r.seconds for r in spans)
        op_norm = sum(r.seconds * r.scale for r in spans)
        traced_rate, plain_rate = _latency(spans)["ops_per_s"], _latency(plain)["ops_per_s"]
        metrics["trace.overhead"] = {
            "value": plain_rate / traced_rate, "unit": "ratio",
            "traced_ops_per_s": traced_rate, "untraced_ops_per_s": plain_rate}
        metrics["trace.unattributed_frac"] = {
            "value": 1.0 - own / op_wall, "unit": "ratio"}
        # self times of one operation add up to its wall time
        off = [
            {"kind": r.op.kind, "wall_s": r.seconds, "self_s": r.self_s}
            for r in spans
            if abs(r.seconds - r.self_s) > max(COVERAGE_TOL * r.seconds, COVERAGE_FLOOR_S)
        ]
        table = sorted(
            ({"span": s, "calls": t.calls[s], "self_s": t.self_s[s],
              "share_of_op_time": t.self_s[s] / op_norm} for s in t.spans if t.calls[s]),
            key=lambda row: -row["self_s"],
        )
        trace = {
            "ops": n,
            "self_time_table": table,
            "self_time_by_module": {k: by_module[k] for k in tracing.LAYERS},
            "coverage_check": {
                "rule": f"|op wall - sum of self times| <= max({COVERAGE_TOL} * wall, "
                        f"{COVERAGE_FLOOR_S} s)",
                "ops_checked": n,
                "ops_off": off,
                "sum_self_over_sum_wall": own / op_wall,
            },
            "kinds": self._kinds(spans),
        }
        return metrics, trace


def print_summary(results: dict, metrics: dict, path: Path, stream) -> None:
    env = results["environment"]
    print(f"workload {env['workload']['name']}  seed {env['workload_seed']}  "
          f"attempted {results['attempted']}  failed {results['failed']}", file=stream)
    for f in results["failures"]:
        print(f"  FAILED {f['phase']} cycle {f['cycle']} {f['kind']}: "
              f"{'; '.join(f['problems'])}", file=stream)
    for name, m in metrics.items():
        print(f"  {name:58s} {m['value']:.6g} {m['unit']}", file=stream)
    if "end_to_end" in results and "latency_ms_tail" in results["end_to_end"]:
        t = results["end_to_end"]["latency_ms_tail"]
        print(f"  tail is p{t['percentile']:.1f} of {t['ops']} ops", file=stream)
    print(f"  results: {path}", file=stream)
