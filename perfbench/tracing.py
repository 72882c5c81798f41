"""Outside-in span tracing of the homoglab layers.

``Tracer.install`` replaces every public function and public plain method
defined in the layer modules with a wrapper that records a span, in every
``homoglab.*`` namespace that binds it; ``uninstall`` puts the originals back.
Private helpers stay unwrapped, so their time counts as self time of the
public caller (``cli.main`` self time covers argparse, JSON and the private
``_cmd_*`` glue).  The library itself is not modified on disk.

Self time of a span is its duration minus the durations of its wrapped child
spans, so the self times of one operation add up to the duration of its root
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "finite_groups",
    "constant_curvature",
    "compact_lie",
    "verifier",
    "homogeneous",
    "_linalg",
)
MARK = "__perfbench_span__"
MIN_DISPLACEMENT = "compact_lie.min_displacement"
# min_displacement accepts a candidate when v < val - 1e-15
ACCEPT_MARGIN = 1e-15


def metric_module(module: str) -> str:
    """Metric names start with a letter: ``_linalg`` is reported as ``linalg``."""
    return module.lstrip("_")


def _targets():
    """(owner, attribute, span name, callable) for every wrappable callable."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"homoglab.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        out.append((obj, attr, f"{layer}.{name}.{attr}", member))
            elif callable(obj) and not inspect.isclass(obj):
                out.append((mod, name, f"{layer}.{name}", obj))
    return out


def installed_wrappers() -> list[str]:
    """Names of homoglab bindings that currently point at a span wrapper."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "homoglab" and not modname.startswith("homoglab."):
            continue
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{modname}.{name}")
            elif inspect.isclass(obj):
                found += [
                    f"{modname}.{name}.{a}" for a, m in vars(obj).items() if hasattr(m, MARK)
                ]
    return found


class Tracer:
    """Spans kept in memory: per-name call counts and self seconds, plus the
    work counters measured at the layer boundaries."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._op_self = defaultdict(float)  # per span, since the last take_op()
        self._stack = []  # frames: [name, start, child seconds, state]
        self._patched = []  # (owner, attribute, original)
        self.spans: list[str] = []  # every span name installed

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        originals = {}
        for owner, attr, span, fn in _targets():
            wrapper = self._wrap(span, fn)
            self.spans.append(span)
            originals[id(fn)] = wrapper
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrapper)
        # rebind the names other modules imported (``from .x import f``)
        for modname, mod in list(sys.modules.items()):
            if modname != "homoglab" and not modname.startswith("homoglab."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and getattr(mod, name) is not wrapper:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take_op(self) -> dict:
        """Close one operation: its self seconds per span."""
        own, self._op_self = self._op_self, defaultdict(float)
        return own

    def add(self, own: dict, scale: float) -> None:
        """Add one operation's self times, multiplied by ``scale``, to the totals."""
        for span, seconds in own.items():
            self.self_s[span] += seconds * scale

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn):
        stack = self._stack
        enter = self._enter
        leave = self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, 0.0, 0.0, None]
            enter(frame, args, kwargs)
            stack.append(frame)
            frame[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                leave(frame, end - frame[1])
            if stack:
                self._count_result(frame[0], stack[-1], result)
            return result

        setattr(wrapper, MARK, span)
        return wrapper

    def _enter(self, frame, args, kwargs) -> None:
        span = frame[0]
        self.calls[span] += 1
        if span == "constant_curvature.is_free_on_sphere":
            group = args[0] if args else kwargs["group"]
            self.counts["constant_curvature.is_free_on_sphere.products"] += len(group) ** 2
        elif span in ("_linalg.null_space", "_linalg.rank_rel"):
            a = args[0] if args else kwargs["A"]
            shape = getattr(a, "shape", None) or (len(a), len(a[0]) if len(a) else 0)
            if len(shape) == 2 and shape[0] * shape[1] > 0:
                self.counts["_linalg.svd.elements"] += shape[0] * shape[1]
        elif span == MIN_DISPLACEMENT:
            frame[3] = {"val": None}

    def _leave(self, frame, duration: float) -> None:
        self._op_self[frame[0]] += duration - frame[2]
        if self._stack:
            self._stack[-1][2] += duration

    def _count_result(self, span: str, parent, result) -> None:
        """Replay min_displacement's acceptance rule from outside: the first
        displacement after each Haar start is the start value, every later one
        a candidate."""
        if parent[0] != MIN_DISPLACEMENT:
            return
        state = parent[3]
        if span == "compact_lie.haar_sample":
            state["val"] = None
        elif span == "compact_lie.translation_displacement":
            self.counts[f"{MIN_DISPLACEMENT}.evals"] += 1
            if state["val"] is None:
                state["val"] = result
                return
            self.counts[f"{MIN_DISPLACEMENT}.candidates"] += 1
            if result < state["val"] - ACCEPT_MARGIN:
                self.counts[f"{MIN_DISPLACEMENT}.accepted"] += 1
                state["val"] = result
