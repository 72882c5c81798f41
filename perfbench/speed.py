"""Machine-speed calibration.

Small shared VMs change speed by up to 1.7x for tens of seconds at a time,
with no steal time visible inside the guest.  The benchmark times a fixed
pure-Python kernel right before and after each measured operation and
reports the operation's time scaled to the speed at which the kernel takes
``REFERENCE_S``.  Of the kernels tried (interpreter loop, small LAPACK calls,
small numpy element-wise calls, dict building), the interpreter loop tracked
the verifier's own slowdowns best.

Stdlib only, so the fresh interpreters that time ``import homoglab.cli`` can
use it before they load anything else.
"""

from time import perf_counter

REFERENCE_S = 0.0015


def kernel_seconds() -> float:
    start = perf_counter()
    s = 0.0
    for i in range(20000):
        s += i * 0.5
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two kernel runs to the
    reference speed."""
    return 2.0 * REFERENCE_S / (before + after)


def scales(kernels: list[float], half_window: int = 4) -> list[float]:
    """Scale factors for the operations run between consecutive kernel runs
    ``kernels[i]`` and ``kernels[i + 1]``: the median of the kernel times
    within ``half_window`` runs on either side, which ignores a kernel run
    caught by an interruption and still follows a change of speed."""
    out = []
    for i in range(len(kernels) - 1):
        window = sorted(kernels[max(0, i + 1 - half_window) : i + 1 + half_window])
        mid = len(window) // 2
        median = window[mid] if len(window) % 2 else (window[mid - 1] + window[mid]) / 2
        out.append(REFERENCE_S / median)
    return out
