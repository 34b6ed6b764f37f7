"""A fixed pure-Python loop that measures how fast the CPU runs right now.

On a shared machine the speed at which this process runs drifts by tens
of percent over seconds and minutes, and process CPU time drifts with
it.  The benchmark times this loop between consecutive mvfix calls and
scales each call's time by ``REFERENCE_S`` over the loop's time around
that call, so a run on a slow stretch and a run on a fast stretch give
the same figures.  The loop uses no mvfix code, so a change to mvfix
cannot move it; it does the same kind of work as mvfix's hot paths
(small function calls, branches, float arithmetic, tuples and dicts).
"""

from __future__ import annotations

import math
import time

# The loop's time at the reference speed; scaled timings read as seconds
# on a CPU that runs the loop in exactly this long.
REFERENCE_S = 0.05
_ITERATIONS = 32_000


def _clamp_distance(x: float, lo: float, hi: float) -> float:
    p = lo if x < lo else (hi if x > hi else x)
    return abs(x - p)


def _loop(iterations: int) -> float:
    spans = [(i / 64, i / 64 + 0.25) for i in range(64)]
    seen: dict[int, tuple[float, float]] = {}
    total = 0.0
    for k in range(iterations):
        x = (k * 0.6180339887) % 1.0
        lo, hi = spans[k & 63]
        d = max(_clamp_distance(x, lo, hi), _clamp_distance(x / 4, lo, hi))
        seen[k & 1023] = (x, d)
        total += math.log(d + 1.0)
    return total


def loop_seconds() -> float:
    """Wall time of one pass of the calibration loop."""
    start = time.perf_counter()
    _loop(_ITERATIONS)
    return time.perf_counter() - start
