"""Host-speed calibration.

Shared hosts drift: the same pure-Python loop can take 20% more or less
time from one half minute to the next, on every core at once, which
would swamp the differences the benchmark is meant to show.  The
benchmark therefore times a fixed loop of the kind of work alghyp does
(tuples, dict updates, big-int arithmetic, string splits, a sort) next
to the ops, and scales each op's latency to a host on which this loop
takes NOMINAL_MS.  The loop is benchmark code; no change to alghyp moves it.
"""

import time

NOMINAL_MS = 0.3
REPS = 3
_BIG = 3 ** 150


def _loop():
    d = {}
    for i in range(450):
        t = (i % 17, i % 5, i)
        d[t] = d.get(t, 0) + (_BIG * (i + 1)) // 7
        f"s[{i},{i % 3}]".split(",")
    return sorted(d.values())[:5]


def calibration_ms():
    """Best of REPS timings of the loop, in ms."""
    best = None
    for _ in range(REPS):
        t0 = time.perf_counter_ns()
        _loop()
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best / 1e6


def scale(cal_ms):
    """Factor that turns a latency measured next to `cal_ms` into one at nominal speed."""
    return NOMINAL_MS / cal_ms
