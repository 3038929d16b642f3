"""Calibration: converts wall seconds into calibrated seconds.

The host this benchmark was tuned on slows its CPU in phases that last
10-30 s; the same fit can take twice as long in a slow phase as in a
fast one.  So a fixed calibration loop is timed every SAMPLE_EVERY_S
seconds, and an operation that took `wall` seconds over [t0, t1] is
reported as

    calibrated = wall * REFERENCE_S / mean(loop times sampled in [t0, t1]
                                           and the nearest one on each side)

(`Calibrator.slowdown` is that mean over REFERENCE_S).

REFERENCE_S is the loop's median time on the reference machine, so
calibrated seconds read as wall seconds at that machine's usual speed.
The loop shares no code with the program under test.  Its work mirrors
the program's: plain-Python dict, string and integer work with small
numpy products (the hot loops of features, models and neural), and a
JSON round trip of a dict-heavy document (the model bundles and
artifacts that the CLI reads and writes).  Without the JSON half, the
per-record `assess` calls, which are mostly JSON and allocation, stayed
three times as spread as the other stages.

The samples are taken in the main thread from an interval-timer signal,
so they also land inside long operations; their own time is kept out of
every measurement by timing with `clock()`, which stops while a sample
runs.  Two other designs tracked the phases worse (see README.md): a
sampler thread, whose loop contends for the interpreter lock, and
samples taken only between operations.
"""

from __future__ import annotations

import bisect
import gc
import json
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0034
SAMPLE_EVERY_S = 0.1
_DOCUMENT = [{f"k{i}": [i * 0.123456789, str(i)] for i in range(40)} for _ in range(30)]


def calibration_loop(rounds: int = 100) -> int:
    """Fixed work; returns a checksum so nothing can be skipped."""
    a = np.linspace(0.0, 1.0, 64).reshape(8, 8)
    v = np.ones(8)
    table: dict[int, int] = {}
    acc = 0
    for r in range(rounds):
        for i in range(40):
            key = (i * 7 + r) & 63
            acc = (acc + table.get(key, i) * 31 + i) & 0xFFFFFF
            table[key] = acc
        text = "-".join(str(x) for x in range(r, r + 12))
        acc ^= len(text.split("-")[3])
        v = np.tanh(a @ v)
    acc += len(json.loads(json.dumps(_DOCUMENT)))
    return acc + int(v.sum() > 0)


class Calibrator:
    """Loop times sampled on a timer, looked up by time."""

    def __init__(self):
        self._at: list[float] = []  # clock() when each sample started
        self._costs: list[float] = []
        self._stolen = 0.0  # wall time spent in samples
        self._busy = False

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return time.perf_counter() - self._stolen

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self._sample()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _on_timer(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def _sample(self) -> None:
        self._busy = True
        # the loop makes no cycles; a collection of the program's objects
        # triggered by its allocations must not land in its time
        collecting = gc.isenabled()
        gc.disable()
        try:
            at = self.clock()
            start = time.perf_counter()
            calibration_loop()
            cost = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self._stolen += cost
        self._at.append(at)
        self._costs.append(cost)
        self._busy = False

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean loop time over [t0, t1] (clock() times), widened by the
        nearest sample on each side, over REFERENCE_S."""
        n = len(self._costs)
        lo = max(0, bisect.bisect_left(self._at, t0, 0, n) - 1)
        hi = bisect.bisect_right(self._at, t1, 0, n) + 1
        return statistics.fmean(self._costs[lo:hi]) / REFERENCE_S

    def calibrate(self, wall: float, t0: float, t1: float) -> float:
        return wall / self.slowdown(t0, t1)

    def samples(self) -> int:
        return len(self._costs)

    def loop_quartiles(self) -> list[float]:
        """First quartile, median and third quartile of the loop times."""
        return statistics.quantiles(self._costs, n=4)
