"""Machine-speed calibration for the benchmark's timings.

On a shared virtual machine the same code runs up to a third slower
for minutes at a time, and two runs a few minutes apart can differ by
more than any bound worth setting. A fixed reference loop, which
touches nothing of ``ulevels``, slows down with the machine: over a
100-second trace on the 2-core machine named in ``BASELINE.json``,
one-second medians of a fixed ``ulevels`` batch ranged over +-25%, and
their ratio to the reference loop over +-4%.

The benchmark therefore samples the reference every
``SAMPLE_INTERVAL_S`` while it measures, and scales each timing by
``NOMINAL_REF_S / (median reference time within WINDOW_S of it)``.
A scaled time is what the operation would take on this machine while
the reference loop takes ``NOMINAL_REF_S``. The reference runs with
the garbage collector paused and creates no cycles, so a program that
keeps a larger heap does not slow it down.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# The reference loop's time on the machine named in BASELINE.json in
# its fast phase; scaled timings are in that machine's seconds.
NOMINAL_REF_S = 0.0025
SAMPLE_INTERVAL_S = 0.1
WINDOW_S = 0.5


class _Cell:
    __slots__ = ("next", "key")

    def __init__(self, nxt, key):
        self.next = nxt
        self.key = key


def _chain(n: int):
    return None if n == 0 else _Cell(_chain(n - 1), n)


def reference() -> float:
    """Seconds taken by one run of the reference loop: allocation,
    recursion, attribute access and tuple hashing, as in the checker."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for k in range(40):
            cell = _chain(200)
            table[(k, cell.key, (k, 3))] = cell.next.key
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Calibration:
    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = time.perf_counter()
        self.durations.append(reference())
        self.times.append(start)
        self._last = start

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= SAMPLE_INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float | None = None) -> float:
        """Scale for a timing taken from ``start`` to ``end`` (perf_counter
        values; ``end`` defaults to ``start``)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, (start if end is None else end) + WINDOW_S)
        window = self.durations[lo:hi] or self.durations
        return NOMINAL_REF_S / statistics.median(window)

    def scaled(self, at: float, seconds: float) -> float:
        return seconds * self.factor(at)
