"""Scale measured times by the host's speed at the moment they were taken.

The reference host is a shared virtual machine whose speed drifts by 20–50%
within seconds and between minutes, so a plain wall time tells as much about
the neighbours as about the program.  ``calibrate`` times a fixed piece of
pure-Python work (a dict of tuples and frozensets, then a sort) that does not
touch the package.  Inside ``with ScaledClock() as clock:`` a SIGALRM timer
runs it every ``SAMPLE_EVERY_S`` seconds, whatever the program is doing at
the time, and ``clock.scale(start, end)`` converts a span of
``time.perf_counter()`` readings taken in the block into scaled seconds:
the time spent calibrating is left out, and the work between two samples is
multiplied by ``REFERENCE_S`` over the mean of those two samples.

A scaled time is therefore the time the work would have taken with the host
at the speed where ``calibrate`` takes ``REFERENCE_S``.  A change to the
program moves every scaled time in full; only the host's speed is divided out.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

# A round figure near calibrate()'s time on the reference host (a 2-vCPU
# Intel Xeon virtual machine), where it ranged from about 6 to 12 ms.
REFERENCE_S = 0.010
SAMPLE_EVERY_S = 0.1


def _work() -> int:
    table = {}
    for i in range(6000):
        table[(i % 97, i % 89, i // 7)] = frozenset((i, i + 1, i % 13))
    return len(sorted(table.items(), key=lambda kv: (len(kv[1]), kv[0])))


def calibrate() -> float:
    """Seconds for one run of the fixed work, with the collector off so that
    the size of the program's heap does not change the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Samples the host's speed during a ``with`` block; see the module doc."""

    def __init__(self, every_s: float = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        self.samples: list[float] = []  # calibrate() seconds, in order
        self._starts: list[float] = []  # perf_counter() when each sample began
        self._ends: list[float] = []  # ... and when it ended
        self._previous = None
        self._busy = False
        self._scaled_at: list[float] = []  # scaled seconds at each sample's end

    def _sample(self, signum=None, frame=None) -> None:
        # A signal handler runs between two bytecodes of the main thread, so
        # no perf_counter() reading of the measured code falls inside it.
        if self._busy:  # the timer fired again while calibrating
            return
        self._busy = True
        start = time.perf_counter()
        seconds = calibrate()
        self._starts.append(start)
        self.samples.append(seconds)
        self._ends.append(time.perf_counter())
        self._busy = False

    def __enter__(self) -> "ScaledClock":
        calibrate()  # warm-up, not recorded
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        scaled = [0.0]
        for k in range(len(self.samples) - 1):
            work = self._starts[k + 1] - self._ends[k]
            scaled.append(scaled[-1] + work * self._factor(k))
        self._scaled_at = scaled

    def _factor(self, k: int) -> float:
        return REFERENCE_S / ((self.samples[k] + self.samples[k + 1]) / 2)

    def _at(self, t: float) -> float:
        k = bisect.bisect_right(self._ends, t) - 1
        if k < 0 or k >= len(self.samples) - 1:
            raise ValueError("a time outside the sampled block")
        return self._scaled_at[k] + (t - self._ends[k]) * self._factor(k)

    def scale(self, start: float, end: float) -> float:
        """Scaled seconds between two perf_counter() readings in the block."""
        return self._at(end) - self._at(start)

    def unscaled(self, start: float, end: float) -> float:
        """Wall seconds between the readings, less the time spent calibrating."""
        first = bisect.bisect_right(self._starts, start)
        last = bisect.bisect_right(self._starts, end)
        return end - start - sum(self._ends[j] - self._starts[j] for j in range(first, last))
