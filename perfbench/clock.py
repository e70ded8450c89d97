"""A wall clock corrected for the machine's changing speed.

On a shared virtual machine the same Python code can run at very different
speeds from one second to the next: a neighbour's load slows the vCPU, and
process CPU time grows with wall time, so no OS counter removes the effect.
This clock samples the speed directly.  While it runs, a SIGALRM timer
interrupts the program every ``TICK_S`` seconds and runs a fixed loop twice,
timing only the second run: the first pulls the loop's code and data back
into the caches the program evicted, which would otherwise add a fixed
delay that matters more the faster the machine runs.  An interval's
corrected duration is its wall time, less the time spent in ticks, scaled
tick by tick by ``REFERENCE_S / loop time``: seconds as they would read at
the speed where the warm loop takes ``REFERENCE_S``.  Short intervals
without a tick of their own use the latest tick before them.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

TICK_S = 0.02
REFERENCE_S = 5e-5


def _probe_loop() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(600):
        table[i & 63] = total
        total += i * i
    return total


class SpeedClock:
    """Context manager that samples the machine's speed while it is active."""

    def __init__(self):
        self.starts: list[float] = []
        self.ticks: list[float] = []    # whole tick, both loops
        self.loops: list[float] = []    # the timed, warm loop
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        _probe_loop()
        warm = perf_counter()
        _probe_loop()
        end = perf_counter()
        self.starts.append(start)
        self.ticks.append(end - start)
        self.loops.append(end - warm)

    def __enter__(self) -> "SpeedClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def corrected(self, start: float, end: float) -> float:
        """Speed-corrected seconds between two ``perf_counter`` readings."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        inside = self.loops[lo:hi]
        # the ticks' own time inside the interval is not the program's
        wall = end - start - sum(self.ticks[lo:hi])
        speeds = inside or self.loops[max(lo - 1, 0):lo] or [REFERENCE_S]
        return wall * REFERENCE_S * sum(1.0 / loop for loop in speeds) / len(speeds)
