"""Host-speed calibration for a shared, noisy machine.

On the sandbox this benchmark is developed on, the whole VM slows down
by 20-25 % for episodes of ~10 s at a time (a fixed integer loop shows
it as clearly as the simulator does).  A measurement is about as long
as an episode, so medians over repeated executions do not remove it:
a run either sits inside an episode or it does not.

So every child samples the machine's speed *while it measures*: a 25 ms
interval timer runs a fixed ~0.2 ms integer loop and records how long
it took.  An execution's *slowdown* is the (harmonic) mean loop time
during it over ``REFERENCE_CHUNK_S``, and host times are divided by it — the
benchmark reports operations per second of host time *at the reference
machine speed*.  On a machine whose loop time equals the reference this
is plain wall clock; on any machine it is wall clock times a constant,
which is all a parent-versus-change comparison needs.  The slowdown
itself is reported (``host.slowdown``) so the correction is visible.
The sampler costs ~1 % of host time, the same on every commit.
"""

from __future__ import annotations

import signal
import time
from typing import List

__all__ = ["HostSpeed", "REFERENCE_CHUNK_S"]

CHUNK_ITERATIONS = 5000
#: loop time inside a busy, undisturbed CPython 3.11 child on the development sandbox;
#: an arbitrary constant that fixes the unit, never re-measured at run time
REFERENCE_CHUNK_S = 0.00022
INTERVAL_S = 0.025
#: below this many samples an execution is too short to have its own
#: estimate and borrows the child's whole history
MIN_SAMPLES = 4


def _chunk() -> int:
    total = 0
    for i in range(CHUNK_ITERATIONS):
        total += i * i % 7
    return total


class HostSpeed:
    """Interval-timer sampler of the machine's current speed."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - start)

    def mark(self) -> int:
        """Position to pass to :meth:`slowdown` later."""
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """How much slower than the reference the machine ran since
        *since*, such that ``wall / slowdown`` is the time the same work
        takes at reference speed.

        Samples are evenly spaced in wall time and the work done in a
        tick is proportional to the speed during it, so the factor is
        the *harmonic* mean of the per-sample ratios.  (A median would
        switch the whole correction on or off as an episode covers more
        or less than half of the execution.)  A sample inflated by a
        preemption barely moves a harmonic mean.
        """
        window = self.samples[since:]
        if len(window) < MIN_SAMPLES:
            window = self.samples
        if not window:
            return 1.0
        return len(window) / sum(REFERENCE_CHUNK_S / sample for sample in window)
