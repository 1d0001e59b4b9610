"""Per-node real-time clocks with bounded drift.

The paper's system model (Section 2) assumes each node can read a local
real-time clock, and that there is a maximum drift rate ``maxDrift``
between any pair of clocks.  The DQVL lease arithmetic depends only on
that bound, and :mod:`repro.core.leases` ("Clock-drift safety") is where
it is applied: an OQS node conservatively shortens every granted lease
by a factor of ``(1 - maxDrift)``, and an IQS node lengthens its wait by
``(1 + maxDrift)``.

:class:`DriftingClock` models a clock whose reading is an affine function
of simulated time::

    reading(t) = offset + (1 + drift) * t

with ``|drift| <= max_drift``.  The paper's correctness argument requires
only the *rate* bound; constant offsets are also supported so tests can
explore skewed starting points.
"""

from __future__ import annotations

from typing import Optional

from .kernel import Simulator

__all__ = ["DriftingClock", "PerfectClock"]


class DriftingClock:
    """A local real-time clock with a bounded, constant drift rate.

    Parameters
    ----------
    sim:
        The simulator whose time base this clock is derived from.
    drift:
        Constant rate error; the clock runs at ``(1 + drift)`` times real
        time.  Must satisfy ``abs(drift) <= max_drift``.
    offset:
        Constant offset added to the reading, in milliseconds.
    max_drift:
        The system-wide bound ``maxDrift`` that *drift* must respect.  The
        lease tables apply the bound (:mod:`repro.core.leases`,
        "Clock-drift safety").
    """

    __slots__ = ("_sim", "drift", "offset", "max_drift")

    def __init__(
        self,
        sim: Simulator,
        drift: float = 0.0,
        offset: float = 0.0,
        max_drift: float = 0.0,
    ) -> None:
        if not abs(drift) <= max_drift + 1e-12:
            raise ValueError(
                f"drift {drift} exceeds the declared bound max_drift={max_drift}"
            )
        self._sim = sim
        self.drift = drift
        self.offset = offset
        self.max_drift = max_drift

    def now(self) -> float:
        """Current local clock reading in milliseconds."""
        return self.offset + (1.0 + self.drift) * self._sim.now


class PerfectClock(DriftingClock):
    """A convenience clock with no drift and no offset."""

    def __init__(self, sim: Simulator) -> None:
        super().__init__(sim, drift=0.0, offset=0.0, max_drift=0.0)
