"""Seed-deterministic phi-accrual-style failure detection.

One :class:`FailureDetector` per observing node, fed exclusively by that
node's QRPC traffic: every reply contributes an RTT sample (on the
**simulated** clock — wall clock never enters the simulation), every
RPC timeout raises the target's suspicion level, and the next reply
clears it.

This is *phi-accrual-style* rather than textbook phi-accrual: the
classic detector (Hayashibara et al.) consumes periodic heartbeats and
computes phi from the inter-arrival distribution.  Edge clients have no
heartbeat stream — their only evidence is request/reply traffic — so
suspicion here accrues one unit per timed-out RPC, weighted by how far
the timed-out interval already exceeded the target's smoothed RTT
expectation (a timeout that outlived ``srtt + 4*rttvar`` several times
over is stronger evidence than one barely past it).  The shape matches
phi-accrual's purpose: a continuous suspicion level with a threshold,
not a binary alive/dead bit.

Everything is a pure function of observation order (the caller measures
each RTT on the sim clock), so same-seed runs produce identical detector
state; the detector draws no randomness at all.  What the hot path asks
is kept, not re-derived: the suspect set changes only where suspicion
crosses the threshold, and the RTT window is kept sorted beside its
arrival order, so a quantile is one index.

The detector has no knobs: the constants below are the layer's values.
They are read when used, so an ablation varies one by patching the
module attribute.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Deque, Dict, List, Optional, Set

__all__ = ["FailureDetector"]

#: recent reply RTTs kept (across all targets) for the quantile estimates
RTT_WINDOW = 64
#: below this many samples there is no estimate, and QRPC keeps its
#: configured timeout schedule
MIN_RTT_SAMPLES = 4
#: accrued suspicion at which a target counts as suspected (and is
#: avoided in quorum sampling and hedging)
SUSPICION_THRESHOLD = 2.0
#: adaptive round timeout = the TIMEOUT_QUANTILE RTT x TIMEOUT_MULTIPLIER,
#: never below MIN_TIMEOUT_MS (nor above the QRPC schedule's cap)
TIMEOUT_QUANTILE = 0.95
TIMEOUT_MULTIPLIER = 2.0
MIN_TIMEOUT_MS = 10.0
#: a round still open after this RTT quantile gets one backup probe
HEDGE_QUANTILE = 0.9


class _TargetStats:
    """Jacobson/Karels smoothed RTT plus accrued suspicion for one target."""

    __slots__ = ("srtt", "rttvar", "suspicion")

    def __init__(self) -> None:
        self.srtt: Optional[float] = None
        self.rttvar: float = 0.0
        self.suspicion: float = 0.0


class FailureDetector:
    """Per-node failure detector over QRPC reply/timeout observations."""

    def __init__(self) -> None:
        self._targets: Dict[str, _TargetStats] = {}
        #: the targets whose suspicion is at or above the threshold, kept
        #: where suspicion changes (a timeout raises it, a reply clears it)
        self.suspects: Set[str] = set()
        #: bounded window of recent RTTs across all targets, for the
        #: adaptive-timeout and hedging quantile estimates: arrival order
        #: (for eviction) and the same multiset kept sorted (for ranks)
        self._rtts: Deque[float] = deque(maxlen=RTT_WINDOW)
        self._ordered: List[float] = []
        #: healthy -> suspected transitions (observability counter)
        self.suspicions = 0

    # -- observations -------------------------------------------------------

    def observe_reply(self, target: str, rtt_ms: float) -> None:
        """A reply from *target* arrived after *rtt_ms* of simulated time."""
        st = self._targets.get(target)
        if st is None:
            st = self._targets[target] = _TargetStats()
        if st.srtt is None:
            st.srtt = rtt_ms
            st.rttvar = rtt_ms / 2.0
        else:
            # Jacobson/Karels EWMA (alpha=1/8, beta=1/4), the standard
            # deterministic RTT estimator.
            st.rttvar += 0.25 * (abs(st.srtt - rtt_ms) - st.rttvar)
            st.srtt += 0.125 * (rtt_ms - st.srtt)
        st.suspicion = 0.0
        self.suspects.discard(target)
        rtts, ordered = self._rtts, self._ordered
        if len(rtts) == rtts.maxlen:
            del ordered[bisect_left(ordered, rtts[0])]
        rtts.append(rtt_ms)  # evicts rtts[0] when full
        insort(ordered, rtt_ms)

    def observe_timeout(self, target: str, interval_ms: float) -> None:
        """An RPC to *target* timed out after waiting *interval_ms*."""
        st = self._targets.get(target)
        if st is None:
            st = self._targets[target] = _TargetStats()
        expected = self.expected_rtt(target)
        increment = 1.0
        if expected is not None and expected > 0:
            # Longer timed-out waits are stronger evidence; never weaker
            # than one unit so repeated short-fuse timeouts still accrue.
            increment = max(1.0, min(4.0, interval_ms / expected))
        st.suspicion += increment
        if st.suspicion >= SUSPICION_THRESHOLD and target not in self.suspects:
            self.suspects.add(target)
            self.suspicions += 1

    # -- queries ------------------------------------------------------------

    def expected_rtt(self, target: str) -> Optional[float]:
        """``srtt + 4*rttvar`` for *target*, or None before any reply."""
        st = self._targets.get(target)
        if st is None or st.srtt is None:
            return None
        return st.srtt + 4.0 * st.rttvar

    def suspicion(self, target: str) -> float:
        st = self._targets.get(target)
        return st.suspicion if st is not None else 0.0

    def rtt_quantile(self, q: float) -> Optional[float]:
        """The *q*-quantile of the recent-RTT window (nearest-rank), or
        None while fewer than ``MIN_RTT_SAMPLES`` samples exist."""
        ordered = self._ordered
        n = len(ordered)
        if n < MIN_RTT_SAMPLES:
            return None
        return ordered[min(n - 1, max(0, int(q * n)))]

    def timeout_for(self, fallback: float, cap: float) -> float:
        """Adaptive per-round QRPC timeout from observed RTT quantiles.

        Falls back to the configured schedule until enough samples exist;
        never below ``MIN_TIMEOUT_MS`` and never above *cap*.
        """
        estimate = self.rtt_quantile(TIMEOUT_QUANTILE)
        if estimate is None:
            return min(fallback, cap)
        return min(max(estimate * TIMEOUT_MULTIPLIER, MIN_TIMEOUT_MS), cap)

    def hedge_delay(self, interval_ms: float) -> Optional[float]:
        """How long to wait before sending a backup probe this round.

        Returns the ``HEDGE_QUANTILE`` RTT estimate, or None when no
        estimate exists or hedging could not fire before the round's own
        timeout anyway.
        """
        estimate = self.rtt_quantile(HEDGE_QUANTILE)
        if estimate is None or estimate >= interval_ms:
            return None
        return estimate
