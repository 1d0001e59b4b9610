"""Configuration for the adaptive resilience layer."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ResilienceConfig"]


@dataclass(frozen=True)
class ResilienceConfig:
    """Tunables for the resilience layer (frozen: picklable/hashable, so
    it can ride inside run configs that cross the sweep's process pool).

    Attributes
    ----------
    rtt_window:
        How many recent reply RTTs the failure detector keeps for its
        quantile estimates (one bounded window per detector).
    min_rtt_samples:
        Below this many samples the detector refuses to estimate and
        QRPC falls back to its configured timeout schedule.
    suspicion_threshold:
        Suspicion level (accrued across consecutive timeout
        observations) at which a replica counts as *suspected* and is
        deprioritized in quorum sampling and hedging.
    timeout_quantile / timeout_multiplier / min_timeout_ms:
        Adaptive per-round QRPC timeout = ``quantile(timeout_quantile)
        * timeout_multiplier`` over the observed RTT window, clamped to
        ``[min_timeout_ms, max_timeout_ms]`` (the cap comes from the
        QRPC schedule).
    hedging / hedge_quantile:
        When a round has been outstanding for the detector's
        ``hedge_quantile`` RTT estimate without completing, send one
        backup probe to an extra (preferably unsuspected) replica.
    jittered_backoff:
        Replace QRPC's deterministic exponential backoff with
        decorrelated jitter (``uniform(base, prev * 3)``, capped) drawn
        from a dedicated per-node RNG stream.
    degraded_max_staleness_ms:
        The *advertised* staleness bound for degraded reads: when a
        read's storage attempt fails, a front end serves a locally
        remembered value only while its age-of-information is within
        this bound, and every degraded reply carries both the age and
        the bound.
    catchup / catchup_retry_ms:
        Post-crash catch-up: a recovered OQS node revalidates its
        pre-crash cache against an IQS read quorum before serving local
        reads again, retrying roughly every ``catchup_retry_ms`` while
        the quorum is unreachable.
    """

    rtt_window: int = 64
    min_rtt_samples: int = 4
    suspicion_threshold: float = 2.0
    timeout_quantile: float = 0.95
    timeout_multiplier: float = 2.0
    min_timeout_ms: float = 10.0
    hedging: bool = True
    hedge_quantile: float = 0.9
    jittered_backoff: bool = True
    degraded_max_staleness_ms: float = 8_000.0
    catchup: bool = True
    catchup_retry_ms: float = 500.0

    def __post_init__(self) -> None:
        if self.rtt_window < 1 or self.min_rtt_samples < 1:
            raise ValueError("rtt_window and min_rtt_samples must be >= 1")
        if not 0.0 < self.timeout_quantile <= 1.0:
            raise ValueError("timeout_quantile must be in (0, 1]")
        if not 0.0 < self.hedge_quantile <= 1.0:
            raise ValueError("hedge_quantile must be in (0, 1]")
        if self.timeout_multiplier < 1.0:
            raise ValueError("timeout_multiplier must be >= 1")
        if self.suspicion_threshold <= 0:
            raise ValueError("suspicion_threshold must be positive")
        if min(self.degraded_max_staleness_ms, self.catchup_retry_ms) <= 0:
            raise ValueError("resilience intervals must be positive")
