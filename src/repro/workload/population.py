"""Aggregate client populations: open-loop arrivals at internet scale.

The paper's evaluation drives each edge server with a handful of
*closed-loop* clients — one coroutine per client, the next request only
after the previous response.  That model cannot express "millions of
users": a million coroutines would cost millions of kernel events per
simulated second before a single request is served.

This module replaces per-client coroutines with **aggregate
populations**.  A population of ``N`` modeled users, each issuing
``λ`` requests per second, is the superposition of ``N`` independent
Poisson processes — statistically identical to *one* Poisson process at
rate ``N·λ`` (the classic fluid aggregation).  So the population is
simulated as a single open-loop arrival process whose events are handed
to a **bounded pool of issuer coroutines** that drive the *existing*
protocol clients.  Kernel cost scales with the number of *arrivals*
(rate × horizon), never with the number of modeled users: a
million-user PoP at a compressed horizon costs thousands of events per
simulated second, not millions of coroutines.

Building blocks
---------------
* :class:`RateProfile` — deterministic time-varying modulation of the
  base rate: :class:`DiurnalProfile` (sinusoidal day/night cycle),
  :class:`FlashCrowdProfile` (ramp / hold / decay spike),
  :class:`CompositeProfile` (product of modulations).
* :class:`PoissonArrivals` — non-homogeneous Poisson arrivals via
  Lewis–Shedler thinning against the profile's rate ceiling.
* :class:`MmppArrivals` — a 2-state Markov-modulated Poisson process
  (normal / burst states with exponential dwell times) for arrival
  correlation beyond what a deterministic profile expresses.
* :class:`IssuerPool` — a fixed number of issuer coroutines around
  protocol clients, with a bounded FIFO overflow queue; arrivals beyond
  the queue are *dropped* (counted, like an overloaded accept queue).
* :func:`drive_population` — the dispatcher process: draws arrivals,
  load-balances them across pools, closes the pools at the horizon.
* :func:`spawn_per_user_clients` — the old one-coroutine-per-user model
  (open loop, exponential gaps) kept as the statistical reference for
  the aggregate-vs-coroutine equivalence tests.

Determinism
-----------
Every random draw comes from RNG streams owned by the caller (dedicated
``random.Random(f"...:{seed}")`` streams in the CDN scenarios); the
dispatcher hands work to issuers in FIFO order and pools serve their
queues in FIFO order, so a same-seed run replays byte-identically.  The
simulator's own ``sim.rng`` is never touched.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Sequence

from ..consistency.history import History
from ..sim.kernel import Simulator
from .generators import OpSpec
from .runner import issue

__all__ = [
    "RateProfile",
    "ConstantProfile",
    "DiurnalProfile",
    "FlashCrowdProfile",
    "CompositeProfile",
    "ArrivalProcess",
    "PoissonArrivals",
    "MmppArrivals",
    "PopulationStats",
    "IssuerPool",
    "drive_population",
    "pick_round_robin",
    "pick_least_loaded",
    "spawn_per_user_clients",
]


# ---------------------------------------------------------------------------
# rate profiles
# ---------------------------------------------------------------------------


class RateProfile:
    """A deterministic rate multiplier over simulated time.

    ``multiplier(t)`` scales the population's base arrival rate at time
    *t* (ms); ``ceiling()`` bounds it from above so the thinning sampler
    has a proposal rate.  Multipliers must be non-negative and never
    exceed the ceiling.
    """

    def multiplier(self, t_ms: float) -> float:
        raise NotImplementedError

    def ceiling(self) -> float:
        raise NotImplementedError


class ConstantProfile(RateProfile):
    """A flat profile (multiplier 1): the homogeneous Poisson case."""

    def multiplier(self, t_ms: float) -> float:
        return 1.0

    def ceiling(self) -> float:
        return 1.0


class DiurnalProfile(RateProfile):
    """Sinusoidal day/night modulation.

    ``1 + amplitude * cos(2π (t - peak) / period)`` — the multiplier
    peaks at ``1 + amplitude`` when ``t mod period == peak_frac *
    period`` and bottoms out at ``1 - amplitude``.  ``amplitude`` in
    [0, 1] keeps the rate non-negative.
    """

    def __init__(
        self,
        period_ms: float = 86_400_000.0,
        amplitude: float = 0.5,
        peak_frac: float = 0.5,
    ) -> None:
        if not 0 < period_ms < math.inf:
            raise ValueError("period must be positive and finite")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if not 0.0 <= peak_frac < 1.0:
            raise ValueError("peak_frac must be in [0, 1)")
        self.period_ms = period_ms
        self.amplitude = amplitude
        self.peak_frac = peak_frac

    def multiplier(self, t_ms: float) -> float:
        phase = (t_ms / self.period_ms) - self.peak_frac
        return 1.0 + self.amplitude * math.cos(2.0 * math.pi * phase)

    def ceiling(self) -> float:
        return 1.0 + self.amplitude


class FlashCrowdProfile(RateProfile):
    """A flash crowd: linear ramp to a peak, hold, exponential decay.

    Outside the event the multiplier is 1.  From ``start_ms`` it ramps
    linearly over ``ramp_ms`` to ``peak_multiplier``, holds for
    ``hold_ms``, then decays exponentially with time constant
    ``decay_ms`` back toward 1 (cut off once within 1 %).
    """

    def __init__(
        self,
        start_ms: float,
        peak_multiplier: float,
        ramp_ms: float = 1_000.0,
        hold_ms: float = 5_000.0,
        decay_ms: float = 5_000.0,
    ) -> None:
        if not 1.0 <= peak_multiplier < math.inf:
            raise ValueError("peak_multiplier must be >= 1 and finite")
        if not (start_ms >= 0 and ramp_ms >= 0 and hold_ms >= 0 and decay_ms >= 0):
            raise ValueError("flash-crowd times must be non-negative")
        self.start_ms = start_ms
        self.peak_multiplier = peak_multiplier
        self.ramp_ms = ramp_ms
        self.hold_ms = hold_ms
        self.decay_ms = decay_ms

    def multiplier(self, t_ms: float) -> float:
        dt = t_ms - self.start_ms
        if dt < 0:
            return 1.0
        if dt < self.ramp_ms:
            return 1.0 + (self.peak_multiplier - 1.0) * (dt / self.ramp_ms)
        dt -= self.ramp_ms
        if dt < self.hold_ms:
            return self.peak_multiplier
        dt -= self.hold_ms
        if self.decay_ms <= 0:
            return 1.0
        excess = (self.peak_multiplier - 1.0) * math.exp(-dt / self.decay_ms)
        return 1.0 + (excess if excess > 0.01 * (self.peak_multiplier - 1.0) else 0.0)

    def ceiling(self) -> float:
        return self.peak_multiplier


class CompositeProfile(RateProfile):
    """Product of component profiles (diurnal cycle × flash crowd)."""

    def __init__(self, profiles: Sequence[RateProfile]) -> None:
        self.profiles = list(profiles)

    def multiplier(self, t_ms: float) -> float:
        out = 1.0
        for p in self.profiles:
            out *= p.multiplier(t_ms)
        return out

    def ceiling(self) -> float:
        out = 1.0
        for p in self.profiles:
            out *= p.ceiling()
        return out


# ---------------------------------------------------------------------------
# arrival processes
# ---------------------------------------------------------------------------


class ArrivalProcess:
    """Draws successive absolute arrival instants (ms, strictly
    increasing).  Implementations own their RNG so two processes with
    distinct streams never perturb each other."""

    def next_arrival(self, now_ms: float) -> float:
        raise NotImplementedError


class PoissonArrivals(ArrivalProcess):
    """(Non-)homogeneous Poisson arrivals at ``rate_per_s × profile``.

    Uses Lewis–Shedler thinning: candidate gaps are exponential at the
    profile's ceiling rate and accepted with probability
    ``rate(t) / rate_max`` — exact for any bounded profile, and one RNG
    stream drives both draws (deterministic under a fixed seed).
    """

    def __init__(self, rng, rate_per_s: float,
                 profile: Optional[RateProfile] = None) -> None:
        if not 0 < rate_per_s < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        self.rng = rng
        self.rate_per_ms = rate_per_s / 1000.0
        self.profile = profile or ConstantProfile()
        self._ceiling = self.rate_per_ms * self.profile.ceiling()
        if self._ceiling <= 0:
            raise ValueError("profile ceiling must leave a positive rate")

    def _accept_prob(self, t_ms: float) -> float:
        return (self.rate_per_ms * self.profile.multiplier(t_ms)) / self._ceiling

    def next_arrival(self, now_ms: float) -> float:
        t = now_ms
        while True:
            t += self.rng.expovariate(self._ceiling)
            if self.rng.random() < self._accept_prob(t):
                return t


class MmppArrivals(ArrivalProcess):
    """A 2-state Markov-modulated Poisson process.

    The hidden chain alternates between a *normal* state (multiplier 1)
    and a *burst* state (``burst_multiplier``), with exponential dwell
    times.  Within the current state, arrivals are Poisson at
    ``rate × state multiplier × profile(t)``.  Implemented as thinning
    at the burst-rate ceiling, with the state trajectory advanced
    lazily and deterministically from the same RNG stream.
    """

    def __init__(
        self,
        rng,
        rate_per_s: float,
        burst_multiplier: float = 4.0,
        mean_dwell_normal_ms: float = 10_000.0,
        mean_dwell_burst_ms: float = 2_000.0,
        profile: Optional[RateProfile] = None,
    ) -> None:
        if not 0 < rate_per_s < math.inf:
            raise ValueError("arrival rate must be positive and finite")
        if not 1.0 <= burst_multiplier < math.inf:
            raise ValueError("burst_multiplier must be >= 1 and finite")
        self.dwell_ms = (mean_dwell_normal_ms, mean_dwell_burst_ms)
        if not all(0 < dwell < math.inf for dwell in self.dwell_ms):
            raise ValueError("dwell times must be positive and finite")
        self.rng = rng
        self.rate_per_ms = rate_per_s / 1000.0
        self.burst_multiplier = burst_multiplier
        self.profile = profile or ConstantProfile()
        self._ceiling = self.rate_per_ms * burst_multiplier * self.profile.ceiling()
        self._state = 0  # 0 = normal, 1 = burst
        self._next_switch = rng.expovariate(1.0 / self.dwell_ms[0])

    def _state_at(self, t_ms: float) -> int:
        while self._next_switch <= t_ms:
            self._state = 1 - self._state
            self._next_switch += self.rng.expovariate(
                1.0 / self.dwell_ms[self._state]
            )
        return self._state

    def next_arrival(self, now_ms: float) -> float:
        t = now_ms
        while True:
            t += self.rng.expovariate(self._ceiling)
            state_mult = self.burst_multiplier if self._state_at(t) else 1.0
            rate = self.rate_per_ms * state_mult * self.profile.multiplier(t)
            if self.rng.random() < rate / self._ceiling:
                return t


# ---------------------------------------------------------------------------
# issuer pools
# ---------------------------------------------------------------------------


@dataclass
class PopulationStats:
    """Counters for one population / issuer pool."""

    arrivals: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    dropped: int = 0
    queue_peak: int = 0
    #: sum over dispatched ops of (issue time - arrival time), ms
    queue_wait_ms: float = 0.0

    def merged(self, other: "PopulationStats") -> "PopulationStats":
        return PopulationStats(
            arrivals=self.arrivals + other.arrivals,
            dispatched=self.dispatched + other.dispatched,
            completed=self.completed + other.completed,
            failed=self.failed + other.failed,
            dropped=self.dropped + other.dropped,
            queue_peak=max(self.queue_peak, other.queue_peak),
            queue_wait_ms=self.queue_wait_ms + other.queue_wait_ms,
        )

    def to_json_obj(self) -> dict:
        return dataclasses.asdict(self)


class IssuerPool:
    """A bounded pool of issuer coroutines around protocol clients.

    One issuer coroutine per entry in *clients*; an arrival submitted
    while every issuer is busy waits in a bounded FIFO queue, and
    arrivals beyond ``queue_limit`` are dropped (counted — the model of
    an overloaded accept queue).  Completed operations are recorded into
    *history* with ``start`` = the *arrival* instant, so open-loop
    latency includes queueing delay, as it must.
    """

    def __init__(
        self,
        sim: Simulator,
        clients: Sequence,
        history: History,
        queue_limit: int = 1_000,
        name: str = "pool",
        stats: Optional[PopulationStats] = None,
    ) -> None:
        if not clients:
            raise ValueError("issuer pool needs at least one client")
        if queue_limit < 0:
            raise ValueError("queue_limit must be non-negative")
        self.sim = sim
        self.history = history
        self.queue_limit = queue_limit
        self.name = name
        self.stats = stats if stats is not None else PopulationStats()
        self.in_flight = 0
        self._queue: deque = deque()
        self._idle: deque = deque()
        self._closed = False
        self.processes = [
            sim.spawn(self._issuer(client), name=f"{name}:issuer{i}")
            for i, client in enumerate(clients)
        ]

    @property
    def load(self) -> int:
        """Pending work: executing plus queued (the least-loaded
        balancing signal)."""
        return self.in_flight + len(self._queue)

    def submit(self, spec: OpSpec, arrival_ms: float) -> bool:
        """Hand one arrival to the pool; False when it had to be dropped."""
        if self._closed:
            raise RuntimeError(f"pool {self.name} is closed")
        self.stats.arrivals += 1
        if self._idle:
            self._idle.popleft().resolve((spec, arrival_ms))
            return True
        if len(self._queue) < self.queue_limit:
            self._queue.append((spec, arrival_ms))
            if len(self._queue) > self.stats.queue_peak:
                self.stats.queue_peak = len(self._queue)
            return True
        self.stats.dropped += 1
        return False

    def close(self) -> None:
        """No more arrivals: issuers drain the queue, then exit."""
        self._closed = True
        while self._idle:
            self._idle.popleft().resolve(None)

    def _issuer(self, client):
        while True:
            if self._queue:
                item = self._queue.popleft()
            elif self._closed:
                return
            else:
                slot = self.sim.future(name=f"{self.name}:idle")
                self._idle.append(slot)
                item = yield slot
                if item is None:
                    return
            spec, arrival_ms = item
            self.stats.dispatched += 1
            self.stats.queue_wait_ms += self.sim.now - arrival_ms
            self.in_flight += 1
            try:
                op = yield from issue(self.sim, client, spec, start=arrival_ms)
            finally:
                self.in_flight -= 1
            self.history.ops.append(op)
            if op.ok:
                self.stats.completed += 1
            else:
                self.stats.failed += 1


# ---------------------------------------------------------------------------
# balancing + the dispatcher
# ---------------------------------------------------------------------------


def pick_round_robin(pools: Sequence[IssuerPool], index: int) -> int:
    """Spread arrivals over pools in arrival order."""
    return index % len(pools)


def pick_least_loaded(pools: Sequence[IssuerPool], index: int) -> int:
    """Send each arrival to the least-loaded pool (ties: lowest index) —
    the front-end load-balancer model."""
    best = 0
    best_load = pools[0].load
    for i in range(1, len(pools)):
        load = pools[i].load
        if load < best_load:
            best, best_load = i, load
    return best


def drive_population(
    sim: Simulator,
    arrivals: ArrivalProcess,
    stream: Iterator[OpSpec],
    pools: Sequence[IssuerPool],
    horizon_ms: float,
    balancer: Callable[[Sequence[IssuerPool], int], int] = pick_round_robin,
    stats: Optional[PopulationStats] = None,
):
    """Dispatcher kernel process for one population.

    Draws arrivals until the horizon, takes the next op from *stream*,
    and submits it to the pool chosen by *balancer*.  At the horizon
    every pool is closed (issuers drain their queues and exit).  Run it
    with ``sim.spawn``; the caller owns pool construction so several
    populations may share pools.
    """
    if not 0 < horizon_ms < math.inf:
        raise ValueError("horizon must be positive and finite")
    index = 0
    t = arrivals.next_arrival(sim.now)
    while t <= horizon_ms:
        if t > sim.now:
            yield sim.sleep(t - sim.now)
        spec = next(stream)
        if stats is not None:
            stats.arrivals += 1
        pools[balancer(pools, index)].submit(spec, sim.now)
        index += 1
        t = arrivals.next_arrival(t)
    for pool in pools:
        pool.close()


# ---------------------------------------------------------------------------
# the per-user reference model
# ---------------------------------------------------------------------------


def spawn_per_user_clients(
    sim: Simulator,
    clients: Sequence,
    stream_factory: Callable[[int], Iterator[OpSpec]],
    rng_factory: Callable[[int], "object"],
    rate_per_user_per_s: float,
    history: History,
    horizon_ms: float,
) -> List:
    """The legacy one-coroutine-per-user model, for equivalence checks.

    Spawns one open-loop coroutine per entry in *clients*: user *u*
    draws exponential gaps at ``rate_per_user_per_s`` from
    ``rng_factory(u)`` and issues ops from ``stream_factory(u)`` until
    the horizon.  The superposition of these processes is statistically
    identical to one aggregate :class:`PoissonArrivals` population at
    ``len(clients) × rate`` — the property the equivalence tests pin.
    """
    rate_per_ms = rate_per_user_per_s / 1000.0
    if rate_per_ms <= 0:
        raise ValueError("per-user rate must be positive")

    def user(u: int, client):
        rng = rng_factory(u)
        stream = stream_factory(u)
        t = rng.expovariate(rate_per_ms)
        while t <= horizon_ms:
            yield sim.sleep(t - sim.now)
            history.ops.append((yield from issue(sim, client, next(stream))))
            t = max(t, sim.now) + rng.expovariate(rate_per_ms)

    return [
        sim.spawn(user(u, client), name=f"user{u}")
        for u, client in enumerate(clients)
    ]
