"""Tests for aggregate client populations (repro.workload.population).

Statistical tests use wide confidence intervals (≥4σ) on fixed seeds so
they are deterministic in CI while still catching real model errors
(wrong rate by 2x, missing modulation, broken thinning).
"""

import math
import random

import pytest

from repro.consistency import History
from repro.sim import Simulator
from repro.types import READ, WRITE, ZERO_LC, LogicalClock, Op
from repro.workload import (
    BernoulliOpStream,
    CompositeProfile,
    ConstantProfile,
    DiurnalProfile,
    FixedKeyChooser,
    FlashCrowdProfile,
    IssuerPool,
    MmppArrivals,
    PoissonArrivals,
    PopulationStats,
    UniformKeyChooser,
    drive_population,
    pick_least_loaded,
    pick_round_robin,
    spawn_per_user_clients,
)


def _arrival_times(process, horizon_ms):
    times = []
    t = 0.0
    while True:
        t = process.next_arrival(t)
        if t > horizon_ms:
            return times
        times.append(t)


class TestRateProfiles:
    def test_constant(self):
        p = ConstantProfile()
        assert p.multiplier(0) == p.multiplier(1e9) == 1.0
        assert p.ceiling() == 1.0

    def test_diurnal_peak_and_trough(self):
        p = DiurnalProfile(period_ms=1000.0, amplitude=0.5, peak_frac=0.25)
        assert p.multiplier(250.0) == pytest.approx(1.5)
        assert p.multiplier(750.0) == pytest.approx(0.5)
        assert p.ceiling() == pytest.approx(1.5)

    def test_flash_crowd_shape(self):
        p = FlashCrowdProfile(start_ms=100.0, peak_multiplier=5.0,
                              ramp_ms=100.0, hold_ms=200.0, decay_ms=100.0)
        assert p.multiplier(50.0) == 1.0
        assert p.multiplier(150.0) == pytest.approx(3.0)  # mid-ramp
        assert p.multiplier(300.0) == 5.0  # hold
        assert p.multiplier(500.0) < 3.0  # decaying
        assert p.multiplier(5000.0) == 1.0  # cut off
        assert p.ceiling() == 5.0

    def test_composite_is_product(self):
        p = CompositeProfile([
            DiurnalProfile(period_ms=1000.0, amplitude=0.5, peak_frac=0.25),
            FlashCrowdProfile(start_ms=0.0, peak_multiplier=2.0,
                              ramp_ms=0.0, hold_ms=1e9, decay_ms=1.0),
        ])
        assert p.multiplier(250.0) == pytest.approx(3.0)
        assert p.ceiling() == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiurnalProfile(amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowdProfile(start_ms=0.0, peak_multiplier=0.5)
        # A NaN or infinite multiplier or period hangs the thinning loop;
        # a NaN start or duration silently drops the flash crowd.
        with pytest.raises(ValueError):
            DiurnalProfile(period_ms=math.nan)
        for peak in (math.nan, math.inf):
            with pytest.raises(ValueError):
                FlashCrowdProfile(start_ms=0.0, peak_multiplier=peak)
        for times in ({"start_ms": math.nan}, {"start_ms": 0.0, "ramp_ms": math.nan},
                      {"start_ms": 0.0, "hold_ms": math.nan},
                      {"start_ms": 0.0, "decay_ms": math.nan}):
            with pytest.raises(ValueError):
                FlashCrowdProfile(peak_multiplier=2.0, **times)


class TestPoissonArrivals:
    def test_empirical_rate_within_ci(self):
        """Rate 5/s over 400 s: expected 2000 arrivals, σ=√2000≈45."""
        process = PoissonArrivals(random.Random("pois-rate"), 5.0)
        count = len(_arrival_times(process, 400_000.0))
        assert abs(count - 2000) < 4 * math.sqrt(2000)

    def test_arrivals_strictly_increasing(self):
        process = PoissonArrivals(random.Random(0), 50.0)
        times = _arrival_times(process, 10_000.0)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_flash_crowd_peak_timing(self):
        """Arrivals inside the hold window run at peak x base rate."""
        profile = FlashCrowdProfile(start_ms=10_000.0, peak_multiplier=4.0,
                                    ramp_ms=1_000.0, hold_ms=10_000.0,
                                    decay_ms=1_000.0)
        process = PoissonArrivals(random.Random("flash"), 10.0, profile=profile)
        times = _arrival_times(process, 40_000.0)
        before = sum(1 for t in times if t < 10_000.0)  # E = 100
        hold = sum(1 for t in times if 11_000.0 <= t < 21_000.0)  # E = 400
        after = sum(1 for t in times if t >= 25_000.0)  # E = 150
        assert hold > 2.5 * (before / 10.0) * 10.0  # ≥2.5x baseline
        assert abs(before - 100) < 4 * math.sqrt(100)
        assert abs(hold - 400) < 4 * math.sqrt(400)
        assert abs(after - 150) < 4 * math.sqrt(150)

    def test_diurnal_phase(self):
        """More arrivals in the half-period around the peak than around
        the trough, with the configured phase."""
        profile = DiurnalProfile(period_ms=10_000.0, amplitude=0.8,
                                 peak_frac=0.25)
        process = PoissonArrivals(random.Random("diurnal"), 20.0,
                                  profile=profile)
        times = _arrival_times(process, 100_000.0)
        peak_half = sum(1 for t in times if (t % 10_000.0) < 5_000.0)
        trough_half = len(times) - peak_half
        # Integrated multiplier over the peak half is 1 + 2·0.8/π ≈ 1.51
        # vs 0.49 for the trough half: expect roughly a 3:1 split.
        assert peak_half > 2.0 * trough_half

    def test_validation(self):
        # NaN and inf must not pass: thinning would then never accept a
        # candidate (``random() < nan`` is never true) and never return.
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                PoissonArrivals(random.Random(0), rate)


class TestMmppArrivals:
    def test_rate_within_ci_of_mean(self):
        """2-state MMPP mean rate = base x E[multiplier]; with equal
        dwells and burst 3x, E[mult] = 2 — check the doubled budget."""
        process = MmppArrivals(
            random.Random("mmpp"), 10.0, burst_multiplier=3.0,
            mean_dwell_normal_ms=1_000.0, mean_dwell_burst_ms=1_000.0,
        )
        count = len(_arrival_times(process, 200_000.0))
        expected = 10.0 * 2.0 * 200.0  # 4000
        # MMPP counts are overdispersed; allow a generous band.
        assert 0.7 * expected < count < 1.3 * expected

    def test_burstier_than_poisson(self):
        """Index of dispersion of per-second counts must exceed 1."""
        process = MmppArrivals(
            random.Random("mmpp-burst"), 20.0, burst_multiplier=8.0,
            mean_dwell_normal_ms=5_000.0, mean_dwell_burst_ms=2_000.0,
        )
        times = _arrival_times(process, 300_000.0)
        bins = [0] * 300
        for t in times:
            bins[min(299, int(t // 1000.0))] += 1
        mean = sum(bins) / len(bins)
        var = sum((b - mean) ** 2 for b in bins) / len(bins)
        assert var / mean > 2.0  # Poisson would be ~1

    def test_validation(self):
        with pytest.raises(ValueError):
            MmppArrivals(random.Random(0), 5.0, burst_multiplier=0.5)
        with pytest.raises(ValueError):
            MmppArrivals(random.Random(0), 5.0, mean_dwell_normal_ms=0.0)
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                MmppArrivals(random.Random(0), rate)
        # A NaN or infinite burst multiplier or dwell time never accepts a
        # candidate, never switches state, or divides by zero mid-run.
        for fields in ({"burst_multiplier": math.nan}, {"burst_multiplier": math.inf},
                       {"mean_dwell_normal_ms": math.nan}, {"mean_dwell_burst_ms": math.nan},
                       {"mean_dwell_normal_ms": math.inf}, {"mean_dwell_burst_ms": math.inf}):
            with pytest.raises(ValueError):
                MmppArrivals(random.Random(0), 5.0, **fields)


class FakeClient:
    """In-sim store with a fixed latency, for pool tests."""

    def __init__(self, sim, node_id="fake", latency=10.0):
        self.sim = sim
        self.node_id = node_id
        self.latency = latency
        self.store = {}

    def read(self, key):
        start = self.sim.now
        yield self.sim.sleep(self.latency)
        value, lc = self.store.get(key, (None, ZERO_LC))
        return Op(READ, key, value, lc, start, self.sim.now, self.node_id)

    def write(self, key, value):
        start = self.sim.now
        yield self.sim.sleep(self.latency)
        lc = LogicalClock(len(self.store) + 1, self.node_id)
        self.store[key] = (value, lc)
        return Op(WRITE, key, value, lc, start, self.sim.now, self.node_id)


class TestIssuerPool:
    def _pool(self, sim, history, num_clients=2, queue_limit=2, latency=10.0):
        clients = [FakeClient(sim, f"c{i}", latency) for i in range(num_clients)]
        return IssuerPool(sim, clients, history, queue_limit=queue_limit)

    def test_latency_includes_queue_wait(self):
        sim = Simulator(seed=0)
        history = History()
        pool = self._pool(sim, history, num_clients=1, queue_limit=10)
        stream = BernoulliOpStream(
            random.Random(0), FixedKeyChooser("k"), 0.0
        )
        arrivals = PoissonArrivals(random.Random("q"), 1000.0)  # overload
        sim.spawn(drive_population(sim, arrivals, stream, [pool], 20.0))
        sim.run(until=1_000.0)
        assert pool.stats.completed > 1
        ops = history.reads()
        # The one issuer serialises ops at 10 ms each; later ops must
        # carry their queue wait (latency > service time).
        assert ops[-1].latency > 10.0
        assert pool.stats.queue_wait_ms > 0.0

    def test_queue_overflow_drops(self):
        sim = Simulator(seed=0)
        history = History()
        pool = self._pool(sim, history, num_clients=1, queue_limit=2)
        stream = BernoulliOpStream(random.Random(0), FixedKeyChooser("k"), 0.0)
        arrivals = PoissonArrivals(random.Random("drop"), 5000.0)
        sim.spawn(drive_population(sim, arrivals, stream, [pool], 10.0))
        sim.run(until=1_000.0)
        assert pool.stats.dropped > 0
        assert pool.stats.queue_peak == 2
        assert pool.stats.arrivals == (
            pool.stats.dispatched + pool.stats.dropped
        )

    def test_pools_drain_and_exit_after_close(self):
        sim = Simulator(seed=0)
        history = History()
        pool = self._pool(sim, history, num_clients=2, queue_limit=50)
        stream = BernoulliOpStream(random.Random(1), FixedKeyChooser("k"), 0.3)
        arrivals = PoissonArrivals(random.Random("drain"), 400.0)
        dispatcher = sim.spawn(
            drive_population(sim, arrivals, stream, [pool], 50.0)
        )
        sim.run(until=5_000.0)
        assert dispatcher.done
        assert all(proc.done for proc in pool.processes)
        assert pool.stats.dispatched == pool.stats.completed
        assert len(history) == pool.stats.completed

    def test_balancers(self):
        sim = Simulator(seed=0)
        history = History()
        pools = [self._pool(sim, history, num_clients=1, queue_limit=100)
                 for _ in range(3)]
        assert pick_round_robin(pools, 0) == 0
        assert pick_round_robin(pools, 4) == 1
        pools[0]._queue.append(("spec", 0.0))
        pools[0].in_flight = 2
        assert pick_least_loaded(pools, 0) == 1  # ties break low index

    def test_submit_after_close_raises(self):
        sim = Simulator(seed=0)
        pool = self._pool(sim, History())
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit(None, 0.0)


class TestAggregateEquivalence:
    """The tentpole claim: an aggregate population of N users at rate λ
    is statistically interchangeable with N per-user coroutines."""

    N_USERS = 20
    RATE = 2.0  # per user per second
    HORIZON = 60_000.0
    WRITE_RATIO = 0.3

    def _run_aggregate(self, seed=7):
        sim = Simulator(seed=seed)
        history = History()
        clients = [FakeClient(sim, f"agg{i}", 10.0) for i in range(self.N_USERS)]
        pool = IssuerPool(sim, clients, history, queue_limit=10_000)
        stream = BernoulliOpStream(
            random.Random(f"eq-ops:{seed}"),
            UniformKeyChooser([f"k{i}" for i in range(10)]),
            self.WRITE_RATIO,
        )
        arrivals = PoissonArrivals(
            random.Random(f"eq-arr:{seed}"), self.N_USERS * self.RATE
        )
        sim.spawn(drive_population(sim, arrivals, stream, [pool], self.HORIZON))
        sim.run(until=self.HORIZON + 60_000.0)
        return history

    def _run_per_user(self, seed=7):
        sim = Simulator(seed=seed)
        history = History()
        clients = [FakeClient(sim, f"usr{i}", 10.0) for i in range(self.N_USERS)]

        def stream_factory(u):
            return BernoulliOpStream(
                random.Random(f"eq-user-ops:{seed}:{u}"),
                UniformKeyChooser([f"k{i}" for i in range(10)]),
                self.WRITE_RATIO,
            )

        spawn_per_user_clients(
            sim, clients, stream_factory,
            lambda u: random.Random(f"eq-user-arr:{seed}:{u}"),
            self.RATE, history, self.HORIZON,
        )
        sim.run(until=self.HORIZON + 60_000.0)
        return history

    def test_aggregate_matches_per_user_model(self):
        agg = self._run_aggregate()
        per = self._run_per_user()
        # Both counts ~ Poisson(N·λ·T) = 2400; each within 5σ, and
        # within 10% of each other.
        expected = self.N_USERS * self.RATE * self.HORIZON / 1000.0
        for history in (agg, per):
            assert abs(len(history) - expected) < 5 * math.sqrt(expected)
        assert abs(len(agg) - len(per)) < 0.1 * expected
        # Write mix agrees with the configured ratio for both.
        for history in (agg, per):
            mix = len(history.writes()) / len(history)
            assert abs(mix - self.WRITE_RATIO) < 0.05
        # Latency summaries agree: unloaded, both should sit at the
        # 10 ms service time (no queueing at 40 req/s over 20 issuers).
        agg_mean = sum(op.latency for op in agg.ops) / len(agg)
        per_mean = sum(op.latency for op in per.ops) / len(per)
        assert agg_mean == pytest.approx(per_mean, rel=0.05)
        assert per_mean == pytest.approx(10.0, rel=0.05)


class TestDeterminism:
    def test_same_seed_same_arrivals(self):
        a = _arrival_times(PoissonArrivals(random.Random("d:1"), 50.0), 10_000.0)
        b = _arrival_times(PoissonArrivals(random.Random("d:1"), 50.0), 10_000.0)
        assert a == b

    def test_stats_merge(self):
        a = PopulationStats(arrivals=3, dispatched=2, completed=2,
                            queue_peak=4, queue_wait_ms=1.5)
        b = PopulationStats(arrivals=1, dispatched=1, failed=1,
                            queue_peak=7, queue_wait_ms=0.5)
        m = a.merged(b)
        assert m.arrivals == 4 and m.dispatched == 3
        assert m.queue_peak == 7  # max, not sum
        assert m.queue_wait_ms == 2.0
