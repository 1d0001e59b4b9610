"""Tests for workload generators and the closed-loop runner."""

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import History
from repro.sim import Simulator
from repro.workload import (
    BernoulliOpStream,
    FixedKeyChooser,
    MarkovBurstStream,
    PartitionedKeyChooser,
    UniformKeyChooser,
    ZipfKeyChooser,
    closed_loop,
    profile_key,
    profile_keys,
    tpcw_profile_stream,
)
from repro.types import READ, WRITE, ZERO_LC, LogicalClock, Op


class TestKeyChoosers:
    def test_fixed(self):
        assert FixedKeyChooser("k").pick(random.Random(0)) == "k"

    def test_uniform_covers_population(self):
        keys = [f"k{i}" for i in range(5)]
        chooser = UniformKeyChooser(keys)
        rng = random.Random(0)
        seen = {chooser.pick(rng) for _ in range(200)}
        assert seen == set(keys)

    def test_uniform_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformKeyChooser([])

    def test_zipf_skews_toward_head(self):
        keys = [f"k{i}" for i in range(20)]
        chooser = ZipfKeyChooser(keys, s=1.2)
        rng = random.Random(1)
        counts = {}
        for _ in range(5000):
            k = chooser.pick(rng)
            counts[k] = counts.get(k, 0) + 1
        assert counts["k0"] > counts.get("k10", 0) > counts.get("k19", 0)

    def test_zipf_zero_exponent_is_uniformish(self):
        keys = [f"k{i}" for i in range(4)]
        chooser = ZipfKeyChooser(keys, s=0.0)
        rng = random.Random(2)
        counts = {k: 0 for k in keys}
        for _ in range(4000):
            counts[chooser.pick(rng)] += 1
        assert max(counts.values()) < 1.3 * min(counts.values())

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            ZipfKeyChooser([], s=1.0)
        with pytest.raises(ValueError):
            ZipfKeyChooser(["a"], s=-1.0)
        with pytest.raises(ValueError):  # NaN would put every draw on "a"
            ZipfKeyChooser(["a", "b"], s=math.nan)

    def test_zipf_infinite_exponent_picks_the_top_key(self):
        chooser = ZipfKeyChooser(["a", "b", "c"], s=math.inf)
        rng = random.Random(5)
        assert {chooser.pick(rng) for _ in range(200)} == {"a"}

    @pytest.mark.parametrize("n, s", [(100_000, 1.1), (1000, 0.8), (50, 0.9), (7, 0.0)])
    def test_zipf_cdf_is_the_plain_float_table(self, n, s):
        """The flat table holds exactly the floats of the list build, so
        every draw over it is unchanged."""
        from repro.workload.generators import _zipf_cdf

        weights = [1.0 / rank**s for rank in range(1, n + 1)]
        total = sum(weights)
        expected = list(itertools.accumulate(w / total for w in weights))
        cdf = _zipf_cdf(n, s)
        assert cdf.itemsize == 8
        assert len(cdf) == n
        assert list(cdf) == expected

    def test_zipf_cdf_build_peak_memory(self, monkeypatch):
        """A 10^5-key table (0.8 MB of doubles) builds without a boxed
        float per key: a list of floats alone would take 3.2 MB."""
        from repro.workload import generators

        monkeypatch.setattr(generators, "_ZIPF_CDF_CACHE", {})
        tracemalloc.start()
        try:
            generators._zipf_cdf(100_000, 1.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6

    def test_zipf_tail_draw_never_indexes_past_end(self):
        """A uniform draw in the float-rounding tail above cdf[-1] must
        clamp to the last key, not raise IndexError."""
        keys = [f"k{i}" for i in range(7)]
        chooser = ZipfKeyChooser(keys, s=0.9)

        class TailRng:
            def random(self):
                return 1.0 - 1e-16  # above cdf[-1] when rounding bites

        assert chooser.pick(TailRng()) == "k6"
        # And bisect agrees with the old hand-rolled search everywhere.
        rng = random.Random(11)
        assert all(chooser.pick(rng) in keys for _ in range(2000))

    def test_zipf_cdf_memoized_across_instances(self):
        from repro.workload.generators import _zipf_cdf

        keys = [f"k{i}" for i in range(100)]
        a = ZipfKeyChooser(keys, s=0.8)
        b = ZipfKeyChooser(list(keys), s=0.8)
        assert a._cdf is b._cdf  # shared, not recomputed
        assert a._cdf is _zipf_cdf(100, 0.8)
        assert ZipfKeyChooser(keys, s=1.2)._cdf is not a._cdf

    def test_lazy_key_universe_matches_materialized_draws(self):
        from repro.workload.generators import KeyUniverse

        universe = KeyUniverse(50, fmt="obj:{:04d}")
        materialized = [f"obj:{i:04d}" for i in range(50)]
        assert list(universe) == materialized
        # Same RNG stream -> same choices on lazy and materialized.
        picks_lazy = [random.Random(3).choice(universe) for _ in range(1)]
        picks_list = [random.Random(3).choice(materialized) for _ in range(1)]
        assert picks_lazy == picks_list
        rng_a, rng_b = random.Random(4), random.Random(4)
        assert [rng_a.choice(universe) for _ in range(100)] == [
            rng_b.choice(materialized) for _ in range(100)
        ]

    def test_partitioned_affinity(self):
        own = ["own1", "own2"]
        foreign = ["f1", "f2"]
        chooser = PartitionedKeyChooser(own, foreign, affinity=0.8)
        rng = random.Random(3)
        own_picks = sum(chooser.pick(rng).startswith("own") for _ in range(2000))
        assert 1500 < own_picks < 1700

    def test_partitioned_no_foreign(self):
        chooser = PartitionedKeyChooser(["a"], [], affinity=0.5)
        rng = random.Random(0)
        assert all(chooser.pick(rng) == "a" for _ in range(20))


class TestBernoulliStream:
    def test_write_ratio_statistics(self):
        rng = random.Random(0)
        stream = BernoulliOpStream(rng, FixedKeyChooser("k"), write_ratio=0.3)
        writes = sum(next(stream).kind == WRITE for _ in range(5000))
        assert 1350 < writes < 1650

    def test_extremes(self):
        rng = random.Random(0)
        all_reads = BernoulliOpStream(rng, FixedKeyChooser("k"), 0.0)
        assert all(next(all_reads).kind == READ for _ in range(50))
        all_writes = BernoulliOpStream(rng, FixedKeyChooser("k"), 1.0)
        assert all(next(all_writes).kind == WRITE for _ in range(50))

    def test_write_values_unique_and_labelled(self):
        rng = random.Random(0)
        stream = BernoulliOpStream(rng, FixedKeyChooser("k"), 1.0, label="cX-")
        values = [next(stream).value for _ in range(10)]
        assert len(set(values)) == 10
        assert all(v.startswith("cX-") for v in values)

    def test_validation(self):
        with pytest.raises(ValueError):
            BernoulliOpStream(random.Random(0), FixedKeyChooser("k"), 1.5)


class TestMarkovBurstStream:
    def test_stationary_write_ratio(self):
        rng = random.Random(4)
        stream = MarkovBurstStream(
            rng, FixedKeyChooser("k"), write_ratio=0.25, mean_write_burst=4.0
        )
        writes = sum(next(stream).kind == WRITE for _ in range(20_000))
        assert 0.22 < writes / 20_000 < 0.28

    def test_mean_burst_length(self):
        rng = random.Random(5)
        stream = MarkovBurstStream(
            rng, FixedKeyChooser("k"), write_ratio=0.5, mean_write_burst=5.0
        )
        ops = [next(stream).kind for _ in range(30_000)]
        bursts = []
        current = 0
        for kind in ops:
            if kind == WRITE:
                current += 1
            elif current:
                bursts.append(current)
                current = 0
        mean = sum(bursts) / len(bursts)
        assert 4.2 < mean < 5.8

    def test_bursts_are_longer_than_bernoulli(self):
        rng = random.Random(6)
        burst = MarkovBurstStream(
            rng, FixedKeyChooser("k"), write_ratio=0.5, mean_write_burst=8.0
        )
        ops = [next(burst).kind for _ in range(5000)]
        switches = sum(a != b for a, b in zip(ops, ops[1:]))
        assert switches < 5000 * 0.3  # far fewer than iid's ~50%

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            MarkovBurstStream(rng, FixedKeyChooser("k"), 0.0)
        # NaN and inf would pin each chain in its first state.
        for burst in (0.5, math.nan, math.inf):
            with pytest.raises(ValueError):
                MarkovBurstStream(rng, FixedKeyChooser("k"), 0.5, mean_write_burst=burst)


class TestTpcw:
    def test_profile_keys(self):
        assert profile_key(7) == "profile:000007"
        assert len(profile_keys(10)) == 10

    def test_stream_write_ratio_default(self):
        rng = random.Random(7)
        stream = tpcw_profile_stream(rng, 0, num_clients=3)
        writes = sum(next(stream).kind == WRITE for _ in range(10_000))
        assert 0.035 < writes / 10_000 < 0.065

    def test_stream_affinity(self):
        rng = random.Random(8)
        stream = tpcw_profile_stream(
            rng, 1, num_clients=3, customers_per_client=10, affinity=0.9
        )
        own = range(10, 20)
        own_keys = {profile_key(c) for c in own}
        picks = [next(stream).key for _ in range(3000)]
        own_rate = sum(k in own_keys for k in picks) / len(picks)
        assert 0.85 < own_rate < 0.95

    def test_client_index_validated(self):
        with pytest.raises(ValueError):
            tpcw_profile_stream(random.Random(0), 5, num_clients=3)

    def test_foreign_profiles_skip_own_range(self):
        from repro.workload.tpcw import _ForeignProfiles

        foreign = _ForeignProfiles(total=20, own_start=5, span=5)
        assert len(foreign) == 15
        customers = [int(foreign[i].split(":")[1]) for i in range(15)]
        assert customers == list(range(0, 5)) + list(range(10, 20))
        with pytest.raises(IndexError):
            foreign[15]
        assert foreign[-1] == profile_key(19)

    def test_fleet_construction_stays_lazy(self):
        """10k client streams must not materialize per-client foreign
        key lists (the old O(num_clients^2 x customers) blowup)."""
        import tracemalloc

        num_clients = 10_000
        tracemalloc.start()
        streams = [
            tpcw_profile_stream(
                random.Random(c), c, num_clients=num_clients,
                customers_per_client=50,
            )
            for c in range(0, num_clients, 100)  # 100 clients of the fleet
        ]
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The old code built 100 lists of ~500k keys (~several GB); the
        # lazy version allocates a few small objects per stream.
        assert peak < 5_000_000
        # And the streams still draw valid keys from the full universe.
        picks = [next(streams[0]).key for _ in range(200)]
        assert all(p.startswith("profile:") for p in picks)


class TestClosedLoop:
    class FakeClient:
        """Synchronous in-sim store with a fixed latency."""

        node_id = "fake"

        def __init__(self, sim, latency=10.0, fail_keys=()):
            self.sim = sim
            self.latency = latency
            self.fail_keys = set(fail_keys)
            self.store = {}

        def read(self, key):
            start = self.sim.now
            yield self.sim.sleep(self.latency)
            if key in self.fail_keys:
                from repro.quorum import QrpcError

                raise QrpcError("READ", 1)
            value, lc = self.store.get(key, (None, ZERO_LC))
            return Op(READ, key, value, lc, start, self.sim.now, self.node_id)

        def write(self, key, value):
            start = self.sim.now
            yield self.sim.sleep(self.latency)
            lc = LogicalClock(len(self.store) + 1, "fake")
            self.store[key] = (value, lc)
            return Op(WRITE, key, value, lc, start, self.sim.now, self.node_id)

    def test_runs_n_ops_closed_loop(self):
        sim = Simulator(seed=0)
        client = self.FakeClient(sim, latency=10.0)
        rng = random.Random(0)
        stream = BernoulliOpStream(rng, FixedKeyChooser("k"), 0.5)
        history = History()
        issued = sim.run_process(
            closed_loop(sim, client, stream, history, num_ops=20)
        )
        assert issued == 20
        assert len(history) == 20
        assert sim.now == 200.0  # strictly sequential

    def test_think_time_spaces_operations(self):
        sim = Simulator(seed=0)
        client = self.FakeClient(sim, latency=10.0)
        stream = BernoulliOpStream(random.Random(0), FixedKeyChooser("k"), 0.0)
        history = History()
        sim.run_process(
            closed_loop(sim, client, stream, history, num_ops=5, think_time_ms=90.0)
        )
        # 5 ops x 10ms separated by 4 think times: no trailing sleep.
        assert sim.now == 5 * 10.0 + 4 * 90.0

    def test_no_think_sleep_past_deadline(self):
        """Once the deadline passes, the loop must not sleep again."""
        sim = Simulator(seed=0)
        client = self.FakeClient(sim, latency=10.0)
        stream = BernoulliOpStream(random.Random(0), FixedKeyChooser("k"), 0.0)
        history = History()
        issued = sim.run_process(
            closed_loop(
                sim, client, stream, history,
                num_ops=100, think_time_ms=90.0, deadline_ms=105.0,
            )
        )
        # Ops at 0 and 100 (gap = 10 latency + 90 think); the second op
        # finishes at 110 >= deadline, so the run ends there — no 90ms
        # trailing think.
        assert issued == 2
        assert sim.now == 110.0

    def test_failures_recorded_not_raised(self):
        sim = Simulator(seed=0)
        client = self.FakeClient(sim, fail_keys={"k"})
        stream = BernoulliOpStream(random.Random(0), FixedKeyChooser("k"), 0.0)
        history = History()
        sim.run_process(closed_loop(sim, client, stream, history, num_ops=5))
        assert len(history.failures()) == 5

    def test_deadline_stops_early(self):
        sim = Simulator(seed=0)
        client = self.FakeClient(sim, latency=10.0)
        stream = BernoulliOpStream(random.Random(0), FixedKeyChooser("k"), 0.0)
        history = History()
        issued = sim.run_process(
            closed_loop(sim, client, stream, history, num_ops=100, deadline_ms=35.0)
        )
        assert issued == 4  # ops start at 0,10,20,30
