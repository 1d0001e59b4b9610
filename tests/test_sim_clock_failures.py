"""Unit tests for drifting clocks and failure injection."""

import pytest

from repro.sim import (
    BernoulliOutages,
    ConstantDelay,
    DriftingClock,
    Network,
    Node,
    PerfectClock,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator(seed=3)


class TestDriftingClock:
    def test_perfect_clock_tracks_sim_time(self, sim):
        clock = PerfectClock(sim)
        sim.run(until=100.0)
        assert clock.now() == 100.0

    def test_fast_clock(self, sim):
        clock = DriftingClock(sim, drift=0.01, max_drift=0.01)
        sim.run(until=1000.0)
        assert clock.now() == pytest.approx(1010.0)

    def test_slow_clock_with_offset(self, sim):
        clock = DriftingClock(sim, drift=-0.01, offset=5.0, max_drift=0.02)
        sim.run(until=1000.0)
        assert clock.now() == pytest.approx(995.0)

    def test_drift_exceeding_bound_rejected(self, sim):
        with pytest.raises(ValueError):
            DriftingClock(sim, drift=0.05, max_drift=0.01)

    def test_duration_conversions_roundtrip(self, sim):
        clock = DriftingClock(sim, drift=0.004, max_drift=0.01)
        assert clock.real_duration(clock.local_duration(123.0)) == pytest.approx(123.0)

    def test_conservative_expiry_shortens(self, sim):
        clock = DriftingClock(sim, drift=0.0, max_drift=0.05)
        expiry = clock.conservative_expiry(100.0, 1000.0)
        assert expiry == pytest.approx(100.0 + 950.0)

    def test_lease_safety_under_worst_case_drift(self, sim):
        """Granter-side (1+maxDrift) + holder-side (1-maxDrift) corrections
        guarantee the granter never expires a lease before the holder, in
        real time, for any drift pair within the bound."""
        max_drift = 0.02
        lease = 1000.0
        for holder_drift in (-max_drift, 0.0, max_drift):
            for granter_drift in (-max_drift, 0.0, max_drift):
                holder = DriftingClock(sim, drift=holder_drift, max_drift=max_drift)
                granter = DriftingClock(sim, drift=granter_drift, max_drift=max_drift)
                # request sent at real time 0; grant processed at real time 0
                holder_local_expiry = holder.now() + lease * (1 - max_drift)
                granter_local_expiry = granter.now() + lease * (1 + max_drift)
                # convert both to real durations
                holder_real = holder.real_duration(holder_local_expiry - holder.now())
                granter_real = granter.real_duration(granter_local_expiry - granter.now())
                assert granter_real >= holder_real - 1e-9


class TestFailureHelpers:
    def _make_world(self, sim):
        net = Network(sim, ConstantDelay(1.0))
        nodes = [Node(sim, net, f"n{i}") for i in range(4)]
        return net, nodes

    def test_bernoulli_outages_marginal_rate(self, sim):
        net, nodes = self._make_world(sim)
        outages = BernoulliOutages(sim, [[n] for n in nodes], p=0.3, epoch_ms=10.0,
                                   total_epochs=500)
        down_epochs = [0]
        original_epoch = outages._epoch

        def counting_epoch():
            original_epoch()
            down_epochs[0] += sum(1 for n in nodes if not n.alive)

        outages._epoch = counting_epoch
        outages.start()
        sim.run()
        rate = down_epochs[0] / (500 * len(nodes))
        assert 0.2 < rate < 0.4

    def test_bernoulli_outages_recover_at_end(self, sim):
        net, nodes = self._make_world(sim)
        outages = BernoulliOutages(sim, [[n] for n in nodes], p=0.9, epoch_ms=10.0,
                                   total_epochs=5)
        outages.start()
        sim.run()
        assert all(n.alive for n in nodes)

    def test_bernoulli_rejects_bad_params(self, sim):
        net, nodes = self._make_world(sim)
        with pytest.raises(ValueError):
            BernoulliOutages(sim, [[n] for n in nodes], p=2.0, epoch_ms=10.0)
        with pytest.raises(ValueError):
            BernoulliOutages(sim, [[n] for n in nodes], p=0.5, epoch_ms=0.0)
