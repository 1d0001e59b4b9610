"""Unit tests for drifting clocks and failure injection."""

import pytest

from repro.core.leases import IqsLeaseTable, ObjectLeaseTable, OqsLeaseView
from repro.types import LogicalClock
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

    def test_conservative_expiry_shortens(self, sim):
        """The holder books the paper's ``t0 + L * (1 - maxDrift)``."""
        view = OqsLeaseView(max_drift=0.05)
        view.apply_grant("i", "v", 1000.0, 0, requestor_time=100.0)
        assert view.volume_expiry("v", "i") == pytest.approx(100.0 + 950.0)

    def test_lease_safety_under_worst_case_drift(self, sim):
        """The lease tables' granter-side (1+maxDrift) and holder-side
        (1-maxDrift) corrections guarantee the granter never expires a
        lease before the holder, in real time, for any drift pair within
        the bound: volume leases and finite object leases alike."""
        max_drift = 0.02
        lease = 1000.0
        for holder_drift in (-max_drift, 0.0, max_drift):
            for granter_drift in (-max_drift, 0.0, max_drift):
                holder = DriftingClock(sim, drift=holder_drift, max_drift=max_drift)
                granter = DriftingClock(sim, drift=granter_drift, max_drift=max_drift)
                table = IqsLeaseTable(lease_length_ms=lease, max_drift=max_drift)
                objects = ObjectLeaseTable(max_drift=max_drift)
                view = OqsLeaseView(max_drift=max_drift)
                # request sent at real time 0; grant processed at real time 0
                length_ms, epoch, _ = table.grant("v", "j", now=granter.now())
                view.apply_grant("i", "v", length_ms, epoch, requestor_time=holder.now())
                obj_length = objects.grant("a", "j", granter.now(), lease)
                view.apply_renewal("i", "a", epoch, lc=LogicalClock(1, "w"),
                                   requestor_time=holder.now(), length_ms=obj_length)
                obj_lease = next(view.raw_rows("v", ["i"], "a"))[3]
                # convert each pair of local expiries to real durations
                for holder_expires, granter_expires in [
                    (view.volume_expiry("v", "i"), table.row("v")["j"].expires),
                    (obj_lease.expires, objects.expiry("a", "j")),
                ]:
                    holder_real = (holder_expires - holder.now()) / (1 + holder_drift)
                    granter_real = (granter_expires - granter.now()) / (1 + granter_drift)
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
