"""Tests for the schedule-aware liveness oracles (repro.mc.liveness).

The two seeded-livelock weakeners have committed corpus witnesses
(``tests/mc_corpus/``, replayed by ``test_mc_corpus.py``); here the
oracles themselves are exercised: the retry-rounds bound math, the
healthy-run silence guarantee, in-budget detection of both livelock
weakeners, and the ExploreResult serialisation the corpus rides on.
"""

import re
from types import SimpleNamespace

import pytest

from repro.chaos.weaken import apply_weakener
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.mc import ExploreResult, McRunConfig, explore, run_schedule
from repro.mc.liveness import MIN_GRANT_SHIPS, LivenessMonitor, rounds_bound
from repro.sim import ConstantDelay, Network, Simulator


class TestRoundsBound:
    def test_two_attempt_bound_is_exact(self):
        # 2 * (400 + 800) + lease 400 + deferral 2*1*650 + pad 1000
        assert rounds_bound(2) == pytest.approx(5_100.0)

    def test_backoff_caps_at_max_timeout(self):
        uncapped = rounds_bound(6)
        # timeouts: 400 800 1600 3200 6400 then 12800 -> capped to 6400
        assert uncapped == pytest.approx(
            2 * (400 + 800 + 1600 + 3200 + 6400 + 6400)
            + 400 + 2 * 650 + 1000
        )

    def test_bound_grows_with_attempts(self):
        assert rounds_bound(1) < rounds_bound(2) < rounds_bound(3)


class TestRoundsOracle:
    def _monitor(self):
        return LivenessMonitor(Simulator(seed=0))

    def _op(self, span_ms):
        return SimpleNamespace(kind="read", key="k0", start=0.0,
                               end=span_ms, client="appsc0")

    def test_op_past_bound_is_flagged(self):
        monitor = self._monitor()
        slow = self._op(rounds_bound(2) + 1.0)
        monitor.finalize([slow], client_max_attempts=2)
        report = monitor.report()
        assert [v["type"] for v in report] == ["liveness_rounds"]
        assert "retried past its budget" in report[0]["detail"]

    def test_op_within_bound_is_silent(self):
        monitor = self._monitor()
        monitor.finalize([self._op(rounds_bound(2) - 1.0)],
                         client_max_attempts=2)
        assert monitor.report() == []

    def test_unbounded_retries_skip_the_check(self):
        monitor = self._monitor()
        monitor.finalize([self._op(10_000_000.0)], client_max_attempts=None)
        assert monitor.report() == []


class TestOraclesEndToEnd:
    def test_healthy_canonical_run_is_silent(self):
        result = run_schedule(McRunConfig())
        assert result.violations == []

    def test_keeper_livelock_caught_in_budget(self):
        result = explore(
            McRunConfig(weaken="keeper_abandons_lapse"),
            strategy="walk", budget=20, shrink=False,
        )
        assert not result.ok
        assert "liveness_keeper" in result.witness.expected_types

    def test_inval_livelock_caught_in_budget(self):
        result = explore(
            McRunConfig(weaken="drop_vl_acks"),
            strategy="walk", budget=20, shrink=False,
        )
        assert not result.ok
        assert "liveness_inval" in result.witness.expected_types
        detail = next(
            v["detail"] for v in result.witness.violations
            if v["type"] == "liveness_inval"
        )
        ships = int(re.search(r"shipped in >= (\d+) delivered", detail).group(1))
        assert ships >= MIN_GRANT_SHIPS


class TestKeeperWeakenerBeyondTwoEdges:
    def test_abandons_a_lapse_with_members_outside_the_sticky_quorum(self):
        """9 IQS servers of which a read needs 5, so some are never
        granted: the weakened keeper must still see the quorum's lapse
        (it used to take min over all nine, read -inf and never fire)."""
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(10.0))
        iqs_ids = [f"iqs{i}" for i in range(9)]
        cluster = build_dqvl_cluster(
            sim, net, iqs_ids, ["oqs0"],
            DqvlConfig(lease_length_ms=1_000.0, proactive_renewal=True,
                       renewal_margin_ms=200.0, interest_window_ms=60_000.0),
        )
        apply_weakener(SimpleNamespace(cluster=cluster), "keeper_abandons_lapse")
        oqs = cluster.oqs_node("oqs0")
        client = cluster.client("c0", prefer_oqs="oqs0")

        def one_read():
            yield from client.read("x")

        sim.run_process(one_read(), until=500.0)
        granted = [i for i in iqs_ids
                   if oqs.view.volume_expiry("vol0", i) > float("-inf")]
        assert 5 <= len(granted) < 9 and oqs._keeper_running == {"vol0"}
        token = net.partition(["oqs0"], iqs_ids)  # outlasts the lease
        sim.run(until=5_000.0)
        net.heal(token)
        sim.run(until=10_000.0)
        assert oqs._keeper_running == set()  # gave up while still warm


class TestDetach:
    def test_detach_clears_every_keeper_hook(self):
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(10.0))
        cluster = build_dqvl_cluster(
            sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1"],
            DqvlConfig(),
        )
        monitor = LivenessMonitor(sim)
        monitor.attach(net, cluster.iqs_nodes + cluster.oqs_nodes)
        assert all(n.warm_exit_hook is not None for n in cluster.oqs_nodes)
        monitor.detach()
        assert [n.warm_exit_hook for n in cluster.oqs_nodes] == [None, None]


class TestExploreResultSerialisation:
    def test_clean_result_round_trips(self):
        result = explore(McRunConfig(), strategy="walk", budget=3)
        back = ExploreResult.from_json(result.to_json())
        assert back.config == result.config
        assert back.runs == result.runs and back.ok
        assert back.witness is None and back.shrunk is None

    def test_witness_round_trip_reexecutes_and_revalidates(self):
        result = explore(
            McRunConfig(weaken="keeper_abandons_lapse"),
            strategy="walk", budget=20,
        )
        assert not result.ok
        back = ExploreResult.from_json(result.to_json())
        # deserialisation re-runs the stored choices, so the rebuilt
        # witness carries freshly observed (not stored) violations
        assert back.witness is not None and back.witness.violations
        assert back.shrunk.expected_types == result.shrunk.expected_types
        assert back.shrunk.trace_text == result.shrunk.trace_text
        assert back.pruned == result.pruned
