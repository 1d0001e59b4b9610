"""Tests for the chaos campaign runner.

The two sides of the harness's evidence:

* healthy protocols survive randomized nemesis schedules with zero
  violations (and identical results on every replay);
* deliberately weakened protocols are *caught* — a harness that cannot
  light up proves nothing with its zeros.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.chaos import (
    ChaosRunConfig,
    ChaosRunResult,
    FaultSchedule,
    run_campaign,
    run_chaos,
)
from repro.chaos.campaign import EVENTUALLY_CONSISTENT
from repro.chaos.invariants import InvariantMonitor
from repro.chaos.weaken import apply_weakener
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.sim import ConstantDelay, Network, Node, Simulator

# Small-but-real run: enough traffic to exercise leases and recoveries
# without dominating the test suite's wall clock.
SMALL = dict(
    num_clients=2,
    ops_per_client=15,
    horizon_ms=6_000.0,
)

# The weakened-detection configs mirror the shipped corpus entries.
WEAKENED = dict(ops_per_client=30, write_ratio=0.35)


class TestConfigValidation:
    def test_unknown_protocol(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            ChaosRunConfig(protocol="paxos")

    def test_unknown_nemesis(self):
        with pytest.raises(ValueError, match="unknown nemesis"):
            ChaosRunConfig(nemeses=("chaos_monkey",))

    def test_unknown_weakener(self):
        with pytest.raises(ValueError, match="unknown weakener"):
            ChaosRunConfig(weaken="ignore_everything")

    def test_horizon_must_precede_time_limit(self):
        with pytest.raises(ValueError, match="horizon_ms"):
            ChaosRunConfig(horizon_ms=10_000.0, time_limit_ms=5_000.0)

    def test_nemeses_coerced_to_tuple(self):
        config = ChaosRunConfig(nemeses=["loss_burst"])
        assert config.nemeses == ("loss_burst",)
        assert hash(config)  # stays hashable


class TestHealthyRuns:
    def test_dqvl_survives_default_nemeses(self):
        result = run_chaos(ChaosRunConfig(seed=1, **SMALL))
        assert result.ok, result.violations
        assert result.stats["ops_recorded"] > 0
        assert result.stats["invariant_samples"] > 0
        assert len(result.schedule) > 0

    @pytest.mark.parametrize("protocol", ["primary_backup", "majority"])
    def test_other_protocols_survive(self, protocol):
        result = run_chaos(ChaosRunConfig(protocol=protocol, seed=2, **SMALL))
        assert result.ok, result.violations

    def test_run_is_deterministic(self):
        config = ChaosRunConfig(seed=3, **SMALL)
        assert run_chaos(config).to_json_obj() == run_chaos(config).to_json_obj()

    def test_schedule_override_replays(self):
        """A run under an explicit schedule equals the original run that
        generated it — the contract the shrinker is built on."""
        config = ChaosRunConfig(seed=4, **SMALL)
        first = run_chaos(config)
        again = run_chaos(config, schedule=first.schedule)
        assert again.to_json_obj() == first.to_json_obj()

    def test_rowa_async_exempt_from_regular_but_reports_staleness(self):
        assert "rowa_async" in EVENTUALLY_CONSISTENT
        result = run_chaos(
            ChaosRunConfig(protocol="rowa_async", seed=5, **SMALL)
        )
        assert not [v for v in result.violations if v["type"] == "regular"]
        assert result.stats["staleness"]["total_reads"] > 0


class TestWeakenedDetection:
    def test_ignore_volume_expiry_caught_by_invariant_monitor(self):
        result = run_chaos(
            ChaosRunConfig(seed=0, weaken="ignore_volume_expiry", **WEAKENED)
        )
        kinds = {v["type"] for v in result.violations}
        assert "invariant" in kinds, result.violations
        assert any(
            v.get("invariant") == "lease_serve"
            for v in result.violations if v["type"] == "invariant"
        )

    def test_ignore_object_invalidations_caught_by_history_checker(self):
        result = run_chaos(
            ChaosRunConfig(
                seed=0, weaken="ignore_object_invalidations", **WEAKENED
            )
        )
        assert any(v["type"] == "regular" for v in result.violations)

    def test_skip_write_invalidation_caught(self):
        result = run_chaos(
            ChaosRunConfig(seed=0, weaken="skip_write_invalidation", **WEAKENED)
        )
        assert not result.ok

    def test_lease_hit_with_dropped_reply_is_still_checked(self):
        """The monitor judges a hit on the network tap, which runs before
        the network drops a reply the partition severs."""
        sim = Simulator(seed=0)
        net = Network(sim, ConstantDelay(10.0))
        cluster = build_dqvl_cluster(
            sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0"],
            DqvlConfig(lease_length_ms=1_000.0),
        )
        apply_weakener(SimpleNamespace(cluster=cluster), "ignore_volume_expiry")
        monitor = InvariantMonitor(sim)
        monitor.attach(net, cluster.iqs_nodes + cluster.oqs_nodes)
        client = cluster.client("c0", prefer_oqs="oqs0")

        def warm_up():
            yield from client.write("x", "v1")
            yield from client.read("x")  # miss: grants the leases

        sim.run_process(warm_up())
        assert monitor.violations == []
        sim.run(until=sim.now + 5_000.0)  # every lease lapses
        reader = Node(sim, net, "r0")
        net.add_fault([("oqs0", "r0")], blocked=True)
        oqs0 = cluster.oqs_node("oqs0")
        hits, dropped = oqs0.read_hits, net.stats.dropped
        reader.send("oqs0", "dq_read", {"obj": "x"})
        sim.run(until=sim.now + 100.0)
        assert oqs0.read_hits == hits + 1
        assert net.stats.dropped == dropped + 1
        assert [(v.node, v.invariant) for v in monitor.violations] == [
            ("oqs0", "lease_serve")
        ]

    def test_weakener_requires_dqvl_deployment(self):
        with pytest.raises(ValueError, match="DQVL"):
            run_chaos(
                ChaosRunConfig(
                    protocol="majority", seed=0,
                    weaken="ignore_volume_expiry", **SMALL
                )
            )


class TestCampaignFanout:
    def test_run_campaign_returns_chaos_points(self):
        configs = [
            ChaosRunConfig(seed=s, protocol="primary_backup", **SMALL)
            for s in (0, 1)
        ]
        points = run_campaign(configs, workers=2)
        assert len(points) == 2
        assert all(isinstance(p, ChaosRunResult) for p in points)
        assert all(p.ok for p in points)
        assert [p.config for p in points] == configs

        again = run_campaign(configs, workers=1)
        assert [p.to_json_obj() for p in again] == [
            p.to_json_obj() for p in points
        ]

    def test_points_rebuild_schedules(self):
        """The point carries the schedule it ran, so a failing campaign
        row can be fed straight to the shrinker."""
        config = ChaosRunConfig(seed=6, protocol="primary_backup", **SMALL)
        (point,) = run_campaign([config], workers=1)
        assert isinstance(point.schedule, FaultSchedule)
        assert point.schedule.faults == run_chaos(config).schedule.faults
