"""Tests for the chaos campaign runner.

The two sides of the harness's evidence:

* healthy protocols survive randomized nemesis schedules with zero
  violations (and identical results on every replay);
* deliberately weakened protocols are *caught* — a harness that cannot
  light up proves nothing with its zeros.
"""

import dataclasses

import pytest

from repro.chaos import (
    ChaosRunConfig,
    ChaosRunResult,
    FaultSchedule,
    run_campaign,
    run_chaos,
)
from repro.chaos.campaign import EVENTUALLY_CONSISTENT

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
