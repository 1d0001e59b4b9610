"""Tests for the parallel sweep runner (repro.harness.sweeps)."""

import dataclasses
import os

import pytest

from repro.chaos import ChaosRunConfig, ChaosRunResult, run_chaos
from repro.harness import (
    AvailabilitySimConfig,
    AvailabilitySimResult,
    ExperimentConfig,
    ExperimentResult,
    run_response_time,
    run_sweep,
)
from repro.harness.sweeps import sweep_workers


def _small(protocol="rowa", **kw):
    """A cheap config for sweep-mechanics tests (rowa sends the fewest
    messages per operation, so it is the cheapest protocol to run)."""
    kw.setdefault("ops_per_client", 20)
    kw.setdefault("warmup_ops", 2)
    kw.setdefault("num_clients", 2)
    kw.setdefault("seed", 11)
    return ExperimentConfig(protocol=protocol, **kw)


def _small_chaos():
    return ChaosRunConfig(
        seed=6, protocol="primary_backup", num_clients=2,
        ops_per_client=15, horizon_ms=6_000.0,
    )


def _one_of_each_kind():
    return [
        _small(),
        AvailabilitySimConfig(epochs=20, seed=5),
        _small_chaos(),
    ]


def _collect_sim_time(result):
    return {"sim_time_ms": result.sim_time_ms}


class TestRunSweep:
    def test_matches_direct_run(self):
        cfg = _small("dqvl", ops_per_client=10, num_clients=1)
        (point,) = run_sweep([cfg])
        direct = run_response_time(cfg)
        assert isinstance(point, ExperimentResult)
        # the run's world stays in the worker
        assert point.history is point.warmup_history is None
        assert point.deployment is None
        assert point.summary == direct.summary
        assert point.messages_per_request == direct.messages_per_request
        assert point.total_requests == direct.total_requests

    def test_preserves_config_order(self):
        configs = [_small(p) for p in ("majority", "rowa_async", "rowa")]
        points = run_sweep(configs)
        assert [p.config.protocol for p in points] == ["majority", "rowa_async", "rowa"]

    def test_collect_extras(self):
        (point,) = run_sweep([_small()], collect=_collect_sim_time)
        assert point.extras["sim_time_ms"] == point.sim_time_ms

    def test_parallel_workers_match_inline(self):
        """Every kind of point crosses the process boundary whole."""
        configs = _one_of_each_kind() + [_small(write_ratio=0.5)]
        parallel = run_sweep(configs, workers=2)
        inline = run_sweep(configs, workers=1)
        for a, b in zip(parallel, inline):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_unpicklable_collect_falls_back_inline(self):
        seen = []

        def local_collect(result):  # closures don't pickle
            seen.append(result.sim_time_ms)
            return {"n": len(seen)}

        points = run_sweep(
            [_small(), _small(write_ratio=0.5)],
            collect=local_collect,
            workers=4,
        )
        assert len(seen) == 2
        assert [p.extras["n"] for p in points] == [1, 2]

    def test_availability_points(self):
        cfg = AvailabilitySimConfig(epochs=20, seed=5)
        (point,) = run_sweep([cfg])
        assert isinstance(point, AvailabilitySimResult)
        assert point.total_requests > 0
        assert 0.0 <= point.availability <= 1.0
        assert point.unavailability == pytest.approx(1.0 - point.availability)
        # every op of the run stays in the worker
        assert point.history is None

    def test_chaos_points_replay(self):
        """A point carries the schedule it ran, so a failing row can go
        straight to the shrinker."""
        (point,) = run_sweep([_small_chaos()])
        replay = run_chaos(point.config, schedule=point.schedule)
        assert len(point.schedule) > 0
        assert replay.violations == point.violations
        assert replay.stats == point.stats

    def test_mixed_kinds_in_one_sweep(self):
        points = run_sweep(_one_of_each_kind())
        assert [type(p) for p in points] == [
            ExperimentResult, AvailabilitySimResult, ChaosRunResult,
        ]

    def test_rejects_unknown_config(self):
        ran = []
        with pytest.raises(TypeError):
            run_sweep([_small(), object()], collect=ran.append)
        assert ran == []  # refused up front, not after the first point

    def test_leaves_no_file_behind(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        run_sweep(_one_of_each_kind(), workers=2)
        assert os.listdir(tmp_path) == []


class TestWorkersEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert sweep_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert sweep_workers() == 1  # clamped
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert sweep_workers() >= 1


class TestReportingShimRemoved:
    def test_reporting_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.harness.reporting")
