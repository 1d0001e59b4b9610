"""Tests for the parallel cached sweep runner (repro.harness.sweeps)."""

import os

import pytest

from repro.harness import (
    AvailabilitySimConfig,
    ExperimentConfig,
    run_response_time,
    run_sweep,
)
from repro.harness.sweeps import (
    CACHE_STATS,
    AvailabilityPoint,
    ResponsePoint,
    clear_cache,
    code_version,
    point_key,
    sweep_workers,
)


def _small(protocol="rowa", **kw):
    """A cheap config for cache-mechanics tests (rowa sends the fewest
    messages per operation, so it is the cheapest protocol to run)."""
    kw.setdefault("ops_per_client", 20)
    kw.setdefault("warmup_ops", 2)
    kw.setdefault("num_clients", 2)
    kw.setdefault("seed", 11)
    return ExperimentConfig(protocol=protocol, **kw)


def _collect_sim_time(result):
    return {"sim_time_ms": result.sim_time_ms}


@pytest.fixture(autouse=True)
def _reset_stats():
    CACHE_STATS.reset()
    yield
    CACHE_STATS.reset()


class TestPointKey:
    def test_stable_for_equal_configs(self):
        assert point_key(_small()) == point_key(_small())

    def test_differs_across_configs(self):
        assert point_key(_small()) != point_key(_small(write_ratio=0.5))
        assert point_key(_small()) != point_key(_small(seed=12))

    def test_differs_across_kinds_and_collectors(self):
        assert point_key(_small()) != point_key(AvailabilitySimConfig())
        assert point_key(_small()) != point_key(_small(), _collect_sim_time)

    def test_code_version_is_stable_in_process(self):
        assert code_version() == code_version()
        assert len(code_version()) == 16


class TestRunSweep:
    def test_matches_direct_run(self, tmp_path):
        cfg = _small("dqvl", ops_per_client=10, num_clients=1)
        (point,) = run_sweep([cfg], cache_path=str(tmp_path))
        direct = run_response_time(cfg)
        assert isinstance(point, ResponsePoint)
        assert point.summary.overall.mean == direct.summary.overall.mean
        assert point.messages_per_request == direct.messages_per_request
        assert point.total_requests == direct.total_requests
        assert not point.from_cache

    def test_preserves_config_order(self, tmp_path):
        configs = [_small(p) for p in ("majority", "rowa_async", "rowa")]
        points = run_sweep(configs, cache_path=str(tmp_path))
        assert [p.config.protocol for p in points] == ["majority", "rowa_async", "rowa"]

    def test_second_run_hits_cache(self, tmp_path):
        configs = [_small(), _small(write_ratio=0.5)]
        run_sweep(configs, cache_path=str(tmp_path))
        assert (CACHE_STATS.hits, CACHE_STATS.misses) == (0, 2)

        again = run_sweep(configs, cache_path=str(tmp_path))
        assert (CACHE_STATS.hits, CACHE_STATS.misses) == (2, 2)
        assert all(p.from_cache for p in again)
        # cached numbers equal the computed ones
        fresh = run_sweep(configs, cache=False)
        for a, b in zip(again, fresh):
            assert a.summary.overall.mean == b.summary.overall.mean

    def test_config_change_invalidates(self, tmp_path):
        run_sweep([_small()], cache_path=str(tmp_path))
        run_sweep([_small(seed=99)], cache_path=str(tmp_path))
        assert CACHE_STATS.misses == 2
        assert CACHE_STATS.hits == 0

    def test_cache_disabled(self, tmp_path):
        run_sweep([_small()], cache=False, cache_path=str(tmp_path))
        run_sweep([_small()], cache=False, cache_path=str(tmp_path))
        assert CACHE_STATS.hits == 0
        assert not os.path.exists(str(tmp_path / f"{point_key(_small())}.json"))

    def test_collect_extras(self, tmp_path):
        (point,) = run_sweep(
            [_small()], collect=_collect_sim_time, cache_path=str(tmp_path)
        )
        assert point.extras["sim_time_ms"] == point.sim_time_ms
        # extras survive the cache round-trip
        (cached,) = run_sweep(
            [_small()], collect=_collect_sim_time, cache_path=str(tmp_path)
        )
        assert cached.from_cache
        assert cached.extras["sim_time_ms"] == point.sim_time_ms

    def test_parallel_workers_match_inline(self, tmp_path):
        configs = [_small(), _small(write_ratio=0.5)]
        parallel = run_sweep(configs, workers=2, cache=False)
        inline = run_sweep(configs, workers=1, cache=False)
        for a, b in zip(parallel, inline):
            assert a.summary.overall.mean == b.summary.overall.mean
            assert a.messages_per_request == b.messages_per_request

    def test_unpicklable_collect_falls_back_inline(self, tmp_path):
        seen = []

        def local_collect(result):  # closures don't pickle
            seen.append(result.sim_time_ms)
            return {"n": len(seen)}

        points = run_sweep(
            [_small(), _small(write_ratio=0.5)],
            collect=local_collect,
            workers=4,
            cache=False,
        )
        assert len(seen) == 2
        assert [p.extras["n"] for p in points] == [1, 2]

    def test_availability_points(self, tmp_path):
        cfg = AvailabilitySimConfig(epochs=20, seed=5)
        (point,) = run_sweep([cfg], cache_path=str(tmp_path))
        assert isinstance(point, AvailabilityPoint)
        assert point.total_requests > 0
        assert 0.0 <= point.availability <= 1.0
        assert point.unavailability == pytest.approx(1.0 - point.availability)
        (cached,) = run_sweep([cfg], cache_path=str(tmp_path))
        assert cached.from_cache
        assert cached.availability == point.availability

    def test_mixed_kinds_in_one_sweep(self, tmp_path):
        points = run_sweep(
            [_small(), AvailabilitySimConfig(epochs=20, seed=5)],
            cache_path=str(tmp_path),
        )
        assert isinstance(points[0], ResponsePoint)
        assert isinstance(points[1], AvailabilityPoint)

    def test_rejects_unknown_config(self, tmp_path):
        with pytest.raises(TypeError):
            run_sweep([object()], cache_path=str(tmp_path))

    def test_clear_cache(self, tmp_path):
        run_sweep([_small(), _small(write_ratio=0.5)], cache_path=str(tmp_path))
        assert clear_cache(str(tmp_path)) == 2
        assert clear_cache(str(tmp_path)) == 0
        run_sweep([_small()], cache_path=str(tmp_path))
        assert CACHE_STATS.misses == 3  # recomputed after the clear

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cfg = _small()
        run_sweep([cfg], cache_path=str(tmp_path))
        entry = tmp_path / f"{point_key(cfg)}.json"
        entry.write_text("{not json")
        (point,) = run_sweep([cfg], cache_path=str(tmp_path))
        assert not point.from_cache
        assert CACHE_STATS.misses == 2


class TestWorkersEnv:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert sweep_workers() == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "0")
        assert sweep_workers() == 1  # clamped
        monkeypatch.delenv("REPRO_SWEEP_WORKERS")
        assert sweep_workers() >= 1

    def test_cache_env_override(self, monkeypatch, tmp_path):
        from repro.harness.sweeps import cache_dir

        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path / "alt"))
        assert cache_dir() == str(tmp_path / "alt")


class TestReportingShimRemoved:
    def test_reporting_module_is_gone(self):
        import importlib

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.harness.reporting")
