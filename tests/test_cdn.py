"""Tests for the edge-CDN scenario family (repro.edge.cdn).

Small configs keep these fast: the properties under test (determinism,
kernel-cost scaling, throttling) do not depend on the
population being large — that is the point of the aggregate model.
"""

import dataclasses
import math

import pytest

from repro.edge.cdn import CdnResult, CdnScenarioConfig, _build_arrivals, run_cdn
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig
from repro.harness.sweeps import run_sweep
from repro.sim import Simulator
from repro.workload.population import MmppArrivals


def _small(**overrides) -> CdnScenarioConfig:
    """A cheap scenario: majority protocol (no renewal keepers), a few
    hundred modeled users, compressed horizon."""
    kwargs = dict(
        protocol="majority",
        seed=3,
        regions=2,
        pops_per_region=2,
        users=200,
        ops_per_user_per_s=0.5,
        write_ratio=0.1,
        num_objects=100,
        num_volumes=8,
        issuers_per_pop=4,
        queue_limit=64,
        horizon_ms=400.0,
    )
    kwargs.update(overrides)
    return CdnScenarioConfig(**kwargs)


class TestConfig:
    def test_validation(self):
        with pytest.raises(KeyError):
            CdnScenarioConfig(protocol="nope")
        with pytest.raises(ValueError):
            CdnScenarioConfig(users=0)
        with pytest.raises(ValueError):
            CdnScenarioConfig(arrivals="weird")
        with pytest.raises(ValueError):
            CdnScenarioConfig(balance="random")
        with pytest.raises(ValueError, match="fe_max_inflight"):
            CdnScenarioConfig(fe_max_inflight=0)
        # Zipf and profile fields fail when the config is built, before
        # any deployment; a NaN amplitude used to switch the swing off.
        for fields in ({"zipf_s": math.nan}, {"diurnal_amplitude": math.nan},
                       {"diurnal_amplitude": -0.5},
                       {"diurnal_amplitude": 0.5, "diurnal_period_ms": math.inf},
                       {"flash_start_ms": 100.0, "flash_peak_multiplier": math.nan},
                       {"flash_start_ms": 100.0, "flash_ramp_ms": math.nan}):
            with pytest.raises(ValueError):
                CdnScenarioConfig(**fields)

    def test_region_users_even_split(self):
        config = _small(users=10, regions=3)
        assert [config.region_users(r) for r in range(3)] == [4, 3, 3]
        assert config.num_pops == 6


class TestRegionTopology:
    def test_intra_vs_cross_region_delay(self):
        sim = Simulator(seed=0)
        config = EdgeTopologyConfig(
            num_edges=4, num_clients=0, regions=2, intra_region_ms=20.0
        )
        topo = EdgeTopology(sim, config)
        assert [topo.region_of_edge(k) for k in range(4)] == [0, 0, 1, 1]
        dm = topo.delay_model
        assert dm._host_delay(topo.edge_host(0), topo.edge_host(1)) == 20.0
        assert (
            dm._host_delay(topo.edge_host(0), topo.edge_host(2))
            == config.server_wan_ms
        )

    def test_flat_topology_unchanged_without_regions(self):
        sim = Simulator(seed=0)
        config = EdgeTopologyConfig(num_edges=4, num_clients=0)
        topo = EdgeTopology(sim, config)
        assert topo.region_of_edge(3) == 0
        dm = topo.delay_model
        assert (
            dm._host_delay(topo.edge_host(0), topo.edge_host(1))
            == config.server_wan_ms
        )

    def test_region_validation(self):
        with pytest.raises(ValueError):
            EdgeTopologyConfig(num_edges=4, num_clients=0, regions=5)


class TestRunCdn:
    def test_basic_run_completes_ops(self):
        result = run_cdn(_small())
        assert isinstance(result, CdnResult)
        assert result.stats.arrivals > 10
        assert result.stats.completed > 10
        assert result.stats.completed == len(
            [op for op in result.history.ops if op.ok]
        )
        assert result.summary.overall.count == result.stats.completed
        # Every front end participated (least-loaded balancing + one
        # pool per PoP).
        assert result.fe_counters["requests_served"] > 0
        assert result.sim_time_ms >= 400.0

    def test_same_seed_byte_identical(self):
        config = _small()
        a = run_cdn(config)
        b = run_cdn(dataclasses.replace(config))
        assert a.to_json() == b.to_json()

    def test_different_seed_differs(self):
        a = run_cdn(_small(seed=3))
        b = run_cdn(_small(seed=4))
        assert a.to_json() != b.to_json()

    def test_kernel_cost_tracks_arrivals_not_users(self):
        """1000x more modeled users at 1000x lower per-user rate is the
        same aggregate process: identical events, byte-identical trace
        modulo the user count in the echoed config."""
        a = run_cdn(_small(users=200, ops_per_user_per_s=0.5))
        b = run_cdn(_small(users=200_000, ops_per_user_per_s=0.0005))
        assert a.events_processed == b.events_processed
        assert a.stats.arrivals == b.stats.arrivals
        assert a.summary == b.summary

    def test_open_loop_latency_includes_queue_wait(self):
        """An under-provisioned PoP (1 issuer, majority RTTs) must show
        queueing in the recorded latency, not just service time."""
        result = run_cdn(_small(
            issuers_per_pop=1, users=600, ops_per_user_per_s=1.0,
            horizon_ms=300.0,
        ))
        assert result.stats.queue_wait_ms > 0.0
        assert result.summary.overall.p99 > result.summary.overall.p50

    def test_flash_crowd_adds_arrivals(self):
        base = run_cdn(_small())
        flash = run_cdn(_small(
            flash_start_ms=100.0, flash_peak_multiplier=4.0,
            flash_ramp_ms=50.0, flash_hold_ms=200.0, flash_decay_ms=50.0,
        ))
        assert flash.stats.arrivals > base.stats.arrivals

    def test_mmpp_arrivals_run(self):
        """MMPP regions run at :class:`MmppArrivals`' own defaults (4x
        bursts, 10 s / 2 s mean dwells); a horizon past several dwells
        sees both states."""
        config = _small(arrivals="mmpp", users=20, horizon_ms=30_000.0)
        arrivals = _build_arrivals(config, 0, 1.0)
        assert isinstance(arrivals, MmppArrivals)
        assert arrivals.burst_multiplier == 4.0
        assert arrivals.dwell_ms == (10_000.0, 2_000.0)
        states = {arrivals._state_at(t) for t in range(0, 30_000, 100)}
        assert states == {0, 1}
        result = run_cdn(config)
        assert result.stats.completed == result.stats.arrivals > 0

    def test_front_end_throttling(self):
        """A tiny admission cap under load rejects work and the failures
        land in the history (availability < 1)."""
        result = run_cdn(_small(
            fe_max_inflight=1, users=800, ops_per_user_per_s=1.0,
            horizon_ms=300.0,
        ))
        throttled = (
            result.fe_counters["reads_throttled"]
            + result.fe_counters["writes_shed"]
        )
        assert throttled > 0
        assert result.stats.failed > 0
        assert result.summary.availability < 1.0

    def test_dqvl_protocol_with_volume_leases(self):
        result = run_cdn(_small(
            protocol="dqvl", users=100, ops_per_user_per_s=0.5,
            horizon_ms=300.0,
        ))
        assert result.stats.completed > 0
        # DQVL reads report hit/miss; the majority baseline does not.
        assert result.summary.read_hit_rate is not None

    def test_trace_produces_budget(self):
        result = run_cdn(_small(trace=True, users=100, horizon_ms=200.0))
        assert result.budget  # non-empty group -> phase -> summary table

    def test_events_per_arrival_property(self):
        result = run_cdn(_small())
        assert result.events_per_arrival == (
            result.events_processed / result.stats.arrivals
        )


class TestSweepIntegration:
    def test_cdn_point_is_the_reduced_result(self):
        config = _small(users=60, horizon_ms=200.0)
        (point,) = run_sweep([config], workers=1)
        direct = run_cdn(config)
        assert isinstance(point, CdnResult)
        # the run's world stays in the worker
        assert point.history is point.deployment is None
        assert point.summary == direct.summary
        assert point.stats == direct.stats
        assert point.region_stats == direct.region_stats
        assert point.fe_counters == direct.fe_counters
        assert point.events_processed == direct.events_processed


class TestScenarioToCdn:
    """A CDN scenario's own fields, down to its deployment."""

    def test_field_mapping(self):
        config = CdnScenarioConfig(
            protocol="dqvl", seed=9, regions=1, pops_per_region=3,
            num_volumes=16, jitter_ms=1.0, iqs_spec="majority:r=2,w=2",
            oqs_spec="rowa", users=100, horizon_ms=200.0,
        )
        cluster = run_cdn(config).deployment.cluster
        assert len(cluster.oqs_nodes) == 3
        assert cluster.config.volume_map.num_volumes == 16
        assert str(cluster.config.iqs_spec) == "majority:r=2,w=2"
        assert cluster.iqs_system.write.min_size == 2

    def test_spec_fields_reject_non_dqvl(self):
        with pytest.raises(ValueError, match="iqs_spec"):
            CdnScenarioConfig(protocol="majority", iqs_spec="grid:2x2")

    def test_weaken_rejected(self):
        # cdn scenarios have no weakener hook, so no such field either
        with pytest.raises(TypeError):
            CdnScenarioConfig(weaken="drop_renewals")

    def test_round_trips_into_run(self):
        config = CdnScenarioConfig(
            protocol="majority", seed=1, users=80, ops_per_user_per_s=0.5,
            regions=1, pops_per_region=2, horizon_ms=200.0, num_objects=50,
            issuers_per_pop=2,
        )
        result = run_cdn(config)
        assert result.stats.completed > 0
