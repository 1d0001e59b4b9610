"""Tests for the unified ScenarioConfig core and its converters."""

import dataclasses

import pytest

from repro.chaos.campaign import ChaosRunConfig
from repro.core.config import DqvlConfig
from repro.edge import PROTOCOL_DEPLOYERS, EdgeTopology, EdgeTopologyConfig
from repro.harness.experiment import ExperimentConfig
from repro.mc.runner import McRunConfig
from repro.scenario import SHARED_FIELDS, UNSET, ScenarioConfig
from repro.sim import Simulator


class TestUnset:
    def test_unset_is_falsy_singleton(self):
        assert not UNSET
        assert repr(UNSET) == "UNSET"
        assert type(UNSET)() is UNSET

    def test_default_scenario_leaves_runner_defaults_alone(self):
        # the same UNSET scenario resolves to each runner's own default
        scenario = ScenarioConfig()
        assert scenario.to_mc().num_edges == 2
        assert scenario.to_chaos().num_edges == 3
        assert scenario.to_experiment().num_edges == 9


class TestRoundTrips:
    def test_mc_round_trip_preserves_every_shared_field(self):
        original = McRunConfig(
            protocol="dqvl", seed=7, weaken="drop_vl_acks",
            num_edges=3, num_clients=4, ops_per_client=9,
            write_ratio=0.5, num_keys=3, lease_length_ms=350.0,
            max_drift=0.01, jitter_ms=2.0, client_max_attempts=None,
            time_limit_ms=70_000.0,
        )
        rebuilt = ScenarioConfig.from_mc(original).to_mc(
            defer_ms=original.defer_ms, max_defer=original.max_defer
        )
        assert rebuilt == original

    def test_chaos_round_trip_preserves_every_shared_field(self):
        original = ChaosRunConfig(
            protocol="majority", seed=3, num_edges=5, num_clients=2,
            ops_per_client=25, write_ratio=0.1, num_keys=6,
            lease_length_ms=900.0, max_drift=0.02, jitter_ms=4.0,
            client_max_attempts=2, time_limit_ms=500_000.0,
            nemeses=("crash_storm",),
        )
        scenario = ScenarioConfig.from_chaos(original)
        for name in SHARED_FIELDS:
            assert getattr(scenario, name) == getattr(original, name)
        rebuilt = scenario.to_chaos(
            nemeses=original.nemeses,
            horizon_ms=original.horizon_ms,
            sample_interval_ms=original.sample_interval_ms,
        )
        assert rebuilt == original

    def test_experiment_round_trip_preserves_shared_core(self):
        original = ExperimentConfig(
            protocol="rowa", seed=5, num_edges=4, num_clients=2,
            ops_per_client=30, write_ratio=0.2,
        )
        scenario = ScenarioConfig.from_experiment(original)
        rebuilt = scenario.to_experiment()
        for name in ("protocol", "seed", "num_edges", "num_clients",
                     "ops_per_client", "write_ratio"):
            assert getattr(rebuilt, name) == getattr(original, name)

    def test_mc_chaos_shim_goes_through_scenario(self):
        """McRunConfig borrows chaos validation via the scenario core;
        the derived config must mirror the mc fields exactly."""
        mc = McRunConfig(seed=4, num_edges=3, lease_length_ms=500.0)
        chaos = mc._chaos_config()
        assert isinstance(chaos, ChaosRunConfig)
        for name in SHARED_FIELDS:
            assert getattr(chaos, name) == getattr(mc, name)
        assert chaos.nemeses == ()

    def test_mc_validation_errors_unchanged_by_shim(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            McRunConfig(protocol="paxos")
        with pytest.raises(ValueError, match="unknown weakener"):
            McRunConfig(weaken="nope")

    @pytest.mark.parametrize("protocol", ["basic_dq", "majority"])
    def test_weakener_on_a_non_dqvl_protocol_fails_at_construction(self, protocol):
        """Weakeners patch DQVL's lease machinery; any other protocol is
        refused when the config is built, naming the protocol, not when
        the deployment is."""
        for build in (McRunConfig, ChaosRunConfig):
            with pytest.raises(ValueError, match=f"protocol {protocol!r}"):
                build(protocol=protocol, weaken="skip_write_invalidation")


class TestExperimentMapping:
    def test_weaken_refuses_experiment(self):
        with pytest.raises(ValueError, match="no weakener hook"):
            ScenarioConfig(weaken="drop_vl_acks").to_experiment()

    def test_lease_fields_map_into_dqvl_deploy_kwargs(self):
        # lease must clear DqvlConfig's renewal margin (1000 ms default)
        scenario = ScenarioConfig(
            protocol="dqvl", lease_length_ms=2_000.0, max_drift=0.05,
            client_max_attempts=3,
        )
        config = scenario.to_experiment()
        deploy = config.deploy_kwargs
        assert deploy["client_max_attempts"] == 3
        dqvl = deploy["config"]
        assert isinstance(dqvl, DqvlConfig)
        assert dqvl.lease_length_ms == 2_000.0
        assert dqvl.max_drift == 0.05
        assert dqvl.proactive_renewal  # dqvl keeps the keeper on

    def test_basic_dq_disables_proactive_renewal(self):
        """Basic DQ deploys DQVL under basic_dq_config: whatever lease
        the scenario names, the deployed lease is infinite and no keeper
        runs."""
        config = ScenarioConfig(
            protocol="basic_dq", lease_length_ms=800.0
        ).to_experiment()
        topology = EdgeTopology(Simulator(seed=0), EdgeTopologyConfig())
        deployed = PROTOCOL_DEPLOYERS["basic_dq"](
            topology, **config.deploy_kwargs
        ).cluster.config
        assert deployed.lease_length_ms == float("inf")
        assert not deployed.proactive_renewal

    def test_lease_fields_refuse_non_dqvl_protocols(self):
        with pytest.raises(ValueError, match="DQVL-family"):
            ScenarioConfig(protocol="rowa", lease_length_ms=800.0
                           ).to_experiment()

    def test_explicit_deploy_kwargs_override_wins(self):
        config = ScenarioConfig(
            protocol="rowa", lease_length_ms=800.0
        ).to_experiment(deploy_kwargs={})
        assert config.deploy_kwargs == {}

    def test_jitter_maps_into_topology(self):
        config = ScenarioConfig(jitter_ms=7.5).to_experiment()
        assert config.topology.jitter_ms == 7.5

    def test_num_keys_has_no_experiment_equivalent(self):
        config = ScenarioConfig(num_keys=11).to_experiment()
        assert not hasattr(config, "num_keys")


class TestOverridePrecedence:
    def test_explicit_override_beats_scenario_field(self):
        scenario = ScenarioConfig(num_edges=4)
        assert scenario.to_mc(num_edges=2).num_edges == 2
        assert scenario.to_chaos(num_edges=7).num_edges == 7

    def test_scenario_is_frozen_and_replaceable(self):
        scenario = ScenarioConfig(seed=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.seed = 2
        assert dataclasses.replace(scenario, seed=2).seed == 2
