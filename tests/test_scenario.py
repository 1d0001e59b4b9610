"""Tests for the one path from a runner config's fields to its deployment.

Experiments, chaos runs, the model checker and CDN scenarios each call
``PROTOCOL_DEPLOYERS[protocol](topology, **fields)``; the dual-quorum
deployers alone turn those fields into a ``DqvlConfig``, by one rule
(see :mod:`repro.edge.deployments`).  These tests pin that rule for
every runner, the shared field check, and the runner configs' own
persistence.
"""

import dataclasses
import json

import pytest

from repro.chaos.campaign import ChaosRunConfig, run_chaos
from repro.core.config import DqvlConfig, basic_dq_config
from repro.core.volumes import HashVolumeMap, SingleVolumeMap
from repro.edge import deployments
from repro.edge.cdn import CdnScenarioConfig, run_cdn
from repro.edge.topology import EdgeTopologyConfig
from repro.harness.experiment import ExperimentConfig, run_response_time
from repro.mc.runner import McRunConfig, run_schedule


_DEPLOYERS = dict(deployments.PROTOCOL_DEPLOYERS)


class _Deployed(Exception):
    """Stops a run once its deployment exists."""


def _deploy(monkeypatch, run, config):
    """The deployment *run* builds for *config*.  The registry entry is
    replaced, so this also checks that runners read it at call time."""
    original = _DEPLOYERS[config.protocol]
    seen = []

    def capture(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        raise _Deployed

    monkeypatch.setitem(deployments.PROTOCOL_DEPLOYERS, config.protocol, capture)
    with pytest.raises(_Deployed):
        run(config)
    return seen[0]


def _comparable(config: DqvlConfig) -> dict:
    fields = dataclasses.asdict(
        dataclasses.replace(config, volume_map=SingleVolumeMap())
    )
    vm = config.volume_map
    fields["volume_map"] = (type(vm).__name__, getattr(vm, "num_volumes", None))
    return fields


def _rule(topology, protocol, lease_length_ms=10_000.0,
          qrpc_initial_timeout_ms=None, qrpc_max_timeout_ms=None,
          num_volumes=None, **fields) -> DqvlConfig:
    """The deployers' rule, written out: the keeper is on with a margin
    of min(1000, L/2); QRPC timeouts not given derive from the topology
    (two worst-case round trips, capped after four doublings), with the
    cap never below the first timeout; ``num_volumes`` picks the volume
    map; everything else keeps its DqvlConfig default."""
    one_way = max(topology.lan_ms, topology.client_wan_ms, topology.server_wan_ms)
    initial = max(1.0, 4.0 * (one_way + topology.jitter_ms + topology.processing_ms))
    cap = initial * 16.0
    if qrpc_initial_timeout_ms is not None:
        initial = qrpc_initial_timeout_ms
    if qrpc_max_timeout_ms is not None:
        cap = qrpc_max_timeout_ms
    config = DqvlConfig(
        lease_length_ms=lease_length_ms,
        proactive_renewal=True,
        renewal_margin_ms=min(1_000.0, lease_length_ms / 2),
        qrpc_initial_timeout_ms=initial,
        qrpc_max_timeout_ms=max(cap, initial),
        volume_map=(SingleVolumeMap() if num_volumes is None
                    else HashVolumeMap(num_volumes)),
        **fields,
    )
    return basic_dq_config(config) if protocol == "basic_dq" else config


SPECS = dict(iqs_spec="majority:r=2,w=4", oqs_spec="rowa")
CHAOS = dict(lease_length_ms=1_200.0, max_drift=0.01,
             inval_initial_timeout_ms=200.0, client_max_attempts=4)
CDN = dict(users=10, horizon_ms=10.0, num_volumes=16)

#: (runner, its config for a protocol, the rule's fields for it)
CASES = {
    "experiment": (
        run_response_time,
        lambda p: ExperimentConfig(protocol=p, num_edges=5),
        {},
    ),
    "experiment-specs": (
        run_response_time,
        lambda p: ExperimentConfig(protocol=p, num_edges=5, **SPECS),
        SPECS,
    ),
    "chaos": (run_chaos, lambda p: ChaosRunConfig(protocol=p), CHAOS),
    "chaos-specs": (
        run_chaos,
        lambda p: ChaosRunConfig(protocol=p, num_edges=4, iqs_spec="grid:2x2"),
        dict(CHAOS, iqs_spec="grid:2x2"),
    ),
    "chaos-resilience": (
        run_chaos,
        lambda p: ChaosRunConfig(protocol=p, resilience=True, mode="frontend"),
        CHAOS,
    ),
    "chaos-overrides": (
        run_chaos,
        lambda p: ChaosRunConfig(
            protocol=p, lease_length_ms=900.0, max_drift=0.02,
            qrpc_initial_timeout_ms=150.0, qrpc_max_timeout_ms=150.0,
        ),
        dict(CHAOS, lease_length_ms=900.0, max_drift=0.02,
             qrpc_initial_timeout_ms=150.0, qrpc_max_timeout_ms=150.0),
    ),
    "chaos-unlimited": (
        run_chaos,
        lambda p: ChaosRunConfig(protocol=p, client_max_attempts=None),
        dict(CHAOS, client_max_attempts=None),
    ),
    "mc": (
        run_schedule,
        lambda p: McRunConfig(protocol=p),
        dict(lease_length_ms=400.0, max_drift=0.0, inval_initial_timeout_ms=200.0,
             qrpc_initial_timeout_ms=400.0, qrpc_max_timeout_ms=6_400.0,
             client_max_attempts=6),
    ),
    "cdn": (
        run_cdn, lambda p: CdnScenarioConfig(protocol=p, **CDN),
        dict(num_volumes=16),
    ),
    "cdn-specs": (
        run_cdn, lambda p: CdnScenarioConfig(protocol=p, **CDN, **SPECS),
        dict(SPECS, num_volumes=16),
    ),
}


class TestOneRule:
    @pytest.mark.parametrize("protocol", ["dqvl", "basic_dq"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_runner_deploys_the_rule(self, monkeypatch, case, protocol):
        run, make, fields = CASES[case]
        deployment = _deploy(monkeypatch, run, make(protocol))
        expected = _rule(deployment.topology.config, protocol, **fields)
        assert _comparable(deployment.cluster.config) == _comparable(expected)

    def test_dq_fields_refuse_other_protocols(self):
        for build in (
            lambda: ExperimentConfig(protocol="majority", iqs_spec="grid:3x3"),
            lambda: ChaosRunConfig(protocol="rowa", oqs_spec="rowa"),
            lambda: CdnScenarioConfig(protocol="primary_backup", iqs_spec="rowa"),
        ):
            with pytest.raises(ValueError, match="only reach the dual-quorum"):
                build()

    def test_specs_are_stored_canonically(self):
        spec = {"kind": "majority", "read_size": 2, "write_size": 4}
        for config in (
            ExperimentConfig(iqs_spec=spec),
            ChaosRunConfig(iqs_spec=spec),
            CdnScenarioConfig(iqs_spec=spec),
        ):
            assert config.iqs_spec == "majority:r=2,w=4"


class TestUnset:
    def test_default_scenario_leaves_runner_defaults_alone(self):
        # each runner keeps its own sizes; an experiment's unset
        # deployment fields are left to the deployers' rule
        assert ExperimentConfig().num_edges == 9
        assert ChaosRunConfig().num_edges == 3
        assert McRunConfig().num_edges == 2
        config = ExperimentConfig()
        assert (config.lease_length_ms, config.iqs_spec, config.oqs_spec) == (
            None, None, None,
        )


class TestRoundTrips:
    def test_mc_round_trip_preserves_every_shared_field(self):
        """``McRunResult.trace_text`` and the mc corpus persist the config
        as ``asdict`` JSON; loading it back gives the same config."""
        original = McRunConfig(
            protocol="dqvl", seed=7, weaken="drop_vl_acks",
            num_edges=3, num_clients=4, ops_per_client=9,
            write_ratio=0.5, num_keys=3, lease_length_ms=350.0,
            max_drift=0.01, jitter_ms=2.0, client_max_attempts=None,
            time_limit_ms=70_000.0,
        )
        obj = json.loads(json.dumps(dataclasses.asdict(original)))
        assert McRunConfig(**obj) == original

    def test_chaos_round_trip_preserves_every_shared_field(self):
        """The chaos corpus persists ``ChaosRunResult.to_json_obj()``'s
        config; loading it back gives the same config."""
        original = ChaosRunConfig(
            protocol="basic_dq", seed=3, num_edges=4, num_clients=2,
            ops_per_client=25, write_ratio=0.1, num_keys=6,
            lease_length_ms=900.0, max_drift=0.02, jitter_ms=4.0,
            client_max_attempts=2, time_limit_ms=500_000.0,
            nemeses=("crash_storm",), iqs_spec="grid:2x2",
            qrpc_initial_timeout_ms=150.0, resilience=True,
        )
        obj = json.loads(json.dumps(dataclasses.asdict(original)))
        assert ChaosRunConfig(**obj) == original

    def test_experiment_round_trip_preserves_shared_core(self):
        original = ExperimentConfig(
            protocol="dqvl", seed=5, num_edges=4, num_clients=2,
            ops_per_client=30, write_ratio=0.2, lease_length_ms=2_000.0,
            iqs_spec="grid:2x2",
        )
        rebuilt = dataclasses.replace(original)
        assert rebuilt == original
        assert rebuilt.topology is not original.topology

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
        # experiments have no weakener hook, so no such field either
        with pytest.raises(TypeError):
            ExperimentConfig(weaken="drop_vl_acks")

    def test_lease_fields_reach_the_deployed_config(self, monkeypatch):
        config = ExperimentConfig(protocol="dqvl", num_edges=3,
                                  lease_length_ms=1_500.0)
        deployed = _deploy(monkeypatch, run_response_time, config).cluster.config
        assert deployed.lease_length_ms == 1_500.0
        assert deployed.renewal_margin_ms == 750.0
        assert deployed.proactive_renewal  # dqvl keeps the keeper on

    def test_basic_dq_disables_proactive_renewal(self, monkeypatch):
        """Basic DQ deploys DQVL under basic_dq_config: whatever lease
        the config names, the deployed lease is infinite and no keeper
        runs."""
        config = ExperimentConfig(protocol="basic_dq", lease_length_ms=800.0)
        deployed = _deploy(monkeypatch, run_response_time, config).cluster.config
        assert deployed.lease_length_ms == float("inf")
        assert not deployed.proactive_renewal

    def test_lease_fields_refuse_non_dqvl_protocols(self):
        with pytest.raises(ValueError, match="lease_length_ms only reach"):
            ExperimentConfig(protocol="rowa", lease_length_ms=800.0)

    def test_jitter_maps_into_topology(self):
        config = ExperimentConfig(topology=EdgeTopologyConfig(jitter_ms=7.5))
        assert config.topology.jitter_ms == 7.5

    def test_num_keys_has_no_experiment_equivalent(self):
        # the response-time workload derives its keys from the clients
        assert not hasattr(ExperimentConfig(), "num_keys")

    def test_configs_never_share_a_topology(self):
        topology = EdgeTopologyConfig()
        a = ExperimentConfig(num_edges=3, topology=topology)
        b = ExperimentConfig(num_edges=7, num_clients=5, topology=topology)
        assert (a.topology.num_edges, b.topology.num_edges) == (3, 7)
        assert b.topology.num_clients == 5
        assert (topology.num_edges, topology.num_clients) == (9, 3)


class TestOverridePrecedence:
    def test_scenario_is_frozen_and_replaceable(self):
        """The configs the CLI builds for chaos and explore are frozen
        (hashable sweep points) and replaceable field by field."""
        for config in (ChaosRunConfig(seed=1), McRunConfig(seed=1)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                config.seed = 2
            assert dataclasses.replace(config, seed=2).seed == 2
