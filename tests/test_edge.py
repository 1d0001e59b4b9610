"""Tests for the edge topology, front ends, and deployments."""

import math

import pytest

from repro.edge import (
    EdgeTopology,
    EdgeTopologyConfig,
    LocalityRedirection,
    OperationFailed,
    PROTOCOL_DEPLOYERS,
    deploy_basic_dq,
    deploy_dqvl,
    deploy_majority,
    deploy_primary_backup,
    deploy_rowa_async,
)
from repro.sim import Message, Simulator


@pytest.fixture
def topo():
    sim = Simulator(seed=0)
    return EdgeTopology(sim, EdgeTopologyConfig(num_edges=4, num_clients=2))


class TestTopologyDelays:
    def test_same_host_zero_delay(self, topo):
        topo.place_on_edge("a", 0)
        topo.place_on_edge("b", 0)
        assert topo.delay_model.delay("a", "b", topo.sim.rng) == 0.0

    def test_edge_to_edge(self, topo):
        topo.place_on_edge("a", 0)
        topo.place_on_edge("b", 1)
        assert topo.delay_model.delay("a", "b", topo.sim.rng) == 80.0

    def test_client_to_home_edge_is_lan(self, topo):
        topo.place_on_client("app", 0)
        topo.place_on_edge("srv", 0)  # client 0's home is edge 0
        assert topo.delay_model.delay("app", "srv", topo.sim.rng) == 8.0
        assert topo.delay_model.delay("srv", "app", topo.sim.rng) == 8.0

    def test_client_to_distant_edge_is_wan(self, topo):
        topo.place_on_client("app", 0)
        topo.place_on_edge("srv", 2)
        assert topo.delay_model.delay("app", "srv", topo.sim.rng) == 86.0

    def test_unplaced_node_raises(self, topo):
        topo.place_on_edge("a", 0)
        with pytest.raises(KeyError):
            topo.delay_model.delay("a", "ghost", topo.sim.rng)

    def test_processing_delay_charged_at_edges(self):
        sim = Simulator(seed=0)
        topo = EdgeTopology(
            sim, EdgeTopologyConfig(num_edges=2, num_clients=1, processing_ms=3.0)
        )
        topo.place_on_client("app", 0)
        topo.place_on_edge("srv", 0)
        # toward the edge: LAN + processing; toward the client: LAN only
        assert topo.delay_model.delay("app", "srv", sim.rng) == 11.0
        assert topo.delay_model.delay("srv", "app", sim.rng) == 8.0

    def test_host_index_bounds(self, topo):
        with pytest.raises(IndexError):
            topo.edge_host(99)
        with pytest.raises(IndexError):
            topo.client_host(5)

    def test_home_edge_wraps(self):
        sim = Simulator(seed=0)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=5))
        assert topo.home_edge_index(4) == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EdgeTopologyConfig(num_edges=0)
        with pytest.raises(ValueError):
            EdgeTopologyConfig(lan_ms=-1)
        for jitter in (-5.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="jitter"):
                EdgeTopologyConfig(jitter_ms=jitter)

    @pytest.mark.parametrize("name", [
        "lan_ms", "client_wan_ms", "server_wan_ms", "processing_ms", "intra_region_ms"])
    @pytest.mark.parametrize("delay", [-1.0, math.nan, math.inf])
    def test_delays_must_be_non_negative_and_finite(self, name, delay):
        """A NaN, infinite or negative delay fails at construction, not
        at a run's first send."""
        with pytest.raises(ValueError, match=f"{name} must be non-negative and finite"):
            EdgeTopologyConfig(regions=3, **{name: delay})


class TestRedirection:
    def test_full_locality_always_home(self):
        import random

        policy = LocalityRedirection("fe0", ["fe0", "fe1", "fe2"], 1.0)
        rng = random.Random(0)
        assert all(policy.pick(rng) == "fe0" for _ in range(50))

    def test_zero_locality_never_home(self):
        import random

        policy = LocalityRedirection("fe0", ["fe0", "fe1", "fe2"], 0.0)
        rng = random.Random(0)
        assert all(policy.pick(rng) != "fe0" for _ in range(50))

    def test_intermediate_locality_rate(self):
        import random

        policy = LocalityRedirection("fe0", ["fe0", "fe1"], 0.7)
        rng = random.Random(1)
        home = sum(policy.pick(rng) == "fe0" for _ in range(2000))
        assert 1300 < home < 1500

    def test_validation(self):
        with pytest.raises(ValueError):
            LocalityRedirection("fe0", ["fe0"], 0.5)
        with pytest.raises(ValueError):
            LocalityRedirection("feX", ["fe0", "fe1"], 1.0)
        with pytest.raises(ValueError):
            LocalityRedirection("fe0", ["fe0", "fe1"], 1.5)


class TestDeployments:
    @pytest.mark.parametrize("name", sorted(PROTOCOL_DEPLOYERS))
    def test_every_protocol_serves_via_front_end(self, name):
        sim = Simulator(seed=1)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = PROTOCOL_DEPLOYERS[name](topo)
        app = deployment.app_client(0)

        def scenario():
            yield from app.write("k", "v")
            r = yield from app.read("k")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v"

    @pytest.mark.parametrize("name", sorted(PROTOCOL_DEPLOYERS))
    def test_every_protocol_direct_client(self, name):
        sim = Simulator(seed=2)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = PROTOCOL_DEPLOYERS[name](topo)
        client = deployment.direct_client(0)

        def scenario():
            yield from client.write("k", "v")
            r = yield from client.read("k")
            return r.value

        assert sim.run_process(scenario(), until=600_000.0) == "v"

    def test_dqvl_deployment_read_hit_latency(self):
        sim = Simulator(seed=3)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = deploy_dqvl(topo)
        client = deployment.direct_client(0)

        def scenario():
            yield from client.write("k", "v")
            yield from client.read("k")  # miss
            r = yield from client.read("k")  # hit: one LAN round trip
            return (r.hit, r.latency)

        assert sim.run_process(scenario(), until=600_000.0) == (True, 16.0)

    def test_dqvl_num_iqs_subset(self):
        sim = Simulator(seed=3)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=5, num_clients=1))
        deployment = deploy_dqvl(topo, num_iqs=3)
        assert len(deployment.cluster.iqs_nodes) == 3
        assert len(deployment.cluster.oqs_nodes) == 5

    @pytest.mark.parametrize("deploy", [deploy_dqvl, deploy_basic_dq])
    @pytest.mark.parametrize("num_iqs", [0, 9])
    def test_num_iqs_out_of_range_rejected_before_any_node_exists(self, deploy, num_iqs):
        topo = EdgeTopology(Simulator(0), EdgeTopologyConfig(num_edges=3))
        with pytest.raises(ValueError, match="num_iqs"):
            deploy(topo, num_iqs=num_iqs)
        assert list(topo.network.node_ids) == []

    def test_set_preferred_edge_switches_replica(self):
        sim = Simulator(seed=4)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = deploy_majority(topo)
        client = deployment.direct_client(0)
        deployment.set_preferred_edge(client, 2)
        assert client.prefer == "srv2"

    def test_primary_backup_has_no_replica_choice(self):
        sim = Simulator(seed=4)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = deploy_primary_backup(topo)
        client = deployment.direct_client(0)
        deployment.set_preferred_edge(client, 2)  # must be a harmless no-op
        assert client.target == "srv0"

    def test_front_end_reports_errors_as_operation_failed(self):
        sim = Simulator(seed=5)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = deploy_rowa_async(topo, client_max_attempts=2)
        # crash the whole storage tier
        for server in deployment.cluster.servers:
            server.crash()
        app = deployment.app_client(0, request_timeout_ms=120_000.0)

        def scenario():
            try:
                yield from app.read("k")
            except OperationFailed:
                return "failed"

        assert sim.run_process(scenario(), until=600_000.0) == "failed"

    def test_protocol_message_count_excludes_fe_traffic(self):
        sim = Simulator(seed=6)
        topo = EdgeTopology(sim, EdgeTopologyConfig(num_edges=3, num_clients=1))
        deployment = deploy_majority(topo)
        app = deployment.app_client(0)

        def scenario():
            yield from app.read("k")

        sim.run_process(scenario(), until=600_000.0)
        protocol = deployment.protocol_message_count()
        total = topo.network.stats.total_messages
        assert 0 < protocol < total  # fe_read traffic excluded
