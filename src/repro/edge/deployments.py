"""Full edge-service deployments, one builder per protocol.

Each builder places protocol servers on the edge hosts of an
:class:`~repro.edge.topology.EdgeTopology`, creates a front end (with
its protocol service client) on every edge server, and returns a
:class:`Deployment` from which application clients can be spawned.

This is the wiring used by every response-time experiment:

* **dqvl** — an OQS node on every edge server (read-one/write-all OQS),
  an IQS node on the first ``num_iqs`` edge servers (majority IQS);
  front ends prefer their co-located OQS node.
* **basic_dq** — the lease-free dual-quorum protocol: DQVL's nodes and
  placement under :func:`~repro.core.config.basic_dq_config`.
* **majority** — one replica per edge server, majority quorums.
* **primary_backup** — replica per edge server, primary on edge 0.
* **rowa** — replica per edge server, synchronous write-all.
* **rowa_async** — replica per edge server, epidemic propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.cluster import build_dqvl_cluster
from ..core.config import DqvlConfig, basic_dq_config
from ..protocols.majority import build_majority_cluster
from ..protocols.primary_backup import build_primary_backup_cluster
from ..protocols.rowa import build_rowa_cluster
from ..protocols.rowa_async import build_rowa_async_cluster
from ..quorum.spec import QuorumSpec, SpecLike
from ..quorum.system import QuorumSystem
from ..resilience import NodeResilience, ResilienceConfig, derive_qrpc_timeouts
from .frontend import AppClient, FrontEnd, LocalityRedirection
from .topology import EdgeTopology

__all__ = [
    "Deployment",
    "default_qrpc",
    "deploy_dqvl",
    "deploy_basic_dq",
    "deploy_majority",
    "deploy_primary_backup",
    "deploy_rowa",
    "deploy_rowa_async",
    "PROTOCOL_DEPLOYERS",
]


def default_qrpc(topology: EdgeTopology) -> Dict[str, float]:
    """QRPC retransmission schedule derived from the topology's delay
    distribution (the historical fixed 400/6400 ms was wrong for both
    LAN-only and degraded-WAN topologies)."""
    initial, cap = derive_qrpc_timeouts(topology.config)
    return {
        "initial_timeout_ms": initial,
        "backoff": 2.0,
        "max_timeout_ms": cap,
    }


@dataclass
class Deployment:
    """A protocol deployed across the edge topology.

    Two ways to drive it:

    * **front-end mode** (Figure 1's full architecture): spawn
      :meth:`app_client`\\ s that send requests to front ends over the
      8/86 ms links; the front ends' co-located service clients run the
      protocol.  Used by the examples and integration tests.
    * **direct mode** (the prototype measurement setup of Section 4.1):
      :meth:`direct_client` places a service client on the application
      client's machine; reads reach the preferred replica over the 8 ms
      link and other replicas over 86 ms.  :meth:`set_preferred_edge`
      retargets the replica choice per operation — the access-locality
      knob of Figure 7.  In this mode majority and primary/backup are
      locality-insensitive (their quorums/primary are mostly remote
      either way), matching the paper.
    """

    name: str
    topology: EdgeTopology
    front_ends: List[FrontEnd]
    cluster: Any
    protocol_kinds: List[str] = field(default_factory=list)
    #: builds an (unplaced) protocol client: (node_id, prefer_edge) -> client
    _store_client_factory: Optional[Callable[[str, Optional[int]], Any]] = None
    #: client attribute that names the preferred replica (None: no choice)
    pref_attr: Optional[str] = None
    #: replica node id on each edge (for preference switching)
    replica_ids: List[str] = field(default_factory=list)
    #: resilience layer attached at deploy time (None: disabled)
    resilience: Optional[ResilienceConfig] = None
    _app_counter: int = 0

    def direct_client(self, client_index: int):
        """Create a service client on application client *client_index*'s
        machine, preferring its home edge's replica."""
        if self._store_client_factory is None:
            raise RuntimeError(f"{self.name} deployment has no client factory")
        node_id = f"appsc{client_index}"
        home = self.topology.home_edge_index(client_index)
        client = self._store_client_factory(node_id, home)
        self.topology.place_on_client(node_id, client_index)
        return client

    def set_preferred_edge(self, client, edge_index: int) -> None:
        """Point *client*'s replica preference at edge *edge_index*
        (no-op for protocols without replica choice)."""
        if self.pref_attr is None or not self.replica_ids:
            return
        setattr(client, self.pref_attr, self.replica_ids[edge_index])

    @property
    def front_end_ids(self) -> List[str]:
        return [fe.node_id for fe in self.front_ends]

    def front_end_for_edge(self, k: int) -> FrontEnd:
        return self.front_ends[k]

    def app_client(
        self,
        client_index: int,
        locality: float = 1.0,
        request_timeout_ms: float = 30_000.0,
    ) -> AppClient:
        """Create application client *client_index* on its client host,
        homed at its closest edge server's front end."""
        topo = self.topology
        home_edge = topo.home_edge_index(client_index)
        redirection = LocalityRedirection(
            home=self.front_end_ids[home_edge],
            all_front_ends=self.front_end_ids,
            locality=locality,
        )
        self._app_counter += 1
        node_id = f"app{client_index}"
        budget = (
            self.resilience.shed_retry_budget if self.resilience is not None else 3
        )
        app = AppClient(
            topo.sim, topo.network, node_id, redirection,
            request_timeout_ms=request_timeout_ms,
            shed_retry_budget=budget,
        )
        topo.place_on_client(node_id, client_index)
        return app

    def protocol_message_count(self) -> int:
        """Messages of protocol kinds accepted by the network so far —
        excludes the app↔front-end hop, matching the paper's
        communication-overhead accounting."""
        stats = self.topology.network.stats
        return sum(stats.by_kind[k] for k in self.protocol_kinds)


def _make_front_ends(
    topology: EdgeTopology, make_store_client: Callable[[int], Any],
    resilience: Optional[ResilienceConfig] = None,
) -> List[FrontEnd]:
    front_ends = []
    for k in range(topology.config.num_edges):
        store_client = make_store_client(k)
        fe = FrontEnd(topology.sim, topology.network, f"fe{k}", store_client,
                      resilience=resilience)
        topology.place_on_edge(fe.node_id, k)
        front_ends.append(fe)
    return front_ends


_DQ_KINDS = [
    "dq_read", "dq_read_reply", "dq_write", "dq_write_reply",
    "lc_read", "lc_read_reply", "inval", "inval_reply",
    "obj_renew", "obj_renew_reply", "vl_renew", "vl_renew_reply",
    "vlobj_renew", "vlobj_renew_reply", "vl_ack",
]


def _default_dq_config(topology: EdgeTopology) -> DqvlConfig:
    """DQVL with its keeper on and QRPC timeouts derived from *topology*."""
    initial, cap = derive_qrpc_timeouts(topology.config)
    return DqvlConfig(proactive_renewal=True, qrpc_initial_timeout_ms=initial,
                      qrpc_max_timeout_ms=cap)


def _deploy_dual_quorum(
    name: str, topology: EdgeTopology, num_iqs: Optional[int],
    config: DqvlConfig, client_max_attempts: Optional[int],
    resilience: Optional[ResilienceConfig],
    iqs_spec: Optional[SpecLike], oqs_spec: Optional[SpecLike],
    iqs_system: Optional[QuorumSystem] = None,
    oqs_system: Optional[QuorumSystem] = None,
) -> Deployment:
    """The one body behind :func:`deploy_dqvl` and :func:`deploy_basic_dq`,
    which differ only in the name and the config they pass."""
    n = topology.config.num_edges
    # IQS node k lives on edge k (default: every edge); range-checked
    # before any node is created
    if num_iqs is None:
        num_iqs = n
    elif not 1 <= num_iqs <= n:
        raise ValueError(f"num_iqs must be in [1, {n}]")
    if iqs_spec is not None:
        config.iqs_spec = QuorumSpec.parse(iqs_spec)
    if oqs_spec is not None:
        config.oqs_spec = QuorumSpec.parse(oqs_spec)
    if client_max_attempts is not None:
        config.client_max_attempts = client_max_attempts
    iqs_ids = [f"iqs{k}" for k in range(num_iqs)]
    oqs_ids = [f"oqs{k}" for k in range(n)]
    cluster = build_dqvl_cluster(
        topology.sim, topology.network, iqs_ids, oqs_ids,
        config=config, iqs_system=iqs_system, oqs_system=oqs_system,
    )
    for k, node_id in enumerate(iqs_ids):
        topology.place_on_edge(node_id, k)
    for k, node_id in enumerate(oqs_ids):
        topology.place_on_edge(node_id, k)
    if resilience is not None:
        for node in cluster.oqs_nodes:
            node.resilience = NodeResilience(
                topology.sim, node.node_id, resilience
            )

    def attach_resilience(client):
        if resilience is not None:
            client.resilience = NodeResilience(
                topology.sim, client.node_id, resilience
            )
        return client

    def make_store_client(k: int):
        client = cluster.client(
            f"sc{k}",
            prefer_oqs=f"oqs{k}",
            prefer_iqs=f"iqs{k}" if k < num_iqs else None,
        )
        topology.place_on_edge(client.node_id, k)
        return attach_resilience(client)

    front_ends = _make_front_ends(topology, make_store_client, resilience)

    def store_client_factory(node_id: str, prefer_edge: Optional[int]):
        return attach_resilience(cluster.client(
            node_id,
            prefer_oqs=f"oqs{prefer_edge}" if prefer_edge is not None else None,
        ))

    return Deployment(
        name, topology, front_ends, cluster, list(_DQ_KINDS),
        _store_client_factory=store_client_factory,
        # the read side only: writes prefer prefer_iqs, or nothing (an
        # OQS id is no IQS member, so QRPC drops it)
        pref_attr="prefer", replica_ids=list(oqs_ids),
        resilience=resilience,
    )


def deploy_dqvl(
    topology: EdgeTopology,
    num_iqs: Optional[int] = None,
    config: Optional[DqvlConfig] = None,
    iqs_system: Optional[QuorumSystem] = None,
    oqs_system: Optional[QuorumSystem] = None,
    client_max_attempts: Optional[int] = None,
    resilience: Optional[ResilienceConfig] = None,
    iqs_spec: Optional[SpecLike] = None,
    oqs_spec: Optional[SpecLike] = None,
) -> Deployment:
    """Deploy DQVL: OQS everywhere, IQS on the first *num_iqs* edges.

    *iqs_spec*/*oqs_spec* override the quorum shapes declaratively
    (e.g. ``"grid:3x3"``) while keeping the deployment's derived
    defaults — QRPC timeouts, volume maps — intact; they also override
    the shapes of a passed *config*.  A prebuilt *iqs_system*/
    *oqs_system* still wins over both.

    With *resilience* set, every OQS node and service client gets a
    :class:`NodeResilience` (failure detector, adaptive timeouts,
    hedging) and every front end a circuit breaker with degraded-read /
    shed-write behaviour.
    """
    return _deploy_dual_quorum(
        "dqvl", topology, num_iqs=num_iqs,
        config=config or _default_dq_config(topology),
        client_max_attempts=client_max_attempts,
        resilience=resilience, iqs_spec=iqs_spec, oqs_spec=oqs_spec,
        iqs_system=iqs_system, oqs_system=oqs_system,
    )


def deploy_basic_dq(
    topology: EdgeTopology,
    num_iqs: Optional[int] = None,
    config: Optional[DqvlConfig] = None,
    client_max_attempts: Optional[int] = None,
    resilience: Optional[ResilienceConfig] = None,
    iqs_spec: Optional[SpecLike] = None,
    oqs_spec: Optional[SpecLike] = None,
) -> Deployment:
    """Deploy the lease-free basic dual-quorum protocol (Section 3.1):
    :func:`deploy_dqvl` with *config* (default: the deployment's derived
    one) under :func:`~repro.core.config.basic_dq_config`."""
    return _deploy_dual_quorum(
        "basic_dq", topology, num_iqs=num_iqs,
        config=basic_dq_config(config or _default_dq_config(topology)),
        client_max_attempts=client_max_attempts,
        resilience=resilience, iqs_spec=iqs_spec, oqs_spec=oqs_spec,
    )


def _deploy_replicated(
    name: str,
    topology: EdgeTopology,
    build_cluster: Callable[[List[str]], Any],
    kinds: List[str],
    pref_attr: Optional[str],
) -> Deployment:
    """The one body behind the four single-tier deployers: replica
    ``srv{k}`` on edge *k*, built by ``build_cluster(server_ids)``, and
    service clients that prefer their edge's replica."""
    server_ids = [f"srv{k}" for k in range(topology.config.num_edges)]
    cluster = build_cluster(server_ids)
    for k, node_id in enumerate(server_ids):
        topology.place_on_edge(node_id, k)

    def store_client_factory(node_id: str, prefer_edge: Optional[int]):
        # every cluster decides what no preference means for it
        # (rowa_async: the first replica; primary/backup ignores it)
        prefer = server_ids[prefer_edge] if prefer_edge is not None else None
        return cluster.client(node_id, prefer=prefer)

    def make_store_client(k: int):
        client = store_client_factory(f"sc{k}", k)
        topology.place_on_edge(client.node_id, k)
        return client

    front_ends = _make_front_ends(topology, make_store_client)
    return Deployment(
        name, topology, front_ends, cluster, kinds,
        _store_client_factory=store_client_factory,
        pref_attr=pref_attr, replica_ids=list(server_ids),
    )


def deploy_majority(
    topology: EdgeTopology,
    system: Optional[QuorumSystem] = None,
    client_max_attempts: Optional[int] = None,
    spec: Optional[SpecLike] = None,
) -> Deployment:
    """Deploy a majority-quorum register, one replica per edge server.

    *spec* (e.g. ``"grid:3x3"``) picks a non-default quorum shape; a
    prebuilt *system* wins over it.
    """
    qrpc_config = default_qrpc(topology)
    if client_max_attempts is not None:
        qrpc_config["max_attempts"] = client_max_attempts
    return _deploy_replicated(
        "majority", topology,
        lambda server_ids: build_majority_cluster(
            topology.sim, topology.network, server_ids,
            system=system, qrpc_config=qrpc_config, spec=spec,
        ),
        ["mq_read", "mq_read_reply", "mq_write", "mq_write_reply",
         "mq_lc", "mq_lc_reply"],
        pref_attr="prefer",
    )


def deploy_primary_backup(
    topology: EdgeTopology,
    primary_edge: int = 0,
    client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy primary/backup with the primary on *primary_edge*."""
    return _deploy_replicated(
        "primary_backup", topology,
        lambda server_ids: build_primary_backup_cluster(
            topology.sim, topology.network, server_ids,
            primary_id=f"srv{primary_edge}", max_attempts=client_max_attempts,
        ),
        ["pb_read", "pb_read_reply", "pb_write", "pb_write_reply", "pb_sync"],
        pref_attr=None,
    )


def deploy_rowa(
    topology: EdgeTopology,
    client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy synchronous ROWA, one replica per edge server."""
    qrpc_config = default_qrpc(topology)
    if client_max_attempts is not None:
        qrpc_config["max_attempts"] = client_max_attempts
    return _deploy_replicated(
        "rowa", topology,
        lambda server_ids: build_rowa_cluster(
            topology.sim, topology.network, server_ids, qrpc_config=qrpc_config
        ),
        ["rowa_read", "rowa_read_reply", "rowa_write", "rowa_write_reply"],
        pref_attr="prefer",
    )


def deploy_rowa_async(
    topology: EdgeTopology,
    gossip_interval_ms: float = 1000.0,
    client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy epidemic ROWA-Async, one replica per edge server."""
    return _deploy_replicated(
        "rowa_async", topology,
        lambda server_ids: build_rowa_async_cluster(
            topology.sim, topology.network, server_ids,
            gossip_interval_ms=gossip_interval_ms,
            max_attempts=client_max_attempts,
        ),
        ["ra_read", "ra_read_reply", "ra_write", "ra_write_reply",
         "ra_update", "ra_digest", "ra_pull"],
        pref_attr="target",
    )


#: Registry used by the harness and benchmarks.
PROTOCOL_DEPLOYERS: Dict[str, Callable[..., Deployment]] = {
    "dqvl": deploy_dqvl,
    "basic_dq": deploy_basic_dq,
    "majority": deploy_majority,
    "primary_backup": deploy_primary_backup,
    "rowa": deploy_rowa,
    "rowa_async": deploy_rowa_async,
}
