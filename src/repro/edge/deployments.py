"""Full edge-service deployments, one builder per protocol.

Each builder places protocol servers on the edge hosts of an
:class:`~repro.edge.topology.EdgeTopology`, creates a front end (with
its protocol service client) on every edge server, and returns a
:class:`Deployment` from which application clients can be spawned; its
``servers`` are the protocol server nodes in build order.

Every runner — experiments, chaos runs, the model checker and CDN
scenarios — gets its world from :func:`deployed`, which builds the
topology, deploys through :func:`deploy` (which looks the builder up in
``PROTOCOL_DEPLOYERS`` at call time) and closes the world on exit:

* **dqvl** — an OQS node on every edge server (read-one/write-all OQS),
  an IQS node on the first ``num_iqs`` edge servers (majority IQS);
  front ends prefer their co-located OQS node.
* **basic_dq** — the lease-free dual-quorum protocol: DQVL's nodes and
  placement under :func:`~repro.core.config.basic_dq_config`.
* **majority** — one replica per edge server, majority quorums.
* **primary_backup** — replica per edge server, primary on edge 0.
* **rowa** — replica per edge server, synchronous write-all.
* **rowa_async** — replica per edge server, epidemic propagation.

Every deployer takes ``client_max_attempts``.  Only the two dual-quorum
deployers take the lease, QRPC, quorum-shape, volume and resilience
keywords, and they alone turn them into a
:class:`~repro.core.config.DqvlConfig`, by one rule (:func:`_dqvl_config`);
:func:`deploy` drops those keywords for the other four.  Runner configs
refuse those fields on other protocols through :func:`check_dq_fields`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional

from ..bounds import require
from ..protocols.majority import build_majority_cluster
from ..protocols.primary_backup import build_primary_backup_cluster
from ..protocols.rowa import build_rowa_cluster
from ..protocols.rowa_async import build_rowa_async_cluster
from ..quorum.qrpc import BACKOFF
from ..quorum.spec import QuorumSpec, SpecLike
from .frontend import AppClient, FrontEnd, LocalityRedirection
from .topology import EdgeTopology, EdgeTopologyConfig

if TYPE_CHECKING:  # the DQVL core loads only when a dual-quorum deployer runs
    from ..core.config import DqvlConfig
    from ..sim.kernel import Simulator

__all__ = [
    "Deployment",
    "DUAL_QUORUM",
    "check_dq_fields",
    "deploy",
    "deployed",
    "deploy_dqvl",
    "deploy_basic_dq",
    "deploy_majority",
    "deploy_primary_backup",
    "deploy_rowa",
    "deploy_rowa_async",
    "PROTOCOL_DEPLOYERS",
]

#: the protocols that take the dual-quorum-only deployer keywords
DUAL_QUORUM = ("dqvl", "basic_dq")


def check_dq_fields(config: Any, *names: str) -> None:
    """The runner configs' one check of their protocol and their
    dual-quorum-only fields.

    Refuses any of *names* that is set on *config* (not ``None`` or
    ``False``) unless ``config.protocol`` is dual-quorum, then a
    protocol with no deployer; stores the ``iqs_spec``/``oqs_spec``
    among *names* in canonical string form (e.g. ``"grid:3x3"``), so a
    frozen config stays hashable.
    """
    given = [
        name for name in names
        if getattr(config, name) is not None and getattr(config, name) is not False
    ]
    if given and config.protocol not in DUAL_QUORUM:
        raise ValueError(
            f"{', '.join(given)} only reach the dual-quorum deployments "
            f"(dqvl, basic_dq), not {config.protocol!r}"
        )
    if config.protocol not in PROTOCOL_DEPLOYERS:
        raise ValueError(
            f"unknown protocol {config.protocol!r}; "
            f"choose from {sorted(PROTOCOL_DEPLOYERS)}"
        )
    for name in ("iqs_spec", "oqs_spec"):
        if name in given:
            object.__setattr__(
                config, name, str(QuorumSpec.parse(getattr(config, name)))
            )


def _qrpc_schedule(
    topology: EdgeTopology,
    initial_ms: Optional[float] = None,
    max_ms: Optional[float] = None,
    max_attempts: Optional[int] = None,
) -> Dict[str, Any]:
    """A QRPC retransmission schedule, with or without the resilience
    layer.  Timeouts not given derive from the topology's delay
    distribution (the historical fixed 400/6400 ms was wrong for both
    LAN-only and degraded-WAN topologies): the first covers two worst-case
    round trips (the largest one-way delay plus jitter and processing,
    there and back), and the cap is four :data:`BACKOFF` steps past the
    derived first timeout.  The cap never sits below the first timeout."""
    config = topology.config
    one_way = max(config.lan_ms, config.client_wan_ms, config.server_wan_ms)
    derived = max(1.0, 4.0 * (one_way + config.jitter_ms + config.processing_ms))
    initial = derived if initial_ms is None else initial_ms
    cap = derived * BACKOFF ** 4 if max_ms is None else max_ms
    return {
        "initial_timeout_ms": initial,
        "max_timeout_ms": max(cap, initial),
        "max_attempts": max_attempts,
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
    #: builds an (unplaced) protocol client: (node_id, prefer_edge) -> client
    _store_client_factory: Optional[Callable[[str, Optional[int]], Any]] = None
    #: client attribute that names the preferred replica (None: no choice)
    pref_attr: Optional[str] = None
    #: replica node id on each edge (for preference switching)
    replica_ids: List[str] = field(default_factory=list)
    #: the protocol server nodes in build order (IQS then OQS, or the
    #: replicas)
    servers: List[Any] = field(default_factory=list)

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
        node_id = f"app{client_index}"
        app = AppClient(
            topo.sim, topo.network, node_id, redirection,
            request_timeout_ms=request_timeout_ms,
        )
        topo.place_on_client(node_id, client_index)
        return app

    def protocol_message_count(self) -> int:
        """Messages accepted by the network so far, except the
        app↔front-end hop (the ``fe_*`` kinds), matching the paper's
        communication-overhead accounting."""
        return sum(
            count for kind, count in self.topology.network.stats.by_kind.items()
            if not kind.startswith("fe_")
        )


def _make_front_ends(
    topology: EdgeTopology, make_store_client: Callable[[int], Any],
    resilience: bool = False,
) -> List[FrontEnd]:
    front_ends = []
    for k in range(topology.config.num_edges):
        store_client = make_store_client(k)
        fe = FrontEnd(topology.sim, topology.network, f"fe{k}", store_client,
                      resilience=resilience)
        topology.place_on_edge(fe.node_id, k)
        front_ends.append(fe)
    return front_ends


def _dqvl_config(
    topology: EdgeTopology,
    *,
    lease_length_ms: Optional[float] = None,
    max_drift: Optional[float] = None,
    qrpc_initial_timeout_ms: Optional[float] = None,
    qrpc_max_timeout_ms: Optional[float] = None,
    inval_initial_timeout_ms: Optional[float] = None,
    iqs_spec: Optional[SpecLike] = None,
    oqs_spec: Optional[SpecLike] = None,
    num_volumes: Optional[int] = None,
    client_max_attempts: Optional[int] = None,
) -> DqvlConfig:
    """The one rule from a runner's fields to a :class:`DqvlConfig`.

    The keeper is on, with ``renewal_margin_ms = min(1000, L / 2)`` for
    lease length ``L``; QRPC timeouts not given derive from *topology*
    (:func:`_qrpc_schedule`); ``num_volumes=None`` is one volume and an
    int ``n`` hashes objects over ``n``; every other field, and every
    field left ``None``, keeps its :class:`DqvlConfig` default.
    """
    from ..core.config import DqvlConfig
    from ..core.volumes import HashVolumeMap, SingleVolumeMap

    qrpc = _qrpc_schedule(topology, qrpc_initial_timeout_ms, qrpc_max_timeout_ms)
    if lease_length_ms is None:
        lease_length_ms = DqvlConfig.lease_length_ms
    defaults = {
        name: value
        for name, value in (("max_drift", max_drift),
                            ("inval_initial_timeout_ms", inval_initial_timeout_ms))
        if value is not None
    }
    return DqvlConfig(
        lease_length_ms=lease_length_ms,
        proactive_renewal=True,
        renewal_margin_ms=min(1_000.0, 0.5 * lease_length_ms),
        qrpc_initial_timeout_ms=qrpc["initial_timeout_ms"],
        qrpc_max_timeout_ms=qrpc["max_timeout_ms"],
        volume_map=(
            SingleVolumeMap() if num_volumes is None else HashVolumeMap(num_volumes)
        ),
        client_max_attempts=client_max_attempts,
        iqs_spec=iqs_spec,
        oqs_spec=oqs_spec,
        **defaults,
    )


def _deploy_dual_quorum(
    name: str, topology: EdgeTopology, config: DqvlConfig,
    num_iqs: Optional[int], resilience: bool,
) -> Deployment:
    """The one body behind :func:`deploy_dqvl` and :func:`deploy_basic_dq`,
    which differ only in the name and the config they pass."""
    from ..core.cluster import build_dqvl_cluster
    from ..resilience.runtime import NodeResilience

    n = topology.config.num_edges
    # IQS node k lives on edge k (default: every edge); range-checked
    # before any node is created
    if num_iqs is None:
        num_iqs = n
    require("num_iqs", num_iqs, 1, n)
    iqs_ids = [f"iqs{k}" for k in range(num_iqs)]
    oqs_ids = [f"oqs{k}" for k in range(n)]
    cluster = build_dqvl_cluster(
        topology.sim, topology.network, iqs_ids, oqs_ids, config=config,
    )
    for k, node_id in enumerate(iqs_ids):
        topology.place_on_edge(node_id, k)
    for k, node_id in enumerate(oqs_ids):
        topology.place_on_edge(node_id, k)
    if resilience:
        for node in cluster.oqs_nodes:
            node.resilience = NodeResilience(topology.sim, node.node_id)

    def attach_resilience(client):
        if resilience:
            client.resilience = NodeResilience(topology.sim, client.node_id)
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
        name, topology, front_ends, cluster,
        _store_client_factory=store_client_factory,
        # the read side only: writes prefer prefer_iqs, or nothing (an
        # OQS id is no IQS member, so QRPC drops it)
        pref_attr="prefer", replica_ids=list(oqs_ids),
        servers=list(cluster.iqs_nodes) + list(cluster.oqs_nodes),
    )


def deploy_dqvl(
    topology: EdgeTopology,
    *,
    num_iqs: Optional[int] = None,
    resilience: bool = False,
    **fields: Any,
) -> Deployment:
    """Deploy DQVL: OQS everywhere, IQS on the first *num_iqs* edges.

    *fields* are the config keywords of :func:`_dqvl_config`
    (``lease_length_ms``, ``max_drift``, ``qrpc_initial_timeout_ms``,
    ``qrpc_max_timeout_ms``, ``inval_initial_timeout_ms``, ``iqs_spec``,
    ``oqs_spec``, ``num_volumes``, ``client_max_attempts``); what is
    left unset follows its one rule.

    With *resilience* set, every OQS node and service client gets a
    :class:`NodeResilience` (failure detector, adaptive timeouts,
    hedging) and every front end serves degraded reads when a read's
    storage attempt fails.
    """
    return _deploy_dual_quorum(
        "dqvl", topology, _dqvl_config(topology, **fields), num_iqs, resilience,
    )


def deploy_basic_dq(
    topology: EdgeTopology,
    *,
    num_iqs: Optional[int] = None,
    resilience: bool = False,
    **fields: Any,
) -> Deployment:
    """Deploy the lease-free basic dual-quorum protocol (Section 3.1):
    :func:`deploy_dqvl`'s config under
    :func:`~repro.core.config.basic_dq_config`."""
    from ..core.config import basic_dq_config

    return _deploy_dual_quorum(
        "basic_dq", topology, basic_dq_config(_dqvl_config(topology, **fields)),
        num_iqs, resilience,
    )


def _deploy_replicated(
    name: str,
    topology: EdgeTopology,
    build_cluster: Callable[[List[str]], Any],
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
        name, topology, front_ends, cluster,
        _store_client_factory=store_client_factory,
        pref_attr=pref_attr, replica_ids=list(server_ids),
        servers=list(cluster.servers),
    )


def deploy_majority(
    topology: EdgeTopology, client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy a majority-quorum register, one replica per edge server."""
    qrpc_config = _qrpc_schedule(topology, max_attempts=client_max_attempts)
    return _deploy_replicated(
        "majority", topology,
        lambda server_ids: build_majority_cluster(
            topology.sim, topology.network, server_ids, qrpc_config=qrpc_config,
        ),
        pref_attr="prefer",
    )


def deploy_primary_backup(
    topology: EdgeTopology, client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy primary/backup with the primary on edge 0."""
    return _deploy_replicated(
        "primary_backup", topology,
        lambda server_ids: build_primary_backup_cluster(
            topology.sim, topology.network, server_ids,
            max_attempts=client_max_attempts,
        ),
        pref_attr=None,
    )


def deploy_rowa(
    topology: EdgeTopology, client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy synchronous ROWA, one replica per edge server."""
    qrpc_config = _qrpc_schedule(topology, max_attempts=client_max_attempts)
    return _deploy_replicated(
        "rowa", topology,
        lambda server_ids: build_rowa_cluster(
            topology.sim, topology.network, server_ids, qrpc_config=qrpc_config
        ),
        pref_attr="prefer",
    )


def deploy_rowa_async(
    topology: EdgeTopology, client_max_attempts: Optional[int] = None,
) -> Deployment:
    """Deploy epidemic ROWA-Async, one replica per edge server."""
    return _deploy_replicated(
        "rowa_async", topology,
        lambda server_ids: build_rowa_async_cluster(
            topology.sim, topology.network, server_ids,
            max_attempts=client_max_attempts,
        ),
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


def deploy(
    protocol: str,
    topology: EdgeTopology,
    client_max_attempts: Optional[int] = None,
    **dq_fields: Any,
) -> Deployment:
    """Deploy *protocol* on *topology*: the one path every runner takes.

    *dq_fields* reach the two dual-quorum deployers and are dropped for
    the four single-tier ones.  The deployer is looked up in
    ``PROTOCOL_DEPLOYERS`` at call time, so a wrapped registry entry is
    the one that runs.
    """
    if protocol not in DUAL_QUORUM:
        dq_fields = {}
    return PROTOCOL_DEPLOYERS[protocol](
        topology, client_max_attempts=client_max_attempts, **dq_fields
    )


@contextmanager
def deployed(
    sim: Simulator,
    protocol: str,
    topology: EdgeTopologyConfig,
    client_max_attempts: Optional[int] = None,
    **dq_fields: Any,
) -> Iterator[Deployment]:
    """A runner's world: build ``EdgeTopology(sim, topology)``, yield
    :func:`deploy`'s deployment of *protocol* on it, and on every exit,
    normal or raised, close the simulator and then the network, so the
    finished world is freed by reference count, not by the next full
    garbage-collection pass (DESIGN.md §4)."""
    edge = EdgeTopology(sim, topology)
    try:
        yield deploy(protocol, edge, client_max_attempts, **dq_fields)
    finally:
        sim.close()
        edge.network.close()
