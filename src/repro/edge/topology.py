"""The paper's edge-service topology.

Section 4.1 fixes three delays for the prototype experiment:

* **8 ms** ("LAN") between an application client and its closest edge
  server;
* **86 ms** ("WAN") between an application client and every other edge
  server;
* **80 ms** between any two edge servers.

This module models those as one-way delays between *hosts*.  Every
simulated node (an OQS server, an IQS server, a front-end service
client, an application client) is **placed** on a host; nodes sharing a
host communicate with zero delay — that is how co-location of roles on
one edge server (e.g. an OQS node, an IQS node and the front end) is
expressed, matching the paper's remark that "an IQS server could
physically be on the same node as an OQS server".

The paper assumes a constant processing delay on every edge server for
both reads and writes; since it is constant across protocols it shifts
every curve equally, and we set it to zero by default (configurable via
``processing_ms``, added per network hop at the receiving edge host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..bounds import bounded, check_bounds
from ..sim.kernel import Simulator
from ..sim.network import DelayModel, Network

__all__ = ["EdgeTopologyConfig", "EdgeDelayModel", "EdgeTopology"]


@dataclass
class EdgeTopologyConfig:
    """Topology parameters (defaults are the paper's)."""

    num_edges: int = bounded(9, 1)
    num_clients: int = bounded(3, 0)
    lan_ms: float = bounded(8.0, 0)
    client_wan_ms: float = bounded(86.0, 0)
    server_wan_ms: float = bounded(80.0, 0)
    #: constant per-message processing delay charged at edge hosts
    processing_ms: float = bounded(0.0, 0)
    #: uniform jitter added to every delay (enables reordering)
    jitter_ms: float = bounded(0.0, 0)
    #: number of geographic regions; edge servers are split into
    #: contiguous blocks of ``num_edges / regions``.  ``None`` keeps the
    #: paper's flat topology (every edge pair at ``server_wan_ms``).
    regions: Optional[int] = bounded(None, 1)
    #: edge-to-edge delay *within* a region (only with ``regions`` set)
    intra_region_ms: float = bounded(20.0, 0)

    def __post_init__(self) -> None:
        check_bounds(self)
        if self.regions is not None and self.regions > self.num_edges:
            raise ValueError("regions must be in [1, num_edges]")


class EdgeDelayModel(DelayModel):
    """Delay lookup through host placement."""

    def __init__(self, config: EdgeTopologyConfig) -> None:
        self.config = config
        self.host_of: Dict[str, str] = {}
        self.home_edge: Dict[str, str] = {}
        self.region_of: Dict[str, int] = {}

    def place(self, node_id: str, host: str) -> None:
        self.host_of[node_id] = host

    def set_home(self, client_host: str, edge_host: str) -> None:
        self.home_edge[client_host] = edge_host

    def set_region(self, host: str, region: int) -> None:
        self.region_of[host] = region

    def _host_delay(self, host_a: str, host_b: str) -> float:
        if host_a == host_b:
            return 0.0
        a_is_client = host_a.startswith("client")
        b_is_client = host_b.startswith("client")
        if a_is_client and b_is_client:
            # Application clients never talk to each other; charge the
            # worst WAN delay if someone tries.
            return self.config.client_wan_ms
        if a_is_client or b_is_client:
            client_host = host_a if a_is_client else host_b
            edge_host = host_b if a_is_client else host_a
            if self.home_edge.get(client_host) == edge_host:
                return self.config.lan_ms
            return self.config.client_wan_ms
        region_a = self.region_of.get(host_a)
        region_b = self.region_of.get(host_b)
        if region_a is not None and region_a == region_b:
            return self.config.intra_region_ms
        return self.config.server_wan_ms

    def link(self, src: str, dst: str) -> Tuple[float, float]:
        host_src = self.host_of.get(src)
        host_dst = self.host_of.get(dst)
        if host_src is None or host_dst is None:
            missing = src if host_src is None else dst
            raise KeyError(f"node {missing!r} has not been placed on a host")
        delay = self._host_delay(host_src, host_dst)
        if not host_dst.startswith("client"):
            delay += self.config.processing_ms
        return delay, self.config.jitter_ms


class EdgeTopology:
    """A simulator + network wired with the edge delay model.

    Host naming: edge servers are ``edge0..edge{n-1}``; application
    client machines are ``client0..client{m-1}``.  Client *c*'s home
    (closest) edge server is ``edge{c % num_edges}``.

    With ``config.regions`` set, edge servers are grouped into
    contiguous regional blocks (``edge0..`` in region 0, the next block
    in region 1, ...): edges in the same region talk at
    ``intra_region_ms``, cross-region pairs at ``server_wan_ms`` — the
    multi-PoP CDN geometry (PoPs within a metro area vs. across
    continents).
    """

    def __init__(self, sim: Simulator, config: Optional[EdgeTopologyConfig] = None) -> None:
        self.sim = sim
        self.config = config or EdgeTopologyConfig()
        self.delay_model = EdgeDelayModel(self.config)
        self.network = Network(sim, self.delay_model)
        for c in range(self.config.num_clients):
            self.delay_model.set_home(self.client_host(c), self.edge_host(c % self.config.num_edges))
        if self.config.regions is not None:
            for k in range(self.config.num_edges):
                self.delay_model.set_region(self.edge_host(k), self.region_of_edge(k))

    # -- host names -----------------------------------------------------------

    def edge_host(self, k: int) -> str:
        if not 0 <= k < self.config.num_edges:
            raise IndexError(f"edge index {k} out of range")
        return f"edge{k}"

    def client_host(self, c: int) -> str:
        if not 0 <= c < self.config.num_clients:
            raise IndexError(f"client index {c} out of range")
        return f"client{c}"

    def home_edge_index(self, c: int) -> int:
        """Index of client *c*'s closest edge server."""
        return c % self.config.num_edges

    def region_of_edge(self, k: int) -> int:
        """Region index of edge server *k* (0 when regions are off)."""
        if self.config.regions is None:
            return 0
        return k * self.config.regions // self.config.num_edges

    # -- placement --------------------------------------------------------------

    def place_on_edge(self, node_id: str, k: int) -> str:
        """Place a node on edge server *k*; returns the host name."""
        host = self.edge_host(k)
        self.delay_model.place(node_id, host)
        return host

    def place_on_client(self, node_id: str, c: int) -> str:
        """Place a node on application-client machine *c*."""
        host = self.client_host(c)
        self.delay_model.place(node_id, host)
        return host
