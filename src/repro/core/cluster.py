"""Cluster builders: wire up a dual-quorum deployment in one call.

The builders create the IQS servers, the OQS servers, and a client
factory, all attached to a caller-supplied simulator and network (so the
caller controls topology, delays, and fault injection).

The default configuration matches the paper's recommendation: the OQS
spans the given read-side nodes with **read quorum size 1** (reads are
local) and write quorum = all OQS nodes; the IQS is a **majority quorum
system** over the write-side nodes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..protocols.register import RegisterClient
from ..quorum.spec import DEFAULT_IQS_SPEC, DEFAULT_OQS_SPEC
from ..quorum.system import QuorumSystem
from ..sim.clock import DriftingClock
from ..sim.kernel import Simulator
from ..sim.network import Network
from .config import DqvlConfig, basic_dq_config
from .dqvl import DqvlIqsNode, DqvlOqsNode

__all__ = [
    "CLIENT_KINDS", "client_qrpc_config", "DqvlCluster",
    "build_dqvl_cluster", "build_basic_dq_cluster",
]

#: The service client's (read, clock read, write) message kinds: reads go
#: to the OQS, the logical-clock read and the write to the IQS.
CLIENT_KINDS = ("dq_read", "lc_read", "dq_write")


def client_qrpc_config(config: DqvlConfig) -> Dict[str, Any]:
    """The service client's QRPC retransmission schedule."""
    return {
        "initial_timeout_ms": config.qrpc_initial_timeout_ms,
        "max_timeout_ms": config.qrpc_max_timeout_ms,
        "max_attempts": config.client_max_attempts,
    }


@dataclass
class DqvlCluster:
    """Handles to a wired-up dual-quorum deployment."""

    sim: Simulator
    network: Network
    config: DqvlConfig
    iqs_system: QuorumSystem
    oqs_system: QuorumSystem
    iqs_nodes: List
    oqs_nodes: List
    #: per-node drifting clocks, handed on to clients
    clocks: Dict[str, DriftingClock] = field(repr=False, default_factory=dict)

    def client(self, node_id: str, prefer_oqs=None, prefer_iqs=None) -> RegisterClient:
        """Create a service client: reads on the OQS, writes on the IQS.

        ``prefer_oqs``/``prefer_iqs`` pin the replica included in every
        sampled quorum — typically the client's co-located OQS node.
        """
        return RegisterClient(
            self.sim, self.network, node_id, self.oqs_system, self.iqs_system,
            CLIENT_KINDS, client_qrpc_config(self.config),
            prefer=prefer_oqs, prefer_write=prefer_iqs,
            clock=self.clocks.get(node_id),
        )

    def iqs_node(self, node_id: str):
        return next(n for n in self.iqs_nodes if n.node_id == node_id)

    def oqs_node(self, node_id: str):
        return next(n for n in self.oqs_nodes if n.node_id == node_id)

    # -- aggregate statistics (used by the harness) -------------------------

    @property
    def total_read_hits(self) -> int:
        return sum(n.read_hits for n in self.oqs_nodes)

    @property
    def total_read_misses(self) -> int:
        return sum(n.read_misses for n in self.oqs_nodes)

    @property
    def total_writes_suppressed(self) -> int:
        return sum(n.writes_suppressed for n in self.iqs_nodes)

    @property
    def total_writes_through(self) -> int:
        return sum(n.writes_through for n in self.iqs_nodes)


def _check_owq_safety(oqs_system: QuorumSystem) -> None:
    """Warn when OQS write quorums are proper subsets of the node set.

    Each IQS server independently invalidates one OQS write quorum; when
    those quorums can differ between servers, regular semantics is not
    guaranteed (DESIGN.md §7).  The full-set write quorum — implied by
    the paper's recommended read-one OQS — is always safe.
    """
    if oqs_system.write.min_size < len(oqs_system.nodes):
        warnings.warn(
            "OQS write quorums smaller than the full OQS node set allow "
            "different IQS servers to invalidate different quorums, which "
            "can violate regular semantics; see DESIGN.md. Use write "
            "quorum = all OQS nodes (e.g. the 'rowa' spec) unless you "
            "know what you are doing.",
            stacklevel=3,
        )


def build_dqvl_cluster(
    sim: Simulator,
    network: Network,
    iqs_ids: Sequence[str],
    oqs_ids: Sequence[str],
    config: Optional[DqvlConfig] = None,
    iqs_system: Optional[QuorumSystem] = None,
    oqs_system: Optional[QuorumSystem] = None,
    clocks: Optional[Dict[str, DriftingClock]] = None,
) -> DqvlCluster:
    """Build a DQVL deployment.

    Parameters
    ----------
    iqs_ids / oqs_ids:
        Node ids for the two quorum systems.  They may overlap logically
        (an edge server hosting both roles) but each id is one simulated
        process; co-location is modelled with zero-delay network links.
    iqs_system / oqs_system:
        Override the quorum constructions outright; otherwise the
        config's ``iqs_spec``/``oqs_spec`` decide (defaults: majority
        IQS, read-one/write-all OQS).  Either way the system is built by
        :meth:`~repro.quorum.spec.QuorumSpec.build`, the single quorum
        construction point.
    clocks:
        Optional per-node drifting clocks (keyed by node id).
    """
    config = config or DqvlConfig()
    iqs_system = iqs_system or (config.iqs_spec or DEFAULT_IQS_SPEC).build(iqs_ids)
    oqs_system = oqs_system or (config.oqs_spec or DEFAULT_OQS_SPEC).build(oqs_ids)
    _check_owq_safety(oqs_system)
    clocks = clocks or {}

    iqs_nodes = [
        DqvlIqsNode(sim, network, node_id, oqs_system, config, clock=clocks.get(node_id))
        for node_id in iqs_ids
    ]
    oqs_nodes = [
        DqvlOqsNode(sim, network, node_id, iqs_system, config, clock=clocks.get(node_id))
        for node_id in oqs_ids
    ]
    return DqvlCluster(
        sim, network, config, iqs_system, oqs_system, iqs_nodes, oqs_nodes,
        clocks=clocks,
    )


def build_basic_dq_cluster(
    sim: Simulator,
    network: Network,
    iqs_ids: Sequence[str],
    oqs_ids: Sequence[str],
    config: Optional[DqvlConfig] = None,
    **kwargs,
) -> DqvlCluster:
    """Build a basic (lease-free) dual-quorum deployment (Section 3.1):
    DQVL nodes under :func:`~repro.core.config.basic_dq_config`; other
    parameters as for :func:`build_dqvl_cluster`."""
    return build_dqvl_cluster(
        sim, network, iqs_ids, oqs_ids,
        basic_dq_config(config or DqvlConfig()), **kwargs,
    )
