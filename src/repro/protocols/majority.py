"""Majority-quorum replicated register (Gifford / Thomas).

The classic strongly consistent baseline the paper compares against:

* **read** — QRPC to a read quorum (majority by default); return the
  reply with the highest logical clock.  One wide-area round trip.
* **write** — QRPC to a read quorum to learn the highest logical clock,
  advance it, then QRPC the value to a write quorum.  Two round trips —
  the same write path as DQVL's IQS interaction, which is why Figure 6(b)
  shows their write latencies converging.

A single round-trip read gives *regular* semantics (a concurrent read
may see either side of an in-flight write at different replicas, but
always some completed-or-concurrent write).  Atomic semantics would need
a read write-back phase; the paper targets regular semantics throughout,
so none is performed here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..quorum.spec import QuorumSpec
from ..sim.kernel import Simulator
from ..sim.messages import Message
from ..sim.network import Network
from ..types import ZERO_LC
from .base import ReplicaCluster, StoreServer
from .register import RegisterClient

__all__ = ["MajorityServer", "build_majority_cluster"]


class MajorityServer(StoreServer):
    """A quorum replica: versioned store plus logical-clock bookkeeping."""

    def __init__(self, sim, network, node_id, clock=None) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.logical_clock = ZERO_LC

    def on_mq_lc(self, msg: Message) -> None:
        """Serve the highest logical clock this replica has applied."""
        self.reply(msg, payload={"lc": self.logical_clock})

    on_mq_read = StoreServer.serve_read

    def on_mq_write(self, msg: Message) -> None:
        self.writes_served += 1
        obj, lc = msg.payload["obj"], msg.payload["lc"]
        self.store.apply(obj, msg.payload["value"], lc)
        self.logical_clock = self.logical_clock.merge(lc)
        self.reply(msg, payload={"obj": obj, "lc": lc})


#: (read, clock read, write) message kinds of the register client
KINDS = ("mq_read", "mq_lc", "mq_write")


def build_majority_cluster(
    sim: Simulator,
    network: Network,
    server_ids: Sequence[str],
    qrpc_config: Optional[Dict[str, Any]] = None,
) -> ReplicaCluster:
    """Build a majority-quorum register over *server_ids*."""
    system = QuorumSpec(kind="majority").build(server_ids)
    servers = [MajorityServer(sim, network, node_id) for node_id in server_ids]

    def make_client(node_id: str, prefer: Optional[str]) -> RegisterClient:
        return RegisterClient(sim, network, node_id, system, system, KINDS,
                              qrpc_config, prefer=prefer)

    return ReplicaCluster(servers, make_client)
