"""Synchronous Read-One/Write-All (ROWA).

* **read** — one round trip to any single replica (the client's nearest,
  via ``prefer``).  Because every completed write reached *every*
  replica synchronously, any single replica is up to date.
* **write** — the value goes to **all** replicas in parallel; the write
  completes when every replica has acknowledged.  One round trip of
  latency, but unavailability of a single replica blocks all writes —
  the classic ROWA trade-off (Figure 8's write-availability cliff).

Writes are stamped with a logical clock derived from the writer's local
real-time clock (see :mod:`repro.protocols.register` for why this
preserves regular semantics under the experiments' drift bounds).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from ..quorum.spec import QuorumSpec
from ..sim.kernel import Simulator
from ..sim.messages import Message
from ..sim.network import Network
from .base import ReplicaCluster, StoreServer
from .register import RegisterClient

__all__ = ["RowaServer", "build_rowa_cluster"]


class RowaServer(StoreServer):
    """A ROWA replica."""

    on_rowa_read = StoreServer.serve_read

    def on_rowa_write(self, msg: Message) -> None:
        self.writes_served += 1
        self.store.apply(msg.payload["obj"], msg.payload["value"], msg.payload["lc"])
        self.reply(msg, payload={"obj": msg.payload["obj"], "lc": msg.payload["lc"]})


#: (read, clock read, write) message kinds of the register client: no
#: clock read, so writes are stamped from the writer's local clock
KINDS = ("rowa_read", None, "rowa_write")


def build_rowa_cluster(
    sim: Simulator,
    network: Network,
    server_ids: Sequence[str],
    qrpc_config: Optional[Dict[str, Any]] = None,
) -> ReplicaCluster:
    """Build a synchronous ROWA deployment over *server_ids*."""
    system = QuorumSpec(kind="rowa").build(server_ids)
    servers = [RowaServer(sim, network, node_id) for node_id in server_ids]

    def make_client(node_id: str, prefer: Optional[str]) -> RegisterClient:
        return RegisterClient(sim, network, node_id, system, system, KINDS,
                              qrpc_config, prefer=prefer)

    return ReplicaCluster(servers, make_client)
