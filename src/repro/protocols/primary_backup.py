"""Primary/backup replication (Alsberg & Day).

One designated **primary** orders all operations; **backups** hold
replicas for durability and read-only failover is *not* modelled (a
backup serving reads without coordination would break the consistency
guarantee this baseline is meant to represent).

* **read** — forwarded to the primary; one round trip to wherever the
  primary lives (a WAN hop for most edge clients — the reason DQVL beats
  this baseline by >6x on read latency in Figure 6(a)).
* **write** — one round trip to the primary.  The primary applies the
  write, acknowledges, and propagates the update to the backups in the
  background.  This matches the paper's accounting ("only one round trip
  is needed for primary/backup and ROWA") and the classic primary-copy
  scheme in which the primary is the single source of truth and the
  backups trail it.

Because the primary serializes everything, clients observe atomic (and
therefore regular) semantics while the primary is reachable; when it is
not, the service is simply unavailable (no failover protocol — the paper
treats primary-election machinery as out of scope and its availability
model charges primary/backup accordingly).
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..sim.kernel import Simulator
from ..sim.messages import Message
from ..sim.network import Network
from ..types import LogicalClock
from .base import ReplicaCluster, StoreServer
from .register import SingleReplicaClient

__all__ = ["PrimaryServer", "BackupServer", "build_primary_backup_cluster"]


class PrimaryServer(StoreServer):
    """The primary: orders writes, serves reads, feeds the backups."""

    def __init__(self, sim, network, node_id, backup_ids: Sequence[str], clock=None) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.backup_ids = list(backup_ids)
        self._counter = 0
        self.updates_propagated = 0

    on_pb_read = StoreServer.serve_read

    def on_pb_write(self, msg: Message) -> None:
        self.writes_served += 1
        self._counter += 1
        lc = LogicalClock(self._counter, self.node_id)
        obj, value = msg.payload["obj"], msg.payload["value"]
        self.store.apply(obj, value, lc)
        self.reply(msg, payload={"obj": obj, "lc": lc})
        # Background propagation: one update message per backup, no ack
        # awaited (the primary remains the authority for reads).
        for backup in self.backup_ids:
            self.updates_propagated += 1
            self.send(backup, "pb_sync", {"obj": obj, "value": value, "lc": lc})


class BackupServer(StoreServer):
    """A backup: applies the primary's update stream."""

    def on_pb_sync(self, msg: Message) -> None:
        self.store.apply(msg.payload["obj"], msg.payload["value"], msg.payload["lc"])


#: (read, write) message kinds of the single-replica client
KINDS = ("pb_read", "pb_write")


def build_primary_backup_cluster(
    sim: Simulator,
    network: Network,
    server_ids: Sequence[str],
    primary_id: Optional[str] = None,
    rpc_timeout_ms: float = 2000.0,
    max_attempts: Optional[int] = None,
) -> ReplicaCluster:
    """Build a primary/backup deployment; the first id is the primary
    unless *primary_id* says otherwise.  The cluster's ``servers`` are
    the primary, then the backups."""
    server_ids = list(server_ids)
    primary_id = primary_id or server_ids[0]
    backup_ids = [s for s in server_ids if s != primary_id]
    primary = PrimaryServer(sim, network, primary_id, backup_ids)
    backups = [BackupServer(sim, network, node_id) for node_id in backup_ids]

    def make_client(node_id: str, prefer: Optional[str]) -> SingleReplicaClient:
        # `prefer` is ignored: primary/backup cannot exploit locality —
        # every request goes to the primary, which is exactly the
        # behaviour Figure 7(b) demonstrates.
        return SingleReplicaClient(sim, network, node_id, primary_id, (), KINDS,
                                   rpc_timeout_ms, max_attempts)

    return ReplicaCluster([primary] + backups, make_client)
