"""ROWA-Async: epidemic replication with local reads and writes.

The weakly consistent baseline (Bayou-style).  Both operations complete
at the client's nearest replica in a single LAN round trip:

* **read** — served from the local replica's current state, stale or not;
* **write** — applied locally, acknowledged immediately, then propagated
  asynchronously: an eager best-effort push to every peer, backed by
  periodic **anti-entropy** sessions (push-pull digests with a random
  peer) that heal losses and partitions.

This is the protocol family whose latency/availability DQVL aims to
match — *without* inheriting its weakness: reads here can return stale
data with **no staleness bound whatsoever**, and the consistency checker
(:mod:`repro.consistency`) demonstrates concrete regular-semantics
violations under cross-node access (see the consistency-audit example).

Conflict resolution is last-writer-wins on (local-clock, node-id)
timestamps, as in the paper's epidemic references.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..sim.kernel import Simulator
from ..sim.messages import Message
from ..sim.network import Network
from ..types import ZERO_LC, LogicalClock
from .base import ReplicaCluster, StoreServer, lamport_from_clock
from .register import SingleReplicaClient

__all__ = ["RowaAsyncServer", "build_rowa_async_cluster"]


class RowaAsyncServer(StoreServer):
    """An epidemic replica: local apply, eager push, anti-entropy."""

    def __init__(
        self,
        sim,
        network,
        node_id,
        peer_ids: Sequence[str],
        gossip_interval_ms: float = 1000.0,
        eager_push: bool = True,
        clock=None,
    ) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.peer_ids = [p for p in peer_ids if p != node_id]
        self.gossip_interval_ms = gossip_interval_ms
        self.eager_push = eager_push
        self._counter = 0
        self.gossip_rounds = 0
        self.updates_pushed = 0
        if self.peer_ids and gossip_interval_ms > 0:
            # Desynchronise gossip across replicas.
            self.after(self.sim.rng.uniform(0, gossip_interval_ms), self._gossip_tick)

    # -- client operations ---------------------------------------------------

    on_ra_read = StoreServer.serve_read

    def on_ra_write(self, msg: Message) -> None:
        self.writes_served += 1
        self._counter += 1
        lc = lamport_from_clock(self.clock.now(), self.node_id)
        obj, value = msg.payload["obj"], msg.payload["value"]
        _, current = self.store.get(obj)
        if lc <= current:
            lc = current.next(self.node_id)
        self.store.apply(obj, value, lc)
        self.reply(msg, payload={"obj": obj, "lc": lc})
        if self.eager_push:
            for peer in self.peer_ids:
                self.updates_pushed += 1
                self.send(peer, "ra_update", {"obj": obj, "value": value, "lc": lc})

    # -- epidemic propagation ---------------------------------------------------

    def on_ra_update(self, msg: Message) -> None:
        self.store.apply(msg.payload["obj"], msg.payload["value"], msg.payload["lc"])

    def _gossip_tick(self) -> None:
        if self.peer_ids:
            peer = self.sim.rng.choice(self.peer_ids)
            self.gossip_rounds += 1
            digest = {obj: lc for obj, (value, lc) in self.store.items()}
            self.send(peer, "ra_digest", {"digest": digest})
        self.after(self.gossip_interval_ms, self._gossip_tick)

    def on_ra_digest(self, msg: Message) -> None:
        """Anti-entropy, responder side: push what the initiator lacks and
        ask for what we lack."""
        digest: Dict[str, LogicalClock] = msg.payload["digest"]
        want: List[str] = []
        for obj, their_lc in digest.items():
            _, ours = self.store.get(obj)
            if their_lc > ours:
                want.append(obj)
        for obj, (value, lc) in list(self.store.items()):
            if lc > digest.get(obj, ZERO_LC):
                self.updates_pushed += 1
                self.send(msg.src, "ra_update", {"obj": obj, "value": value, "lc": lc})
        if want:
            self.send(msg.src, "ra_pull", {"objects": want})

    def on_ra_pull(self, msg: Message) -> None:
        for obj in msg.payload["objects"]:
            value, lc = self.store.get(obj)
            if lc > ZERO_LC or obj in self.store:
                self.updates_pushed += 1
                self.send(msg.src, "ra_update", {"obj": obj, "value": value, "lc": lc})


#: (read, write) message kinds of the single-replica client
KINDS = ("ra_read", "ra_write")


def build_rowa_async_cluster(
    sim: Simulator,
    network: Network,
    server_ids: Sequence[str],
    gossip_interval_ms: float = 1000.0,
    eager_push: bool = True,
    rpc_timeout_ms: float = 2000.0,
    max_attempts: Optional[int] = None,
) -> ReplicaCluster:
    """Build an epidemic (ROWA-Async) deployment over *server_ids*.

    A client reads and writes its preferred replica (the first one when
    it has no preference) and, after a timeout, fails over to a random
    other replica.
    """
    server_ids = list(server_ids)
    servers = [
        RowaAsyncServer(
            sim, network, node_id, server_ids,
            gossip_interval_ms=gossip_interval_ms, eager_push=eager_push,
        )
        for node_id in server_ids
    ]

    def make_client(node_id: str, prefer: Optional[str]) -> SingleReplicaClient:
        return SingleReplicaClient(sim, network, node_id, prefer or server_ids[0],
                                   server_ids, KINDS, rpc_timeout_ms, max_attempts)

    return ReplicaCluster(servers, make_client)
