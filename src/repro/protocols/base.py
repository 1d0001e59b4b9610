"""Shared pieces for the baseline replication protocols: the replica
store and server, the real-time clock stamp, and the cluster handle.

Every baseline is driven through the clients of
:mod:`repro.protocols.register`, the same ``read``/``write`` surface as
DQVL, so the workload harness and the consistency checker drive all
protocols identically.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..sim.clock import DriftingClock
from ..sim.kernel import Simulator
from ..sim.messages import Message
from ..sim.network import Network
from ..sim.node import Node
from ..types import ZERO_LC, LogicalClock

__all__ = ["VersionedStore", "StoreServer", "ReplicaCluster", "lamport_from_clock"]


def lamport_from_clock(clock_reading: float, node_id: str) -> LogicalClock:
    """A logical clock derived from a real-time reading (microsecond
    resolution) — the timestamping scheme of the ROWA-family baselines."""
    return LogicalClock(int(clock_reading * 1000), node_id)


class VersionedStore:
    """A last-writer-wins object store keyed by logical clock."""

    def __init__(self) -> None:
        self._data: Dict[str, Tuple[Any, LogicalClock]] = {}

    def get(self, obj: str) -> Tuple[Any, LogicalClock]:
        """Current (value, clock); ``(None, ZERO_LC)`` when unwritten."""
        return self._data.get(obj, (None, ZERO_LC))

    def apply(self, obj: str, value: Any, lc: LogicalClock) -> bool:
        """Install (value, lc) if it is newer; returns True when applied."""
        _current, current_lc = self.get(obj)
        if lc > current_lc:
            self._data[obj] = (value, lc)
            return True
        return False

    def items(self):
        return self._data.items()

    def keys(self):
        return self._data.keys()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, obj: str) -> bool:
        return obj in self._data


class StoreServer(Node):
    """A replica server holding a :class:`VersionedStore`.

    Subclasses add protocol-specific handlers; the store survives
    crash/recovery (stable storage), matching the availability model in
    which an outage is an inability to communicate, not data loss.
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        clock: Optional[DriftingClock] = None,
    ) -> None:
        super().__init__(sim, network, node_id, clock=clock)
        self.store = VersionedStore()
        self.reads_served = 0
        self.writes_served = 0

    def serve_read(self, msg: Message) -> None:
        """Every baseline's read handler: reply with the stored value and
        clock of ``obj`` (subclasses bind it as their ``on_<kind>_read``)."""
        self.reads_served += 1
        obj = msg.payload["obj"]
        value, lc = self.store.get(obj)
        self.reply(msg, payload={"obj": obj, "value": value, "lc": lc})


class ReplicaCluster:
    """Handles to a single-tier deployment: its servers, in build order,
    and a client factory ``make_client(node_id, prefer)``."""

    def __init__(self, servers: List[StoreServer],
                 make_client: Callable[[str, Optional[str]], Node]) -> None:
        self.servers = servers
        self._make_client = make_client

    def server(self, node_id: str) -> StoreServer:
        return next(s for s in self.servers if s.node_id == node_id)

    def client(self, node_id: str, prefer: Optional[str] = None):
        """A service client; *prefer* names its nearest replica (which
        primary/backup, with its one primary, ignores)."""
        return self._make_client(node_id, prefer)
