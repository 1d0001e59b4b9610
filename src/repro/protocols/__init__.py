"""Baseline replication protocols the paper compares DQVL against, and
the two service clients every protocol (DQVL included) runs on.

All protocols run on the same simulation substrate and expose the same
client interface (``read``/``write`` generators), so the harness can
swap protocols under identical workloads and topologies:

* :mod:`~repro.protocols.register` — :class:`RegisterClient` (QRPC reads
  on one quorum system, clock-stamped QRPC writes on another: dqvl,
  basic_dq, majority, ROWA) and :class:`SingleReplicaClient` (one
  replica per operation: primary/backup, ROWA-Async);
* :mod:`~repro.protocols.primary_backup` — one primary orders everything;
* :mod:`~repro.protocols.majority` — quorum register, one-round reads and
  two-round writes (also hosts grid-quorum deployments via a custom
  quorum system);
* :mod:`~repro.protocols.rowa` — synchronous read-one/write-all;
* :mod:`~repro.protocols.rowa_async` — epidemic, weakly consistent.

Each baseline builder returns a :class:`ReplicaCluster`: the servers
and a ``client(node_id, prefer)`` factory.
"""

from .base import ReplicaCluster, StoreServer, VersionedStore, lamport_from_clock
from .majority import MajorityServer, build_majority_cluster
from .primary_backup import BackupServer, PrimaryServer, build_primary_backup_cluster
from .register import RegisterClient, SingleReplicaClient
from .rowa import RowaServer, build_rowa_cluster
from .rowa_async import RowaAsyncServer, build_rowa_async_cluster

__all__ = [
    "VersionedStore",
    "StoreServer",
    "ReplicaCluster",
    "lamport_from_clock",
    "RegisterClient",
    "SingleReplicaClient",
    "MajorityServer",
    "build_majority_cluster",
    "PrimaryServer",
    "BackupServer",
    "build_primary_backup_cluster",
    "RowaServer",
    "build_rowa_cluster",
    "RowaAsyncServer",
    "build_rowa_async_cluster",
]
