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

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "base": (
        "VersionedStore", "StoreServer", "ReplicaCluster", "lamport_from_clock",
    ),
    "register": ("RegisterClient", "SingleReplicaClient"),
    "majority": ("MajorityServer", "build_majority_cluster"),
    "primary_backup": (
        "PrimaryServer", "BackupServer", "build_primary_backup_cluster",
    ),
    "rowa": ("RowaServer", "build_rowa_cluster"),
    "rowa_async": ("RowaAsyncServer", "build_rowa_async_cluster"),
})
