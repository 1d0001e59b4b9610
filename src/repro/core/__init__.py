"""The paper's primary contribution: dual-quorum replication.

* :mod:`~repro.core.dqvl` — dual quorum with volume leases (Section 3.2);
  the lease-free protocol of Section 3.1 is the same nodes under
  :func:`~repro.core.config.basic_dq_config` (an infinite volume lease,
  no keeper);
* :mod:`~repro.core.leases` — volume-lease/epoch/delayed-invalidation
  state machines;
* :mod:`~repro.core.volumes` — object → volume assignment;
* :mod:`~repro.core.cluster` — one-call deployment builders, whose
  ``client()`` is a :class:`~repro.protocols.register.RegisterClient`
  reading on the OQS and writing on the IQS;
* :mod:`~repro.core.atomic` — the same client with atomic reads.
"""

from .atomic import DqvlAtomicClient
from .cluster import DqvlCluster, build_basic_dq_cluster, build_dqvl_cluster
from .config import DqvlConfig, basic_dq_config
from .dqvl import DqvlIqsNode, DqvlOqsNode
from .leases import (
    AdaptiveObjectLeasePolicy,
    DelayedInval,
    IqsLeaseTable,
    ObjectLeaseTable,
    OqsLeaseView,
    VolumeLeaseGrant,
)
from .volumes import ExplicitVolumeMap, HashVolumeMap, SingleVolumeMap, VolumeMap

__all__ = [
    "DqvlConfig",
    "basic_dq_config",
    "DqvlAtomicClient",
    "DqvlIqsNode",
    "DqvlOqsNode",
    "DqvlCluster",
    "build_dqvl_cluster",
    "build_basic_dq_cluster",
    "IqsLeaseTable",
    "ObjectLeaseTable",
    "AdaptiveObjectLeasePolicy",
    "OqsLeaseView",
    "DelayedInval",
    "VolumeLeaseGrant",
    "VolumeMap",
    "HashVolumeMap",
    "ExplicitVolumeMap",
    "SingleVolumeMap",
]
