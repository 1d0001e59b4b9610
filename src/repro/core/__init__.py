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

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "config": ("DqvlConfig", "basic_dq_config"),
    "atomic": ("DqvlAtomicClient",),
    "dqvl": ("DqvlIqsNode", "DqvlOqsNode"),
    "cluster": ("DqvlCluster", "build_dqvl_cluster", "build_basic_dq_cluster"),
    "leases": (
        "IqsLeaseTable", "ObjectLeaseTable", "AdaptiveObjectLeasePolicy",
        "OqsLeaseView",
    ),
    "volumes": (
        "VolumeMap", "HashVolumeMap", "ExplicitVolumeMap", "SingleVolumeMap",
    ),
})
