"""Configuration for the dual-quorum protocols."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Union

from ..quorum.spec import QuorumSpec
from .volumes import SingleVolumeMap, VolumeMap

__all__ = ["DqvlConfig", "basic_dq_config"]


@dataclass
class DqvlConfig:
    """Tunables for a DQVL deployment.

    Attributes
    ----------
    lease_length_ms:
        Nominal volume lease length ``L``.  The paper's central trade-off:
        short leases bound how long a write can be blocked by an
        unreachable OQS node (the write may simply wait out the lease);
        long leases reduce renewal traffic on the read path.
    max_drift:
        Clock drift bound ``maxDrift`` assumed by the lease arithmetic.
    volume_map:
        Object → volume assignment shared by every node; defaults to a
        single volume (maximal renewal amortisation).
    qrpc_initial_timeout_ms / qrpc_max_timeout_ms:
        Retransmission schedule for all QRPC interactions, per the
        paper's prototype (fresh random quorum per attempt, exponential
        interval by :data:`~repro.quorum.qrpc.BACKOFF`).
    client_max_attempts:
        Attempt budget for client-facing QRPCs; ``None`` blocks forever
        (the asynchronous model).  Availability experiments set a finite
        budget so unreachable quorums surface as rejections.
    inval_initial_timeout_ms:
        First retransmission interval for IQS→OQS invalidations.
    proactive_renewal:
        When True, OQS nodes renew volume leases shortly before expiry
        for volumes with recent read interest, keeping renewals off the
        read critical path (the paper's amortisation argument).
    renewal_margin_ms:
        How long before expiry a proactive renewal is issued; must be
        below ``lease_length_ms`` when the keeper runs (checked by
        :class:`~repro.core.dqvl.DqvlOqsNode`, so after any preset has
        been applied).
    interest_window_ms:
        How long after the last read of a volume proactive renewal keeps
        going; beyond it the volume lease is allowed to lapse.
    """

    lease_length_ms: float = 10_000.0
    max_drift: float = 0.0
    #: finite object-lease length; ``None`` = infinite callbacks (the
    #: paper's simplifying assumption, footnote 4)
    object_lease_ms: Optional[float] = None
    #: adaptive object-lease lengths (Duvvuri et al., the paper's [9]):
    #: read-hot objects earn longer leases, write-hot ones shorter
    adaptive_object_leases: bool = False
    object_lease_min_ms: float = 2_000.0
    object_lease_max_ms: float = 120_000.0
    volume_map: VolumeMap = field(default_factory=SingleVolumeMap)
    qrpc_initial_timeout_ms: float = 400.0
    qrpc_max_timeout_ms: float = 6400.0
    client_max_attempts: Optional[int] = None
    inval_initial_timeout_ms: float = 400.0
    proactive_renewal: bool = False
    renewal_margin_ms: float = 1_000.0
    interest_window_ms: float = 60_000.0
    #: when True, an OQS node that recovers from a crash comes back with
    #: an empty cache and no lease state (a process restart without
    #: stable storage).  Safe either way: an amnesiac cache simply
    #: misses and revalidates; the default (False) models stable storage.
    volatile_oqs_recovery: bool = False
    #: declarative IQS/OQS quorum shapes (spec strings, JSON dicts, or
    #: :class:`~repro.quorum.spec.QuorumSpec` objects are all accepted;
    #: normalised to specs).  ``None`` keeps the paper's defaults:
    #: majority IQS, read-one/write-all OQS.  The cluster builders bind
    #: these to the deployment's node ids via :meth:`QuorumSpec.build`;
    #: an explicitly passed ``iqs_system``/``oqs_system`` still wins.
    iqs_spec: Optional[Union[QuorumSpec, str]] = None
    oqs_spec: Optional[Union[QuorumSpec, str]] = None

    def __post_init__(self) -> None:
        if self.iqs_spec is not None:
            self.iqs_spec = QuorumSpec.parse(self.iqs_spec)
        if self.oqs_spec is not None:
            self.oqs_spec = QuorumSpec.parse(self.oqs_spec)
        if not self.lease_length_ms > 0:
            raise ValueError("lease_length_ms must be positive")
        if not 0.0 <= self.max_drift < 1.0:
            raise ValueError("max_drift must be in [0, 1)")
        if self.object_lease_ms is not None and self.object_lease_ms <= 0:
            raise ValueError("object_lease_ms must be positive (or None)")
        if self.adaptive_object_leases and self.object_lease_ms is not None:
            raise ValueError(
                "choose either a fixed object_lease_ms or adaptive leases"
            )
        if not 0 < self.object_lease_min_ms <= self.object_lease_max_ms:
            raise ValueError("need 0 < object_lease_min_ms <= object_lease_max_ms")

    @property
    def finite_object_leases(self) -> bool:
        """True when object leases expire (fixed or adaptive length)."""
        return self.object_lease_ms is not None or self.adaptive_object_leases


def basic_dq_config(config: DqvlConfig) -> DqvlConfig:
    """The basic dual-quorum protocol (Section 3.1) as a DQVL preset.

    An infinite volume lease never expires, so a write can never wait
    one out: the IQS must collect an acknowledgement from every live
    callback holder, which is §3.1's blocking write.  With nothing to
    renew, the proactive keeper is off.
    """
    return replace(config, lease_length_ms=float("inf"), proactive_renewal=False)
