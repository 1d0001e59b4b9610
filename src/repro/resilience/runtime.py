"""Per-node resilience runtime: detector + dedicated RNG streams.

One :class:`NodeResilience` instance is attached to each node that
issues quorum calls (dual-quorum store clients and OQS nodes).  It
bundles the node's failure detector with the two randomized policies
the resilience layer adds — suspect-avoiding quorum selection and hedge
target choice — each drawing from its own string-seeded stream
(``resil-select:{seed}:{node_id}`` and ``resil-hedge:…``), so the
streams are independent of each other: adding a hedge cannot shift
which quorum the next retransmission samples.  A timed-out round backs
off on QRPC's deterministic ladder, as it does without the layer.

The one draw that stays on the simulator's shared ``sim.rng`` is the
*favoured* draw (QRPC's ``favour=``, DQVL's held volume leases): the
quorum is drawn exactly as without resilience, from the favoured set
minus suspects, and suspected members are then swapped out.  Every
other resilience draw leaves ``sim.rng`` alone.

CPython seeds ``random.Random`` from strings via SHA-512, so these
streams are stable across processes and platforms regardless of
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, Optional, Set

from .detector import FailureDetector

__all__ = ["NodeResilience"]


class NodeResilience:
    """Failure detector plus resilience policy state for one node."""

    def __init__(self, sim, node_id: str) -> None:
        self.sim = sim
        self.node_id = node_id
        self.detector = FailureDetector()
        seed = sim.seed
        self._select_rng = random.Random(f"resil-select:{seed}:{node_id}")
        self._hedge_rng = random.Random(f"resil-hedge:{seed}:{node_id}")
        #: observability counters
        self.hedges_sent = 0
        self.adaptive_rounds = 0

    # -- timeouts ------------------------------------------------------------

    def round_timeout(self, fallback: float, cap: float) -> float:
        """First-round timeout: adaptive when the detector has enough
        RTT samples, else the configured *fallback*."""
        timeout = self.detector.timeout_for(fallback, cap)
        if timeout != min(fallback, cap):
            self.adaptive_rounds += 1
        return timeout

    # -- quorum selection ----------------------------------------------------

    def sample_quorum(self, system, mode: str, prefer: Optional[str] = None,
                      favour: Optional[Set[str]] = None) -> FrozenSet[str]:
        """A minimal quorum biased away from suspected replicas.

        Samples normally (from the dedicated selection stream, *not*
        ``sim.rng``) — or, given a *favour* set, draws a read quorum
        overlapping its unsuspected members from ``sim.rng`` — then
        greedily swaps suspected members for healthy non-members while
        the quorum property is preserved.  A suspected *prefer* target
        is dropped — the local replica loses its first-hop privilege
        while the detector distrusts it.
        """
        suspects = self.detector.suspects
        if prefer in suspects:
            prefer = None
        if favour is not None:
            quorum = system.sample_read_quorum_biased(self.sim.rng, favour - suspects)
            is_quorum = system.is_read_quorum
        elif mode == "READ":
            quorum = system.sample_read_quorum(self._select_rng, prefer=prefer)
            is_quorum = system.is_read_quorum
        else:
            quorum = system.sample_write_quorum(self._select_rng, prefer=prefer)
            is_quorum = system.is_write_quorum
        if not suspects.isdisjoint(quorum):
            healthy_outside = sorted(set(system.nodes).difference(quorum, suspects))
            for member in sorted(quorum & suspects):
                for candidate in healthy_outside:
                    trial = (quorum - {member}) | {candidate}
                    if is_quorum(trial):
                        quorum = trial
                        healthy_outside.remove(candidate)
                        break
        return quorum

    # -- hedging -------------------------------------------------------------

    def pick_hedge(self, system, targets: FrozenSet[str],
                   replies: Dict) -> Optional[str]:
        """The backup replica for a slow round: a system member not yet
        targeted (and not already a responder), unsuspected candidates
        first.  None when every member is already in play."""
        candidates = sorted(set(system.nodes).difference(targets, replies))
        if not candidates:
            return None
        healthy = sorted(set(candidates) - self.detector.suspects)
        return self._hedge_rng.choice(healthy or candidates)
