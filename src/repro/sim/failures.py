"""Stochastic node outages.

The availability experiments need repeatable failure patterns.
:class:`BernoulliOutages` downs failure domains independently per epoch
with probability *p*, the stochastic model behind the paper's
availability analysis (per-node unavailability ``p = 0.01``, independent
failures).  Scheduled crash, partition and network fault windows are
:class:`repro.chaos.faults.FaultSchedule` entries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .kernel import Simulator
from .node import Node

__all__ = ["BernoulliOutages"]


class BernoulliOutages:
    """Independent per-epoch outages of failure domains.

    Time is divided into epochs of ``epoch_ms``.  At the start of each
    epoch every failure domain (a group of nodes that fail together,
    e.g. the processes sharing one host) is independently down with
    probability ``p`` for the whole epoch.  This is the discrete
    analogue of the paper's availability model (Section 4.2): node
    failures — server crashes and network failures alike — are
    independent with marginal unavailability *p*.  Pass ``[[n] for n in
    nodes]`` for one domain per node.

    Use :meth:`start` to begin injecting; outages stop after
    ``total_epochs`` epochs (or run forever when ``None``).
    """

    def __init__(
        self,
        sim: Simulator,
        domains: Sequence[Sequence[Node]],
        p: float,
        epoch_ms: float,
        total_epochs: Optional[int] = None,
    ) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("p must be in [0, 1]")
        if epoch_ms <= 0:
            raise ValueError("epoch_ms must be positive")
        self.sim = sim
        self.domains = [list(group) for group in domains]
        self.p = p
        self.epoch_ms = epoch_ms
        self.total_epochs = total_epochs
        self.epochs_run = 0
        self.outage_log: List[Tuple[float, str]] = []

    def start(self, at: float = 0.0) -> None:
        self.sim.schedule(at, self._epoch)

    def _epoch(self) -> None:
        if self.total_epochs is not None and self.epochs_run >= self.total_epochs:
            for group in self.domains:
                for node in group:
                    node.recover()
            return
        self.epochs_run += 1
        for group in self.domains:
            down = self.sim.rng.random() < self.p
            for node in group:
                if down and node.alive:
                    node.crash()
                    self.outage_log.append((self.sim.now, node.node_id))
                elif not down and not node.alive:
                    node.recover()
        self.sim.schedule(self.epoch_ms, self._epoch)
