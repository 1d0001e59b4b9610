"""Declarative fault windows and their installation onto a simulation.

A :class:`Fault` is one *window*: a kind, a start time, a duration, the
affected nodes/groups, and numeric parameters.  A :class:`FaultSchedule`
is a list of windows; :meth:`FaultSchedule.install` schedules each
window's start and end actions onto the simulator.  A network window
opens one :meth:`~repro.sim.network.Network.add_fault` (or
:meth:`~repro.sim.network.Network.partition`) window at its start and
closes that token with :meth:`~repro.sim.network.Network.heal` at its
end, so overlapping network windows compose: each removes exactly what
it added.  Node windows do not compose: a ``crash`` or ``slow``
window's end recovers (un-slows) its nodes even while another open
window still covers them.

Fault kinds
-----------
``crash``
    Fail-stop every node in ``nodes`` for the window; recovery invokes
    each node's ``on_recover`` hook (so e.g. ``volatile_oqs_recovery``
    amnesia is exercised).
``partition``
    Network partition into ``groups``.
``slow``
    Gray failure: each node in ``nodes`` processes incoming messages
    ``slow_ms`` late (:meth:`repro.sim.node.Node.set_slow`).  Concurrent
    slow windows on one node are last-writer-wins; the window end clears
    slow mode.
``degrade_link``
    Gray link: extra one-way delay and/or loss between ``nodes[0]`` and
    ``nodes[1]`` (both directions).
``loss`` / ``duplicate``
    Network-wide extra loss/duplication probability for the window,
    compounding independently with the base rates.
``clock_drift``
    Build-time fault: each node in ``nodes`` runs on a
    :class:`~repro.sim.clock.DriftingClock` with the given ``drift``
    (and optional ``offset``) for the *whole* run.  Not installed by
    :meth:`install` — the campaign runner applies it before traffic
    starts, because lease arithmetic bakes expiry times into state and a
    mid-run clock jump would model a fault outside the paper's system
    model (drift is bounded; steps are not).

Schedules serialise to plain JSON (:meth:`to_json_obj` /
:meth:`from_json_obj`) so shrunk repros can live in
``tests/chaos_corpus/``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from operator import methodcaller
from typing import Any, Callable, Dict, List, Tuple

from ..bounds import require
from ..sim.kernel import Simulator
from ..sim.network import Network

__all__ = ["FAULT_KINDS", "Fault", "FaultSchedule"]

FAULT_KINDS = (
    "crash",
    "partition",
    "slow",
    "degrade_link",
    "loss",
    "duplicate",
    "clock_drift",
)

#: kinds whose windows act on the network/nodes at runtime
RUNTIME_KINDS = tuple(k for k in FAULT_KINDS if k != "clock_drift")


@dataclass(frozen=True)
class Fault:
    """One fault window (see module docstring for kind semantics)."""

    kind: str
    start: float = 0.0
    duration: float = 0.0
    nodes: Tuple[str, ...] = ()
    groups: Tuple[Tuple[str, ...], ...] = ()
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        require("fault start", self.start, 0, hi_open=False)
        require("fault duration", self.duration, 0, hi_open=False)

    @property
    def end(self) -> float:
        return self.start + self.duration

    def param(self, name: str, default: float = 0.0) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default

    @staticmethod
    def make(kind: str, start: float = 0.0, duration: float = 0.0,
             nodes: Tuple[str, ...] = (), groups=(), **params: float) -> "Fault":
        """Convenience constructor taking params as keyword floats."""
        return Fault(
            kind=kind,
            start=start,
            duration=duration,
            nodes=tuple(nodes),
            groups=tuple(tuple(g) for g in groups),
            params=tuple(sorted(params.items())),
        )

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "nodes": list(self.nodes),
            "groups": [list(g) for g in self.groups],
            "params": dict(self.params),
        }

    @staticmethod
    def from_json_obj(obj: Dict[str, Any]) -> "Fault":
        return Fault.make(
            obj["kind"],
            start=float(obj.get("start", 0.0)),
            duration=float(obj.get("duration", 0.0)),
            nodes=tuple(obj.get("nodes", ())),
            groups=tuple(tuple(g) for g in obj.get("groups", ())),
            **{k: float(v) for k, v in (obj.get("params") or {}).items()},
        )

    def describe(self) -> str:
        target = ",".join(self.nodes) or "|".join(
            "+".join(g) for g in self.groups
        )
        params = " ".join(f"{k}={v:g}" for k, v in self.params)
        return (
            f"{self.kind}[{self.start:g}ms+{self.duration:g}ms]"
            + (f" {target}" if target else "")
            + (f" ({params})" if params else "")
        )


@dataclass
class FaultSchedule:
    """An ordered collection of fault windows."""

    faults: List[Fault] = field(default_factory=list)

    def add(self, fault: Fault) -> "FaultSchedule":
        self.faults.append(fault)
        return self

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self):
        return iter(self.faults)

    def sorted(self) -> "FaultSchedule":
        """A copy ordered by (start, kind, nodes) — a total order, so a
        schedule's installation order never depends on generator order."""
        return FaultSchedule(
            sorted(self.faults, key=lambda f: (f.start, f.kind, f.nodes, f.groups))
        )

    def runtime_faults(self) -> List[Fault]:
        return [f for f in self.faults if f.kind != "clock_drift"]

    def drift_faults(self) -> List[Fault]:
        return [f for f in self.faults if f.kind == "clock_drift"]

    # -- serialisation ----------------------------------------------------

    def to_json_obj(self) -> List[Dict[str, Any]]:
        return [f.to_json_obj() for f in self.faults]

    @staticmethod
    def from_json_obj(obj: List[Dict[str, Any]]) -> "FaultSchedule":
        return FaultSchedule([Fault.from_json_obj(entry) for entry in obj])

    # -- installation -----------------------------------------------------

    def install(self, sim: Simulator, network: Network) -> None:
        """Schedule every runtime fault window onto *sim*.

        Unknown node ids are skipped (a schedule generated for one
        deployment may name nodes another does not instantiate — chaos
        tooling must never crash the simulation it is stressing).
        ``clock_drift`` faults are ignored here; the campaign runner
        applies them at build time.
        """
        for fault in self.runtime_faults():
            self._install_one(sim, network, fault)

    def _install_one(self, sim: Simulator, network: Network, fault: Fault) -> None:
        if fault.kind in ("crash", "slow"):
            if fault.kind == "crash":
                begin, finish = methodcaller("crash"), methodcaller("recover")
            else:
                begin = methodcaller("set_slow", fault.param("slow_ms", 100.0))
                finish = methodcaller("clear_slow")

            def on_nodes(action: Callable) -> None:
                for node_id in fault.nodes:
                    if node_id in network.node_ids:
                        action(network.node(node_id))

            sim.schedule(fault.start, on_nodes, begin)
            sim.schedule(fault.end, on_nodes, finish)
            return

        if fault.kind == "partition":
            open_window = partial(network.partition, *fault.groups)
        elif fault.kind == "degrade_link":
            if len(fault.nodes) < 2:
                return
            a, b = fault.nodes[0], fault.nodes[1]
            open_window = partial(
                network.add_fault, [(a, b), (b, a)],
                extra_delay_ms=fault.param("extra_delay_ms"),
                loss_probability=fault.param("loss_probability"))
        elif fault.kind == "loss":
            open_window = partial(
                network.add_fault, loss_probability=fault.param("probability", 0.2))
        else:
            open_window = partial(
                network.add_fault, duplicate_probability=fault.param("probability", 0.2))
        tokens: List[int] = []

        def start() -> None:
            tokens.append(open_window())

        def end() -> None:
            if tokens:
                network.heal(tokens.pop())

        sim.schedule(fault.start, start)
        sim.schedule(fault.end, end)
