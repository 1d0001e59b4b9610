"""Online protocol-invariant checking for chaos runs.

The history checker (:func:`~repro.consistency.regular.check_regular`)
judges *observable* behaviour after the fact; this monitor watches
*internal* protocol state during the run, catching bugs whose stale
reads happen not to materialise in a particular history:

``lease_serve``
    No DQVL read hit may be served without a fully valid IQS read
    quorum: for a quorum of IQS servers, the volume lease is unexpired,
    the object lease is present, marked valid, in the volume's current
    epoch, and itself unexpired (the paper's Condition C).  Checked at
    serve time — on the network tap, as the node sends a ``hit`` read
    reply, which the hit path does in the step that decided the hit —
    but re-derived **independently from the raw lease-view fields**
    (``OqsLeaseView.raw_rows``) — a weakened decision path (e.g. an
    expiry check compiled out) is caught because the raw expiry times
    still tell the truth.

``epoch_monotonic``
    Volume-lease epochs never regress — granter-side per
    (volume, OQS node), holder-side per (volume, IQS server).  Holder
    baselines reset when the node crash-recovers (volatile recovery
    legally discards the view).

``lc_monotonic``
    Per-replica logical clocks never regress: the IQS/majority global
    clock, the IQS per-object last-write clock, and every versioned
    store's per-key clock (stores model stable storage, so their
    baselines survive crashes).

Monitoring is *passive*: it reads state, never mutates it, and attaches
by tapping the network (sampling piggy-backs on traffic, so it stops
when the workload stops and a final :meth:`InvariantMonitor.check_now`
closes the run).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, itemgetter
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from ..core.dqvl import DqvlIqsNode, DqvlOqsNode
from ..core.leases import OqsLeaseView
from ..sim.kernel import Simulator

__all__ = ["InvariantViolation", "InvariantMonitor"]

#: stop recording beyond this many violations (a broken run can violate
#: on every read; the report needs the pattern, not a million copies)
MAX_VIOLATIONS = 200

#: the epoch of a granter record / of a holder ``(expires, epoch)`` pair
_GRANTER_EPOCH = attrgetter("epoch")
_HOLDER_EPOCH = itemgetter(1)


def _regressions(row: Mapping[str, Any], base: Dict[str, Any]) -> List[Tuple[str, Any, Any]]:
    """``(key, baseline, value)`` for each entry of a changed *row* below
    its baseline in *base*, in *row* order; *base* then takes *row* (a
    key that left *row* keeps its baseline).  Callers skip an unchanged
    row with one C-level subset test, ``row.items() <= base.items()``,
    and call this only when it fails."""
    regressed = [(key, base[key], value) for key, value in row.items()
                 if key in base and value < base[key]]
    base.update(row)
    return regressed


@dataclass(frozen=True)
class InvariantViolation:
    """One observed invariant breach."""

    time: float
    node: str
    invariant: str
    detail: str

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "time": self.time,
            "node": self.node,
            "invariant": self.invariant,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        return f"[{self.time:.1f} ms] {self.node}: {self.invariant}: {self.detail}"


class TappingMonitor:
    """The wiring both monitors share: the watched nodes, the watched
    OQS nodes by id, and ``_on_message`` on the network tap."""

    _nodes: Sequence[Any] = ()
    _oqs_nodes: Dict[str, DqvlOqsNode] = {}

    def attach(self, network, nodes: List[Any]) -> None:
        """Start watching *nodes* (once, after the deployment is built).
        ``Network.close`` drops the tap."""
        self._nodes = list(nodes)
        self._oqs_nodes = {
            n.node_id: n for n in nodes if isinstance(n, DqvlOqsNode)
        }
        network.add_tap(self._on_message)


class InvariantMonitor(TappingMonitor):
    """Watches protocol nodes for invariant violations during a run."""

    def __init__(
        self,
        sim: Simulator,
        sample_interval_ms: float = 100.0,
        max_violations: int = MAX_VIOLATIONS,
    ) -> None:
        self.sim = sim
        self.sample_interval_ms = sample_interval_ms
        #: recording cap; the mc explorer lowers this to 1 because it
        #: only needs "does this schedule violate?", not the pattern
        self.max_violations = max_violations
        self.violations: List[InvariantViolation] = []
        self.samples_taken = 0
        self._last_sample = float("-inf")
        #: ``(check, node)`` per watched node, its kind decided in attach
        self._checks: List[Tuple[Callable[[Any, Any], None], Any]] = []
        # monotonicity baselines: one row per node (per node and volume
        # for epochs), keyed like the row it is compared with
        self._iqs_lc: Dict[str, Any] = {}
        self._iqs_obj_lc: Dict[str, Dict[str, Any]] = {}
        self._iqs_epochs: Dict[str, Dict[str, Dict[str, int]]] = {}
        #: the view each node's holder baselines came from: held, so a
        #: replacement is told by ``is``, never by a reusable ``id()``
        self._oqs_views: Dict[str, OqsLeaseView] = {}
        self._oqs_epochs: Dict[str, Dict[str, Dict[str, int]]] = {}
        self._store_lc: Dict[str, Dict[str, Any]] = {}
        self._server_lc: Dict[str, Any] = {}
        self._crash_counts: Dict[str, int] = {}

    def attach(self, network, nodes: List[Any]) -> None:
        super().attach(network, nodes)
        # unbound, so the monitor holds no reference cycle to itself
        self._checks = [
            (InvariantMonitor._check_iqs if isinstance(node, DqvlIqsNode)
             else InvariantMonitor._check_oqs if isinstance(node, DqvlOqsNode)
             else InvariantMonitor._check_store_server, node)
            for node in self._nodes
        ]

    def _on_message(self, message) -> None:
        if message.kind == "dq_read_reply" and message.payload["hit"]:
            node = self._oqs_nodes.get(message.src)
            if node is not None:
                self._check_lease_serve(node, message.payload["obj"])
        if self.sim.now - self._last_sample >= self.sample_interval_ms:
            self.check_now()

    # -- recording ---------------------------------------------------------

    def record(self, node: str, invariant: str, detail: str) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(
            InvariantViolation(self.sim.now, node, invariant, detail)
        )

    # -- the lease-serve invariant ----------------------------------------

    def _check_lease_serve(self, node: DqvlOqsNode, obj: str) -> None:
        """Re-derive Condition C from the raw lease view at serve time."""
        view = node.view
        volume = node.volume_of(obj)
        now = node.clock.now()
        valid_servers = set()
        reasons: List[str] = []
        for i, vol_expiry, vol_epoch, lease in view.raw_rows(volume, node.iqs.nodes, obj):
            if vol_expiry <= now:
                reasons.append(f"{i}: volume lease expired at {vol_expiry:.1f}")
                continue
            if lease is None:
                reasons.append(f"{i}: no object lease")
                continue
            if not lease.valid:
                reasons.append(f"{i}: object invalidated (lc={lease.lc})")
                continue
            if lease.epoch != vol_epoch:
                reasons.append(
                    f"{i}: epoch mismatch (obj={lease.epoch}, vol={vol_epoch})"
                )
                continue
            if lease.expires <= now:
                reasons.append(f"{i}: object lease expired at {lease.expires:.1f}")
                continue
            valid_servers.add(i)
        if not node.iqs.is_read_quorum(valid_servers):
            self.record(
                node.node_id,
                "lease_serve",
                f"read hit on {obj!r} without a fully valid IQS read quorum "
                f"(valid: {sorted(valid_servers)}; " + "; ".join(reasons) + ")",
            )

    # -- monotonicity sampling --------------------------------------------

    def check_now(self) -> None:
        """Sample every watched node's monotonic state."""
        self._last_sample = self.sim.now
        self.samples_taken += 1
        for check, node in self._checks:
            check(self, node)

    def _check_iqs(self, node: DqvlIqsNode) -> None:
        name = node.node_id
        count = node._crash_count
        if self._crash_counts.get(name, 0) != count:
            # IQS state is modelled as stable storage today, but only the
            # clocks' monotonicity across *uninterrupted* execution is the
            # protocol invariant; re-baseline after a restart.
            self._iqs_lc.pop(name, None)
            self._iqs_obj_lc.pop(name, None)
        self._crash_counts[name] = count
        prev = self._iqs_lc.get(name)
        if prev is not None and node.logical_clock < prev:
            self.record(
                name, "lc_monotonic",
                f"global logical clock regressed: {prev} -> {node.logical_clock}",
            )
        self._iqs_lc[name] = node.logical_clock
        lcs, base = node._last_write_lc, self._iqs_obj_lc.setdefault(name, {})
        if not lcs.items() <= base.items():
            for obj, prev, lc in _regressions(lcs, base):
                self.record(
                    name, "lc_monotonic",
                    f"lastWriteLC[{obj!r}] regressed: {prev} -> {lc}",
                )
        # granter-side epochs only ever advance (never reset, even by GC)
        bases = self._iqs_epochs.setdefault(name, {})
        for volume, row in node.leases.rows():
            epochs = dict(zip(row, map(_GRANTER_EPOCH, row.values())))
            base = bases.setdefault(volume, {})
            if epochs.items() <= base.items():
                continue
            for oqs, prev, epoch in _regressions(epochs, base):
                self.record(
                    name, "epoch_monotonic",
                    f"granter epoch for {(volume, oqs)} regressed: {prev} -> {epoch}",
                )

    def _check_oqs(self, node: DqvlOqsNode) -> None:
        name = node.node_id
        view = node.view
        if self._oqs_views.get(name) is not view:
            # volatile recovery replaced the view: start fresh baselines
            self._oqs_views[name] = view
            self._oqs_epochs[name] = {}
        bases = self._oqs_epochs[name]
        for volume, row in view.volume_rows():
            epochs = dict(zip(row, map(_HOLDER_EPOCH, row.values())))
            base = bases.setdefault(volume, {})
            if epochs.items() <= base.items():
                continue
            for iqs, prev, epoch in _regressions(epochs, base):
                self.record(
                    name, "epoch_monotonic",
                    f"holder epoch for {(volume, iqs)} regressed: {prev} -> {epoch}",
                )

    def _check_store_server(self, node) -> None:
        name = node.node_id
        store = getattr(node, "store", None)
        if store is not None:
            # stable storage: baselines survive crash/recovery on purpose
            lcs = {obj: lc for obj, (_value, lc) in store.items()}
            base = self._store_lc.setdefault(name, {})
            if not lcs.items() <= base.items():
                for obj, prev, lc in _regressions(lcs, base):
                    self.record(
                        name, "lc_monotonic",
                        f"store clock for {obj!r} regressed: {prev} -> {lc}",
                    )
        server_lc = getattr(node, "logical_clock", None)
        if server_lc is not None:
            prev = self._server_lc.get(name)
            if prev is not None and server_lc < prev:
                self.record(
                    name, "lc_monotonic",
                    f"server logical clock regressed: {prev} -> {server_lc}",
                )
            self._server_lc[name] = server_lc

    # -- reporting ---------------------------------------------------------

    def report(self) -> List[Dict[str, Any]]:
        """Violations as sorted, JSON-ready dicts (deterministic)."""
        ordered = sorted(
            self.violations, key=lambda v: (v.time, v.node, v.invariant, v.detail)
        )
        return [v.to_json_obj() for v in ordered]
