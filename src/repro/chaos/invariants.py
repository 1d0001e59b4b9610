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
from typing import Any, Dict, List, Sequence, Tuple

from ..core.dqvl import DqvlIqsNode, DqvlOqsNode
from ..sim.kernel import Simulator

__all__ = ["InvariantViolation", "InvariantMonitor"]

#: stop recording beyond this many violations (a broken run can violate
#: on every read; the report needs the pattern, not a million copies)
MAX_VIOLATIONS = 200


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
        # monotonicity baselines
        self._iqs_lc: Dict[str, Any] = {}
        self._iqs_obj_lc: Dict[Tuple[str, str], Any] = {}
        self._iqs_epochs: Dict[Tuple[str, Tuple[str, str]], int] = {}
        self._oqs_epochs: Dict[Tuple[str, Tuple[str, str]], int] = {}
        self._oqs_view_id: Dict[str, int] = {}
        self._store_lc: Dict[Tuple[str, str], Any] = {}
        self._server_lc: Dict[str, Any] = {}
        self._crash_counts: Dict[str, int] = {}

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
        for node in self._nodes:
            crashed_since = self._crash_epoch_changed(node)
            if isinstance(node, DqvlIqsNode):
                self._check_iqs(node, crashed_since)
            elif isinstance(node, DqvlOqsNode):
                self._check_oqs(node)
            else:
                self._check_store_server(node)

    def _crash_epoch_changed(self, node) -> bool:
        count = getattr(node, "_crash_count", 0)
        changed = self._crash_counts.get(node.node_id, 0) != count
        self._crash_counts[node.node_id] = count
        return changed

    def _check_iqs(self, node: DqvlIqsNode, crashed_since: bool) -> None:
        name = node.node_id
        if crashed_since:
            # IQS state is modelled as stable storage today, but only the
            # clocks' monotonicity across *uninterrupted* execution is the
            # protocol invariant; re-baseline after a restart.
            self._iqs_lc.pop(name, None)
            for key in [k for k in self._iqs_obj_lc if k[0] == name]:
                del self._iqs_obj_lc[key]
        prev = self._iqs_lc.get(name)
        if prev is not None and node.logical_clock < prev:
            self.record(
                name, "lc_monotonic",
                f"global logical clock regressed: {prev} -> {node.logical_clock}",
            )
        self._iqs_lc[name] = node.logical_clock
        for obj, lc in node._last_write_lc.items():
            key = (name, obj)
            prev = self._iqs_obj_lc.get(key)
            if prev is not None and lc < prev:
                self.record(
                    name, "lc_monotonic",
                    f"lastWriteLC[{obj!r}] regressed: {prev} -> {lc}",
                )
            self._iqs_obj_lc[key] = lc
        # granter-side epochs only ever advance (never reset, even by GC)
        for key, lease in node.leases.records():
            baseline_key = (name, key)
            prev_epoch = self._iqs_epochs.get(baseline_key)
            if prev_epoch is not None and lease.epoch < prev_epoch:
                self.record(
                    name, "epoch_monotonic",
                    f"granter epoch for {key} regressed: {prev_epoch} -> {lease.epoch}",
                )
            self._iqs_epochs[baseline_key] = lease.epoch

    def _check_oqs(self, node: DqvlOqsNode) -> None:
        name = node.node_id
        view = node.view
        if self._oqs_view_id.get(name) != id(view):
            # volatile recovery replaced the view: start fresh baselines
            self._oqs_view_id[name] = id(view)
            for key in [k for k in self._oqs_epochs if k[0] == name]:
                del self._oqs_epochs[key]
        for key, epoch in view.volume_epochs():
            baseline_key = (name, key)
            prev = self._oqs_epochs.get(baseline_key)
            if prev is not None and epoch < prev:
                self.record(
                    name, "epoch_monotonic",
                    f"holder epoch for {key} regressed: {prev} -> {epoch}",
                )
            self._oqs_epochs[baseline_key] = epoch

    def _check_store_server(self, node) -> None:
        name = node.node_id
        store = getattr(node, "store", None)
        if store is not None:
            # stable storage: baselines survive crash/recovery on purpose
            for obj, (_value, lc) in store.items():
                key = (name, obj)
                prev = self._store_lc.get(key)
                if prev is not None and lc < prev:
                    self.record(
                        name, "lc_monotonic",
                        f"store clock for {obj!r} regressed: {prev} -> {lc}",
                    )
                self._store_lc[key] = lc
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
