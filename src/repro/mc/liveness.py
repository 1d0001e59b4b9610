"""Schedule-aware liveness oracles for controlled runs.

The explorer's original liveness check is blunt: "every client workload
finished before ``time_limit_ms``".  Plenty of livelocks hide under it —
a renewal keeper that silently abandons a volume (the read path papers
over it by renewing on demand), an invalidation that stays queued
forever because its acknowledgement is lost, a client that completes but
only after far more retry rounds than its attempt budget allows.  This
module adds three oracles that watch *how* the run made progress:

``liveness_keeper``
    The proactive renewal keeper must re-acquire after every lapse while
    the volume has read interest.  A healthy keeper loop only ever exits
    *cold* (interest window elapsed); the OQS node calls the monitor's
    ``warm_exit_hook`` on a warm exit, which is reported the moment it
    happens (streaming, no end-of-run scan).

``liveness_inval``
    No delayed invalidation stays pending forever under fair delivery.
    "Fair" is judged structurally, so the oracle cannot fire on a merely
    slow or end-truncated schedule: a violation needs (a) a queue entry
    still pending when the run ends, (b) at least
    :data:`MIN_GRANT_SHIPS` renewal grants that shipped *that exact
    entry* to the holder, (c) no such grant still in flight, and (d) no
    ``vl_ack`` from the holder still in flight.  The mc network neither
    drops nor reorders away messages (deferral only delays them), so
    "shipped and nothing in flight" means *delivered*; a healthy holder
    acknowledges every delivered shipment with a clock covering the
    entry, and a delivered ack clears it — so three delivered shipments
    with the entry still pending prove the renew/ship/apply cycle
    repeats without ever draining: a fixpoint.

``liveness_rounds``
    No client operation may take longer than its retry budget allows:
    with ``client_max_attempts`` set, an operation's wall-clock span is
    bounded by the sum of its QRPC retransmission timeouts (two
    client-facing quorum calls per op) plus lease/deferral slack.  An op
    that *completed* but exceeded the bound means some layer retried
    past the budget.  Checked over the recorded history at finalize.

Fairness assumptions are documented in DESIGN.md §13.  All three
oracles are passive and deterministic: on a healthy schedule (any
schedule the explorer generates, including adversarial deferrals) they
report nothing, which keeps corpus replays byte-identical.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..chaos.invariants import TappingMonitor
from ..core.dqvl import DqvlIqsNode
from ..quorum.qrpc import BACKOFF
from ..sim.kernel import Simulator
from ..sim.messages import Message

__all__ = ["LivenessMonitor", "MIN_GRANT_SHIPS", "rounds_bound"]

#: how many times a delayed-invalidation queue must have been shipped to
#: its holder before the pending-forever oracle may conclude the channel
#: is fair (one ship could race the run's end; three demonstrate a loop)
MIN_GRANT_SHIPS = 3

#: kinds whose replies carry a volume-lease grant (and the delayed queue)
_GRANT_REPLY_KINDS = ("vl_renew_reply", "vlobj_renew_reply")


def rounds_bound(
    max_attempts: int,
    *,
    initial_timeout_ms: float = 400.0,
    max_timeout_ms: float = 6_400.0,
    lease_length_ms: float = 400.0,
    defer_ms: float = 650.0,
    max_defer: int = 1,
) -> float:
    """Upper bound on one client op's wall-clock span (ms).

    A client op issues at most two sequential client-facing quorum calls
    (logical-clock read + write, or validate + serve), each retrying on
    the exponential QRPC schedule for at most *max_attempts* rounds.
    The final reply may additionally ride out one lease lapse and the
    controller's worst-case delivery deferrals; a fixed 1 s pad absorbs
    processing delays.
    """
    total = 0.0
    timeout = initial_timeout_ms
    for _ in range(max_attempts):
        total += min(timeout, max_timeout_ms)
        timeout *= BACKOFF
    return 2.0 * total + lease_length_ms + 2.0 * max_defer * defer_ms + 1_000.0


class LivenessMonitor(TappingMonitor):
    """Streams the keeper oracle during the run; closes the other two at
    :meth:`finalize`.  Attach once, after the deployment is built."""

    def __init__(self, sim: Simulator, *, defer_ms: float = 650.0, max_defer: int = 1) -> None:
        self.sim = sim
        self.defer_ms = defer_ms
        self.max_defer = max_defer
        self.violations: List[Dict[str, Any]] = []
        # (iqs, holder, obj, lc) -> grant replies that shipped this entry
        self._entry_ships: Dict[Tuple[str, str, str, Any], int] = {}

    def attach(self, network, nodes: List[Any]) -> None:
        super().attach(network, nodes)
        for node in self._oqs_nodes.values():
            node.warm_exit_hook = self._warm_exit

    def detach(self) -> None:
        """Unhook the OQS nodes once the run is over: no node leads back
        to the monitor, so the world holds no monitor <-> node cycle."""
        for node in self._oqs_nodes.values():
            node.warm_exit_hook = None

    def _warm_exit(self, node, volume: str) -> None:
        self.violations.append({
            "type": "liveness_keeper",
            "node": node.node_id,
            "time": self.sim.now,
            "detail": (
                f"renewal keeper for volume {volume!r} exited "
                f"while the volume still had read interest (warm exit at "
                f"{self.sim.now:.1f} ms); a healthy keeper only stops cold"
            ),
        })

    def _on_message(self, message: Message) -> None:
        if message.kind in _GRANT_REPLY_KINDS:
            for obj, lc in message.payload.get("delayed") or ():
                key = (message.src, message.dst, obj, lc)
                self._entry_ships[key] = self._entry_ships.get(key, 0) + 1

    # -- finalize-time oracles ---------------------------------------------

    def _settling_in_flight(self, iqs_node: str, holder: str) -> bool:
        """Could an undelivered message still settle this queue?

        True when a delayed-carrying grant reply (*iqs_node* → *holder*)
        or a ``vl_ack`` (*holder* → *iqs_node*) sits in the simulator's
        queues — the normal drain cycle is then merely mid-flight, not
        stuck.
        """
        for timer, fn, args in self.sim.iter_pending():
            if timer is not None and getattr(timer, "cancelled", False):
                continue
            if getattr(fn, "__name__", "") != "_deliver" or not args:
                continue
            msg = args[0]
            if not isinstance(msg, Message):
                continue
            if msg.kind == "vl_ack" and msg.src == holder and msg.dst == iqs_node:
                return True
            if (
                msg.kind in _GRANT_REPLY_KINDS
                and msg.src == iqs_node
                and msg.dst == holder
                and msg.payload.get("delayed")
            ):
                return True
        return False

    def _check_pending_invals(self) -> None:
        for iqs in (n for n in self._nodes if isinstance(n, DqvlIqsNode)):
            pending = [(volume, holder) for volume, row in iqs.leases.rows()
                       for holder, lease in row.items() if lease.delayed]
            for (volume, holder) in sorted(pending):
                queue = iqs.leases.pending_delayed(volume, holder)
                stuck = {
                    obj: lc
                    for obj, lc in queue.items()
                    if self._entry_ships.get((iqs.node_id, holder, obj, lc), 0)
                    >= MIN_GRANT_SHIPS
                }
                if not stuck:
                    continue  # never shipped enough: fairness not shown
                if self._settling_in_flight(iqs.node_id, holder):
                    continue
                ships = min(
                    self._entry_ships[(iqs.node_id, holder, obj, lc)]
                    for obj, lc in stuck.items()
                )
                self.violations.append({
                    "type": "liveness_inval",
                    "node": iqs.node_id,
                    "time": self.sim.now,
                    "detail": (
                        f"delayed invalidations {sorted(stuck)} for volume "
                        f"{volume!r} stayed pending toward {holder} despite "
                        f"each being shipped in >= {ships} delivered renewal "
                        "grants with no ack or grant left in flight — the "
                        "queue can never drain"
                    ),
                })

    def _check_rounds(self, ops, max_attempts: Optional[int], lease_length_ms: float) -> None:
        if max_attempts is None or not ops:
            return
        config = next((n.config for n in self._oqs_nodes.values()), None)
        bound = rounds_bound(
            max_attempts,
            initial_timeout_ms=getattr(config, "qrpc_initial_timeout_ms", 400.0),
            max_timeout_ms=getattr(config, "qrpc_max_timeout_ms", 6_400.0),
            lease_length_ms=lease_length_ms,
            defer_ms=self.defer_ms,
            max_defer=self.max_defer,
        )
        for op in ops:
            span = op.end - op.start
            if span > bound:
                self.violations.append({
                    "type": "liveness_rounds",
                    "node": op.client,
                    "time": op.end,
                    "detail": (
                        f"{op.kind} on {op.key!r} took {span:.0f} ms, beyond "
                        f"the {bound:.0f} ms bound implied by "
                        f"client_max_attempts={max_attempts} — some layer "
                        "retried past its budget"
                    ),
                })

    def finalize(
        self,
        ops=(),
        *,
        client_max_attempts: Optional[int] = None,
        lease_length_ms: float = 400.0,
    ) -> None:
        """Run the end-of-run oracles (pending invals, retry rounds)."""
        self._check_pending_invals()
        self._check_rounds(ops, client_max_attempts, lease_length_ms)

    def report(self) -> List[Dict[str, Any]]:
        """Violations as sorted, JSON-ready dicts (deterministic)."""
        return sorted(
            self.violations,
            key=lambda v: (v["time"], v["node"], v["type"], v["detail"]),
        )
