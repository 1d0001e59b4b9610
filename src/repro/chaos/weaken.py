"""Deliberately broken protocol variants ("weakeners").

A chaos harness that only ever reports "0 violations" proves nothing —
the zero is meaningful only if the same harness demonstrably *lights up*
when the protocol is broken.  Each weakener here disables one safety
mechanism of a built DQVL deployment, in place, by rebinding a bound
method on the live node objects (``types.MethodType``), so the healthy
code path stays byte-identical and a corpus repro can flip between
healthy and weakened replay of the *same* schedule.

Weakeners are part of the corpus format: a shrunk repro records which
weakener exposed the bug, and the replay test asserts the violation
reappears under it (and disappears without it).

``ignore_volume_expiry``
    OQS nodes skip the lease-expiry check in the read-path hit test
    (everything else — renewals, invalidations, epochs — still works).
    Breaks the paper's core safety argument: an IQS server waits out the
    volume lease of an unreachable OQS node before acking a write, but
    the weakened holder keeps serving from the "expired" lease.  Only
    fires under a fault that lets a lease actually lapse (e.g. a
    partition outlasting the lease) — proactive renewal keeps a
    fault-free run clean — which makes it the canonical target for the
    schedule shrinker.  Caught by the invariant monitor
    (``lease_serve``) and, when the stale value is actually read, by
    ``check_regular``.

``ignore_object_invalidations``
    OQS nodes drop incoming object invalidations on the floor, so cached
    objects are never marked invalid.  The raw lease view itself is now
    lying, so only the *history* checker can see the bug — which is why
    the campaign runs both checkers.

``skip_write_invalidation``
    IQS servers classify every OQS node as already-invalid on writes,
    skipping the object-write-quorum invalidation round entirely.

``keeper_abandons_lapse``
    The proactive renewal keeper gives up the first time a volume lease
    lapses instead of re-acquiring it: a *liveness* bug, invisible to
    every safety oracle (the read path re-validates on demand, so no
    stale read ever happens) — it exists to light up the
    ``liveness_keeper`` oracle of :mod:`repro.mc.liveness`, which
    catches the keeper's warm exit.

``drop_vl_acks``
    OQS nodes silently drop their ``vl_ack`` messages.  Safe (the
    holder still *applies* the shipped invalidations — it just never
    acknowledges them), but the granter's delayed-invalidation queue
    can then never drain: the ``liveness_inval`` pending-forever
    oracle's target.
"""

from __future__ import annotations

import types
from typing import Callable, Dict

from ..core.dqvl import DqvlIqsNode, DqvlOqsNode
from ..types import ZERO_LC

__all__ = ["WEAKENERS", "apply_weakener"]


def _dqvl_nodes(deployment):
    cluster = getattr(deployment, "cluster", None)
    oqs = [n for n in getattr(cluster, "oqs_nodes", []) if isinstance(n, DqvlOqsNode)]
    iqs = [n for n in getattr(cluster, "iqs_nodes", []) if isinstance(n, DqvlIqsNode)]
    if not oqs or not iqs:
        raise ValueError(
            "weakeners target DQVL deployments (protocol 'dqvl', with "
            "volume leases); this deployment has no DQVL nodes"
        )
    return iqs, oqs


def ignore_volume_expiry(deployment) -> None:
    _iqs, oqs = _dqvl_nodes(deployment)
    for node in oqs:
        # Re-implements is_local_valid minus the two expiry comparisons.
        # Patching the node (not the shared view method) leaves renewal
        # and invalidation machinery fully intact.
        def is_local_valid(self, obj, volume=None):
            rows = self.view.raw_rows(
                volume or self.volume_of(obj), self.iqs.nodes, obj
            )
            valid = {
                i: lease.lc
                for i, vol_expiry, vol_epoch, lease in rows
                if vol_expiry > float("-inf")  # granted once; never checked again
                and lease is not None and lease.valid and lease.epoch == vol_epoch
            }
            if not self.iqs.is_read_quorum(valid):
                return False
            best = max(valid.values(), default=ZERO_LC)
            return best >= self.view.max_clock_seen(obj)
        node.is_local_valid = types.MethodType(is_local_valid, node)


def ignore_object_invalidations(deployment) -> None:
    _iqs, oqs = _dqvl_nodes(deployment)
    for node in oqs:
        def apply_invalidation(self, iqs_node, obj, lc):
            return None
        node.view.apply_invalidation = types.MethodType(apply_invalidation, node.view)


def skip_write_invalidation(deployment) -> None:
    iqs, _oqs = _dqvl_nodes(deployment)
    for node in iqs:
        def _classify_oqs_node(self, obj, volume, oqs_node, lc, state=None):
            return "invalid"
        node._classify_oqs_node = types.MethodType(_classify_oqs_node, node)


def keeper_abandons_lapse(deployment) -> None:
    _iqs, oqs = _dqvl_nodes(deployment)
    for node in oqs:
        # DqvlOqsNode._volume_keeper plus one line: break out the first
        # time the quorum deadline is already past (a real lapse — not
        # the never-granted initial state), abandoning a volume that
        # still has read interest.
        def _volume_keeper(self, volume):
            margin = self.config.renewal_margin_ms
            while True:
                now = self.clock.now()
                interest = self._volume_interest.get(volume, float("-inf"))
                if now - interest > self.config.interest_window_ms:
                    break
                deadline = self._quorum_deadline(volume)
                if deadline > float("-inf") and deadline <= now:
                    break  # the lapse: a healthy keeper would renew here
                if deadline - now <= margin:
                    yield from self._renew_volume_quorum(volume)
                    now = self.clock.now()
                    deadline = self._quorum_deadline(volume)
                yield self.sim.sleep(max(deadline - now - margin, 1.0))
            self._keeper_exited(volume)
        node._volume_keeper = types.MethodType(_volume_keeper, node)


def drop_vl_acks(deployment) -> None:
    _iqs, oqs = _dqvl_nodes(deployment)
    for node in oqs:
        original_send = node.send

        def send(self, dst, kind, payload=None, reply_to=None, span=None):
            if kind == "vl_ack":
                return None
            return original_send(dst, kind, payload, reply_to=reply_to, span=span)
        node.send = types.MethodType(send, node)


#: weakener registry (names are part of the corpus format — stable)
WEAKENERS: Dict[str, Callable] = {
    "ignore_volume_expiry": ignore_volume_expiry,
    "ignore_object_invalidations": ignore_object_invalidations,
    "skip_write_invalidation": skip_write_invalidation,
    "keeper_abandons_lapse": keeper_abandons_lapse,
    "drop_vl_acks": drop_vl_acks,
}


def apply_weakener(deployment, name: str) -> None:
    """Apply the named weakener to a built deployment (no-op for '')."""
    if not name:
        return
    try:
        weakener = WEAKENERS[name]
    except KeyError:
        raise KeyError(
            f"unknown weakener {name!r}; choose from {sorted(WEAKENERS)}"
        ) from None
    weakener(deployment)
