"""Volume-lease state machines.

This module holds the lease bookkeeping both sides of DQVL need
(Section 3.2 of the paper), factored out of the node classes so the
invariants can be unit- and property-tested in isolation:

* :class:`IqsLeaseTable` — what an IQS server i tracks about every OQS
  node j: per-volume lease expiry ``expires[v][j]``, the queue of
  **delayed invalidations** ``delayed[v][j]``, and the **epoch number**
  ``epoch[v][j]`` used to garbage-collect that queue;
* :class:`OqsLeaseView` — what an OQS node j tracks about every IQS
  server i: per-volume lease expiry and epoch, and per-object
  ``(epoch, logicalClock, valid)`` triples.

Clock-drift safety
------------------
Leases are granted for a nominal length ``L`` but the two sides book
them asymmetrically:

* the **holder** (OQS) records ``t0 + L * (1 - maxDrift)`` where ``t0``
  is its local send time of the renewal request — the paper's rule;
* the **granter** (IQS) records ``now + L * (1 + maxDrift)``.

The paper states only the holder-side correction.  With drift on *both*
clocks the holder-side correction alone is insufficient (a fast granter
clock paired with a slow holder clock lets the granter expire the lease
before the holder does, in real time); widening the granter's wait by
``(1 + maxDrift)`` restores the invariant that the granter never
considers a lease expired while the holder still considers it valid.
EXPERIMENTS.md and the property tests cover this corner.

Boundary semantics
------------------
At the exact expiry instant (``now == expires``, reachable whenever
``max_drift == 0``) the two sides deliberately disagree, each erring in
its own safe direction — the **asymmetric-conservative** boundary:

* the **granter** counts ``==`` as *unexpired*
  (:meth:`IqsLeaseTable.is_expired` and
  :meth:`ObjectLeaseTable.is_expired` use ``expires < now``): it keeps
  waiting for the holder, so a write can never complete while a holder
  could still legitimately serve the old version;
* the **holder** counts ``==`` as *expired*
  (:meth:`OqsLeaseView.volume_valid` uses ``expires > now``): it stops
  serving reads under the lease, so it never serves at an instant the
  granter might already have written off.

Both tie-breaks sacrifice one instant of availability, never safety.
The reverse assignment on either side would let a read at ``t ==
expires`` be served by a holder the granter simultaneously counts as
unable to read — exactly the regular-register violation DQVL's
Condition C exists to prevent.  ``tests/test_leases.py`` pins the
boundary at ``max_drift=0``.

Acknowledgement clocks are **inclusive** at equality: an ack carrying
logical clock ``lc`` means the holder has applied the invalidation
stamped ``lc`` itself, so :meth:`IqsLeaseTable.ack_delayed` clears
queued entries with ``pending <= lc`` and
:meth:`IqsLeaseTable.has_delayed` reports only strictly-unacknowledged
work (see the method docstrings for why the pair is consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..types import ZERO_LC, LogicalClock

__all__ = [
    "DelayedInval",
    "VolumeLeaseGrant",
    "IqsLeaseTable",
    "OqsLeaseView",
    "ObjectLeaseTable",
    "AdaptiveObjectLeasePolicy",
]


@dataclass(frozen=True)
class DelayedInval:
    """An invalidation withheld because the target's volume lease had
    expired; delivered when the target next renews the volume."""

    obj: str
    lc: LogicalClock


@dataclass(frozen=True)
class VolumeLeaseGrant:
    """The lease-bearing part of a volume renewal reply."""

    volume: str
    length_ms: float
    epoch: int
    delayed: Tuple[DelayedInval, ...]
    requestor_time: float


class _GrantedLease:
    """IQS-side per-(volume, OQS-node) record."""

    __slots__ = ("expires", "epoch", "delayed")

    def __init__(self) -> None:
        self.expires = float("-inf")
        self.epoch = 0
        self.delayed: Dict[str, LogicalClock] = {}


#: what a never-touched volume / object / node reads as (never written to)
EMPTY_ROW: Mapping = MappingProxyType({})
_NO_LEASE = _GrantedLease()
_NO_LEASE.delayed = EMPTY_ROW


def _record(rows: Dict[str, Dict[str, Any]], outer: str, inner: str, new):
    """``rows[outer][inner]``, made by ``new()`` on first touch."""
    row = rows.setdefault(outer, {})
    return row.get(inner) or row.setdefault(inner, new())


class IqsLeaseTable:
    """IQS-side per-(volume, OQS-node) lease state.

    Parameters
    ----------
    lease_length_ms:
        Nominal volume lease length ``L``.
    max_drift:
        System-wide clock drift bound ``maxDrift``.
    max_delayed:
        Queue bound: when a node's delayed-invalidation queue for a
        volume exceeds this, the epoch is advanced and the queue dropped
        (the paper's epoch-based garbage collection).
    """

    def __init__(
        self,
        lease_length_ms: float,
        max_drift: float = 0.0,
        max_delayed: int = 1000,
    ) -> None:
        if lease_length_ms <= 0:
            raise ValueError("lease_length_ms must be positive")
        if max_delayed < 1:
            raise ValueError("max_delayed must be at least 1")
        self.lease_length_ms = lease_length_ms
        self.max_drift = max_drift
        self.max_delayed = max_delayed
        # volume -> {oqs_node -> _GrantedLease}: a write fetches its
        # volume's row once and classifies every OQS node from it
        self._rows: Dict[str, Dict[str, _GrantedLease]] = {}
        self.epoch_bumps = 0

    def row(self, volume: str) -> Mapping[str, _GrantedLease]:
        """The raw read accessor: *volume*'s ``{oqs_node: record}`` row,
        each record holding ``expires`` (``-inf`` = never granted),
        ``epoch`` and the ``delayed`` queue.  Callers only read it."""
        return self._rows.get(volume, EMPTY_ROW)

    def rows(self) -> Iterable[Tuple[str, Mapping[str, _GrantedLease]]]:
        """``(volume, row)`` for every volume with a row (the oracles)."""
        return self._rows.items()

    # -- lease grants --------------------------------------------------------

    def grant(self, volume: str, node: str, now: float, requestor_time: float) -> VolumeLeaseGrant:
        """Process a volume renewal request from *node* at local time *now*.

        Returns the grant to send back (including the pending delayed
        invalidations, which are **not** cleared until acknowledged) and
        records the conservative granter-side expiry.
        """
        lease = _record(self._rows, volume, node, _GrantedLease)
        lease.expires = now + self.lease_length_ms * (1.0 + self.max_drift)
        delayed = tuple(
            DelayedInval(obj, lc) for obj, lc in sorted(lease.delayed.items())
        )
        return VolumeLeaseGrant(
            volume=volume,
            length_ms=self.lease_length_ms,
            epoch=lease.epoch,
            delayed=delayed,
            requestor_time=requestor_time,
        )

    def is_expired(self, volume: str, node: str, now: float) -> bool:
        """Granter-side check: may *node* still be reading under this lease?

        Strict ``expires < now``: at the exact boundary instant
        (``now == expires``) the granter still treats the lease as
        **live** and keeps blocking writes on the holder.  The holder
        makes the opposite call at the same instant
        (:meth:`OqsLeaseView.volume_valid` treats ``==`` as expired) —
        the asymmetric-conservative boundary documented in the module
        docstring.  Flipping this to ``<=`` would let a write complete
        at the same instant a drift-free holder may still serve the old
        version.
        """
        return self.expiry(volume, node) < now

    def expiry(self, volume: str, node: str) -> float:
        """Recorded expiry time (``-inf`` when never granted)."""
        return self.row(volume).get(node, _NO_LEASE).expires

    # -- delayed invalidations --------------------------------------------------

    def enqueue_delayed(self, volume: str, node: str, obj: str, lc: LogicalClock) -> None:
        """Queue an invalidation for delivery at *node*'s next renewal.

        Only the highest logical clock per object is retained (an
        invalidation subsumes all older ones for the same object).  If the
        queue outgrows ``max_delayed``, the epoch advances instead — the
        holder will conservatively drop all object leases for the volume.
        """
        queue = _record(self._rows, volume, node, _GrantedLease).delayed
        queue[obj] = max(queue.get(obj, ZERO_LC), lc)
        if len(queue) > self.max_delayed:
            self.bump_epoch(volume, node)

    def ack_delayed(self, volume: str, node: str, lc: LogicalClock) -> None:
        """Clear delayed invalidations covered by the holder's ack *lc*.

        Inclusive at equality (``pending <= lc``): the holder acks with
        the exact clock of a delayed invalidation it just applied from a
        renewal grant (PROTOCOL.md §6), so an ack at ``lc`` proves the
        entry stamped ``lc`` was delivered — dropping it is safe, and
        keeping it would make the queue leak its own acknowledgements.
        This is the same convention as the write path's *known invalid*
        classification ("acked an invalidation **covering** this
        clock", i.e. ``ack >= lc``, PROTOCOL.md §5): equality counts as
        covered on both sides of the exchange.
        """
        queue = self.row(volume).get(node, _NO_LEASE).delayed
        for obj in [o for o, pending in queue.items() if pending <= lc]:
            del queue[obj]

    def delayed_count(self, volume: str, node: str) -> int:
        return len(self.row(volume).get(node, _NO_LEASE).delayed)

    def pending_delayed(self, volume: str, node: str) -> Dict[str, LogicalClock]:
        """A copy of the queue (tests and tracing)."""
        return dict(self.row(volume).get(node, _NO_LEASE).delayed)

    def has_delayed(self, volume: str, node: str, obj: str, lc: LogicalClock) -> bool:
        """Is an invalidation at least as new as *lc* queued for (node, obj)?

        Inclusive at equality (``pending >= lc``): a queued entry at
        exactly *lc* already subsumes the caller's invalidation, so the
        write path may skip enqueueing a duplicate.  Note the
        asymmetry of the *questions*, not the semantics: this asks
        about the **unacknowledged queue**, :meth:`ack_delayed` about
        **acknowledged delivery**.  An ack at ``lc`` removes the entry
        at ``lc`` *and* means the holder applied it, so this method
        correctly reporting "nothing queued" afterwards is consistent —
        the pre-ack and post-ack answers describe different states, not
        a contradiction.  The regression test
        ``tests/test_leases.py::test_ack_equality_contract`` locks the
        pair.
        """
        return self.row(volume).get(node, _NO_LEASE).delayed.get(obj, ZERO_LC) >= lc

    # -- epochs -------------------------------------------------------------------

    def epoch(self, volume: str, node: str) -> int:
        return self.row(volume).get(node, _NO_LEASE).epoch

    def bump_epoch(self, volume: str, node: str) -> None:
        """Advance the epoch and drop the delayed queue (GC).

        After the bump, the next grant carries the new epoch number; the
        holder then treats every object lease under the volume as revoked,
        which is what makes dropping the queue safe.
        """
        lease = _record(self._rows, volume, node, _GrantedLease)
        lease.epoch += 1
        lease.delayed.clear()
        self.epoch_bumps += 1


class AdaptiveObjectLeasePolicy:
    """Adaptive object-lease lengths (Duvvuri et al., the paper's [9]).

    Read-hot objects earn longer leases (fewer renewals); write-hot
    objects get shorter ones (less callback state and fewer
    invalidation round trips blocked on them):

    * on a renewal that arrives within *two* lease lengths of the
      previous one — i.e. before or soon after the last lease expired,
      which is how sustained interest manifests under lazy (miss-driven)
      renewal — the object's lease length doubles (capped at ``max_ms``);
    * on a write, it halves (floored at ``min_ms``).
    """

    def __init__(self, min_ms: float, max_ms: float, initial_ms: Optional[float] = None):
        if not 0 < min_ms <= max_ms:
            raise ValueError("need 0 < min_ms <= max_ms")
        self.min_ms = min_ms
        self.max_ms = max_ms
        self.initial_ms = initial_ms if initial_ms is not None else min_ms
        if not min_ms <= self.initial_ms <= max_ms:
            raise ValueError("initial_ms must lie within [min_ms, max_ms]")
        self._length: Dict[str, float] = {}
        self._last_renewal: Dict[str, float] = {}

    def length_for(self, obj: str) -> float:
        """Current lease length for *obj*."""
        return self._length.get(obj, self.initial_ms)

    def on_renewal(self, obj: str, now: float) -> float:
        """Record a renewal; returns the length to grant."""
        length = self.length_for(obj)
        last = self._last_renewal.get(obj)
        if last is not None and now - last <= 2.0 * length:
            length = min(length * 2.0, self.max_ms)
        self._length[obj] = length
        self._last_renewal[obj] = now
        return length

    def on_write(self, obj: str) -> None:
        """Record a write; shortens the object's future leases."""
        self._length[obj] = max(self.length_for(obj) / 2.0, self.min_ms)


class ObjectLeaseTable:
    """IQS-side finite object-lease expiry per (object, OQS node).

    With finite object leases an IQS server may classify an OQS node as
    unable to read an object simply because its *object* lease lapsed —
    no invalidation, no delayed-invalidation queue entry: the space and
    network optimisation of the paper's footnote 4.
    """

    def __init__(self, max_drift: float = 0.0) -> None:
        self.max_drift = max_drift
        self._rows: Dict[str, Dict[str, float]] = {}  # obj -> {node -> expires}

    def grant(self, obj: str, node: str, now: float, length_ms: float) -> float:
        """Record a grant (granter-side conservative); returns length."""
        self._rows.setdefault(obj, {})[node] = now + length_ms * (1.0 + self.max_drift)
        return length_ms

    def row(self, obj: str) -> Mapping[str, float]:
        """Raw read accessor: *obj*'s ``{oqs_node: expires}`` row."""
        return self._rows.get(obj, EMPTY_ROW)

    def is_expired(self, obj: str, node: str, now: float) -> bool:
        """Granter-side check: strict ``<``, so ``now == expires`` still
        counts as held — same asymmetric-conservative boundary as
        :meth:`IqsLeaseTable.is_expired` (module docstring); the holder
        side (:class:`OqsLeaseView` ``lease.expires > now``) drops the
        object at that instant."""
        return self.expiry(obj, node) < now

    def expiry(self, obj: str, node: str) -> float:
        return self.row(obj).get(node, float("-inf"))


class _ObjectLease:
    """OQS-side per-(object, IQS-node) record."""

    __slots__ = ("epoch", "lc", "valid", "expires")

    def __init__(self) -> None:
        self.epoch = 0
        self.lc = ZERO_LC
        self.valid = False
        #: holder-side object-lease expiry; +inf = infinite callback
        self.expires = float("inf")


_NEVER_GRANTED = (float("-inf"), 0)
_NO_OBJECT_LEASE = _ObjectLease()


class OqsLeaseView:
    """OQS-side view of leases granted by each IQS server.

    Tracks, per IQS node *i*: the volume lease (``expires``, ``epoch``)
    and per-object ``(epoch, logicalClock, valid)``.  The object-validity
    rule is the paper's: an object lease from *i* is usable only when its
    recorded epoch equals the volume's current epoch from *i* **and** the
    last event received for it from *i* was an update (not an
    invalidation) **and** the volume lease from *i* is unexpired.

    State is laid out as rows — ``volume -> {iqs_node -> (expires,
    epoch)}`` and ``obj -> {iqs_node -> record}`` — so the hit test
    (:meth:`hit_state`) fetches two rows and walks the IQS once.
    """

    def __init__(self, max_drift: float = 0.0) -> None:
        self.max_drift = max_drift
        self._volumes: Dict[str, Dict[str, Tuple[float, int]]] = {}
        self._objects: Dict[str, Dict[str, _ObjectLease]] = {}
        #: obj -> highest clock seen from any server.  A running max is
        #: exact: the clock recorded per (obj, i) only ever grows.
        self._max_seen: Dict[str, LogicalClock] = {}

    def raw_rows(
        self, volume: str, iqs_nodes: Iterable[str], obj: Optional[str] = None
    ) -> Iterator[Tuple[str, float, int, Optional[_ObjectLease]]]:
        """The raw read accessor: ``(iqs_node, vol_expiry, vol_epoch,
        lease)`` per node — recorded fields only (``-inf`` / ``0`` /
        ``None`` where nothing was granted), no validity judgement; the
        oracles re-derive Condition C from these."""
        vol_row = self._volumes.get(volume, EMPTY_ROW)
        obj_row = self._objects.get(obj, EMPTY_ROW)
        for i in iqs_nodes:
            expires, epoch = vol_row.get(i, _NEVER_GRANTED)
            yield i, expires, epoch, obj_row.get(i)

    def volume_row(self, volume: str) -> Mapping[str, Tuple[float, int]]:
        """The raw volume accessor, sibling of :meth:`IqsLeaseTable.row`:
        *volume*'s ``{iqs_node: (expires, epoch)}`` row, granted servers
        only.  Callers only read it."""
        return self._volumes.get(volume, EMPTY_ROW)

    def volume_rows(self) -> Iterable[Tuple[str, Mapping[str, Tuple[float, int]]]]:
        """``(volume, row)`` for every volume with a grant (the oracles)."""
        return self._volumes.items()

    # -- volume side -----------------------------------------------------------

    def apply_grant(self, iqs_node: str, grant: VolumeLeaseGrant) -> None:
        """Install a volume renewal reply from *iqs_node*.

        Expiry is computed from the echoed requestor send time with the
        holder-side drift correction; both expiry and epoch are merged
        with ``MAX`` so reordered replies cannot regress the state
        (matching the paper's ``processVLRenewReply``).
        """
        row = self._volumes.setdefault(grant.volume, {})
        expires, epoch = row.get(iqs_node, _NEVER_GRANTED)
        conservative = grant.requestor_time + grant.length_ms * (1.0 - self.max_drift)
        row[iqs_node] = (max(expires, conservative), max(epoch, grant.epoch))
        for inval in grant.delayed:
            self.apply_invalidation(iqs_node, inval.obj, inval.lc)

    def volume_valid(self, volume: str, iqs_node: str, now: float) -> bool:
        """Holder-side check: strict ``expires > now``, so at the exact
        boundary instant the holder treats its lease as **expired** and
        refuses to serve under it — while the granter, at the same
        instant, still counts it live and keeps blocking writes
        (:meth:`IqsLeaseTable.is_expired`).  Both sides thus err
        conservatively; see "Boundary semantics" in the module
        docstring."""
        return self.volume_expiry(volume, iqs_node) > now

    def volume_expiry(self, volume: str, iqs_node: str) -> float:
        return self._volumes.get(volume, EMPTY_ROW).get(iqs_node, _NEVER_GRANTED)[0]

    def volume_epoch(self, volume: str, iqs_node: str) -> int:
        return self._volumes.get(volume, EMPTY_ROW).get(iqs_node, _NEVER_GRANTED)[1]

    # -- object side ---------------------------------------------------------------

    def apply_invalidation(self, iqs_node: str, obj: str, lc: LogicalClock) -> None:
        """Record an invalidation from *i* if it is news (higher clock)."""
        lease = _record(self._objects, obj, iqs_node, _ObjectLease)
        if lc > lease.lc:
            lease.lc = lc
            lease.valid = False
            self._saw(obj, lc)

    def apply_renewal(
        self,
        iqs_node: str,
        obj: str,
        epoch: int,
        lc: LogicalClock,
        expires: float = float("inf"),
    ) -> bool:
        """Record an object renewal reply; returns True if it validated.

        Follows the paper's ``processRenewReply``: the epoch merges with
        MAX; the object becomes valid only if no *newer* invalidation
        from the same server has already been seen (``lc`` must be at
        least the recorded clock).  *expires* carries the holder-side
        finite-object-lease expiry (``+inf`` for the paper's simplifying
        infinite callbacks).
        """
        lease = _record(self._objects, obj, iqs_node, _ObjectLease)
        lease.epoch = max(lease.epoch, epoch)
        if lease.lc <= lc:
            lease.lc = lc
            lease.valid = True
            lease.expires = expires
            self._saw(obj, lc)
            return True
        return False

    def _saw(self, obj: str, lc: LogicalClock) -> None:
        if lc > self._max_seen.get(obj, ZERO_LC):
            self._max_seen[obj] = lc

    def max_clock_seen(self, obj: str) -> LogicalClock:
        """``MAX`` of :meth:`object_clock` over every server heard from."""
        return self._max_seen.get(obj, ZERO_LC)

    def object_state(self, obj: str, iqs_node: str) -> Tuple[int, LogicalClock, bool]:
        lease = self._objects.get(obj, EMPTY_ROW).get(iqs_node, _NO_OBJECT_LEASE)
        return (lease.epoch, lease.lc, lease.valid)

    def object_clock(self, obj: str, iqs_node: str) -> LogicalClock:
        return self._objects.get(obj, EMPTY_ROW).get(iqs_node, _NO_OBJECT_LEASE).lc

    def hit_state(
        self, volume: str, obj: str, iqs_nodes: Iterable[str], now: float
    ) -> Tuple[List[str], LogicalClock, LogicalClock]:
        """The whole hit test in one walk of *iqs_nodes*: the servers from
        which (volume, obj) is fully valid (:meth:`object_valid`'s rule),
        the ``MAX`` of their clocks, and the highest clock seen from any
        server.  Holder-side strict ``expires > now`` on both leases."""
        valid: List[str] = []
        best = ZERO_LC
        vol_row = self._volumes.get(volume, EMPTY_ROW)
        obj_row = self._objects.get(obj, EMPTY_ROW)
        for i in iqs_nodes:
            expires, epoch = vol_row.get(i, _NEVER_GRANTED)
            lease = obj_row.get(i)
            if (expires > now and lease is not None and lease.valid
                    and lease.epoch == epoch and lease.expires > now):
                valid.append(i)
                if lease.lc > best:
                    best = lease.lc
        return valid, best, self._max_seen.get(obj, ZERO_LC)

    def object_valid(self, volume: str, obj: str, iqs_node: str, now: float) -> bool:
        """The paper's full validity condition for (obj, i): valid volume
        lease ∧ matching epoch ∧ last event was an update ∧ (when object
        leases are finite) the object lease itself is unexpired."""
        return bool(self.hit_state(volume, obj, (iqs_node,), now)[0])

    def valid_servers(self, volume: str, obj: str, iqs_nodes: Iterable[str], now: float) -> List[str]:
        """IQS nodes from which (volume, obj) is currently fully valid."""
        return self.hit_state(volume, obj, iqs_nodes, now)[0]

    def best_valid_clock(self, volume: str, obj: str, iqs_nodes: Iterable[str], now: float) -> LogicalClock:
        """``MAX`` of clocks over servers whose lease for *obj* is valid."""
        return self.hit_state(volume, obj, iqs_nodes, now)[1]
