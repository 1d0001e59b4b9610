"""The bookstore's non-profile object stores.

Three of the paper's four object classes need no quorums at all — each
gets the cheapest protocol that meets its class-specific contract:

* **Catalog** (single-writer, multi-reader).  The origin owns every
  item and publishes versioned updates: an eager push to all edges,
  backed by periodic digest re-sync so edges that missed pushes
  converge.  Contract: per-item versions never go backwards at any
  edge, and every edge eventually serves the newest version.

* **Orders** (multi-writer, single-reader).  An edge accepts an order,
  assigns it a locally unique id, acknowledges the customer
  immediately, and streams it to the origin with retransmission until
  acknowledged.  Contract: every acknowledged order reaches the origin
  exactly once (dedup by id), regardless of message loss.

* **Inventory** (commutative-write, approximate-read).  Escrow: the
  origin splits each product's stock into allotments that edges draw
  down locally; an edge refills synchronously from the origin when its
  allotment runs dry.  Contract: the *global* invariant — units sold
  never exceed stock — holds under any concurrency, while reads of the
  remaining count are cheap and approximate.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...bounds import require
from ...sim.kernel import Simulator
from ...sim.messages import Message
from ...sim.network import Network
from ...sim.node import Node, RpcTimeout

__all__ = [
    "CatalogOriginNode",
    "CatalogNode",
    "OrderNode",
    "OrderOriginNode",
    "InventoryOriginNode",
    "InventoryEdgeNode",
]


# ---------------------------------------------------------------------------
# catalog: single writer, many readers
# ---------------------------------------------------------------------------


class CatalogOriginNode(Node):
    """The catalog's single writer: publishes versioned item updates."""

    def __init__(self, sim, network, node_id, edge_ids: Sequence[str],
                 resync_interval_ms: float = 5_000.0) -> None:
        super().__init__(sim, network, node_id)
        self.edge_ids = list(edge_ids)
        self._items: Dict[str, Tuple[int, Any]] = {}  # item -> (version, data)
        self.publishes = 0
        if resync_interval_ms > 0 and self.edge_ids:
            self.after(resync_interval_ms, self._resync_tick, resync_interval_ms)

    def publish(self, item: str, data: Any) -> int:
        """Install a new version locally and push it to every edge.

        Only the origin calls this — the single-writer assumption; the
        returned version number is per-item monotonic.
        """
        version = self._items.get(item, (0, None))[0] + 1
        self._items[item] = (version, data)
        self.publishes += 1
        for edge in self.edge_ids:
            self.send(edge, "cat_update", {
                "item": item, "version": version, "data": data,
            })
        return version

    def _resync_tick(self, interval: float) -> None:
        """Anti-entropy: ship the digest; edges pull what they miss."""
        digest = {item: version for item, (version, _d) in self._items.items()}
        for edge in self.edge_ids:
            self.send(edge, "cat_digest", {"digest": digest})
        self.after(interval, self._resync_tick, interval)

    def on_cat_pull(self, msg: Message) -> None:
        wanted = {}
        for item in msg.payload["items"]:
            if item in self._items:
                version, data = self._items[item]
                wanted[item] = (version, data)
        self.reply(msg, payload={"items": wanted})


class CatalogNode(Node):
    """An edge's read-only catalog cache."""

    def __init__(self, sim, network, node_id, origin_id: str) -> None:
        super().__init__(sim, network, node_id)
        self.origin_id = origin_id
        self._items: Dict[str, Tuple[int, Any]] = {}
        self.stale_updates_ignored = 0

    def lookup(self, item: str) -> Tuple[int, Any]:
        """Local, immediate read: ``(version, data)`` (0, None if unseen)."""
        return self._items.get(item, (0, None))

    def _apply(self, item: str, version: int, data: Any) -> None:
        """Install if newer; per-item versions never regress at an edge."""
        current = self._items.get(item, (0, None))[0]
        if version > current:
            self._items[item] = (version, data)
        elif version < current:
            self.stale_updates_ignored += 1

    def on_cat_update(self, msg: Message) -> None:
        self._apply(msg.payload["item"], msg.payload["version"], msg.payload["data"])

    def on_cat_digest(self, msg: Message):
        missing = [
            item for item, version in msg.payload["digest"].items()
            if self._items.get(item, (0, None))[0] < version
        ]
        if not missing:
            return
        try:
            reply = yield self.call(
                self.origin_id, "cat_pull", {"items": missing}, timeout=2_000.0
            )
        except RpcTimeout:
            return  # the next digest round retries
        for item, (version, data) in reply.payload["items"].items():
            self._apply(item, version, data)


# ---------------------------------------------------------------------------
# orders: many writers, one reader
# ---------------------------------------------------------------------------


class OrderNode(Node):
    """An edge's order intake: local ack, reliable async stream to origin."""

    def __init__(self, sim, network, node_id, origin_id: str,
                 flush_interval_ms: float = 1_000.0) -> None:
        super().__init__(sim, network, node_id)
        self.origin_id = origin_id
        self.flush_interval_ms = flush_interval_ms
        self._seq = 0
        self._pending: Dict[str, dict] = {}  # order_id -> order
        self.accepted = 0
        self.after(flush_interval_ms, self._flush_tick)

    def submit(self, customer: str, item: str, quantity: int = 1) -> str:
        """Accept an order locally; returns its globally unique id.

        The customer is acknowledged before the origin knows — the
        availability win of this object class; delivery to the origin
        is the store's (asynchronous, reliable) responsibility.
        """
        self._seq += 1
        order_id = f"{self.node_id}:{self._seq}"
        order = {
            "order_id": order_id,
            "customer": customer,
            "item": item,
            "quantity": quantity,
            "accepted_at": self.sim.now,
        }
        self._pending[order_id] = order
        self.accepted += 1
        self._send_order(order)
        return order_id

    @property
    def backlog(self) -> int:
        """Orders accepted but not yet confirmed by the origin."""
        return len(self._pending)

    def _send_order(self, order: dict) -> None:
        future = self.call(self.origin_id, "ord_deliver", dict(order),
                           timeout=self.flush_interval_ms)

        def on_reply(f) -> None:
            if not f.failed:
                self._pending.pop(f._value.payload["order_id"], None)

        future.add_callback(on_reply)

    def _flush_tick(self) -> None:
        for order in list(self._pending.values()):
            self._send_order(order)
        self.after(self.flush_interval_ms, self._flush_tick)


class OrderOriginNode(Node):
    """The single reader: the origin's fulfilment pipeline."""

    def __init__(self, sim, network, node_id) -> None:
        super().__init__(sim, network, node_id)
        self._orders: Dict[str, dict] = {}
        self.duplicates_dropped = 0

    def on_ord_deliver(self, msg: Message) -> None:
        order_id = msg.payload["order_id"]
        if order_id in self._orders:
            self.duplicates_dropped += 1
        else:
            self._orders[order_id] = dict(msg.payload)
        self.reply(msg, payload={"order_id": order_id})

    def orders(self) -> List[dict]:
        """All orders received, in acceptance-time order."""
        return sorted(self._orders.values(), key=lambda o: o["accepted_at"])

    def order_count(self) -> int:
        return len(self._orders)


# ---------------------------------------------------------------------------
# inventory: commutative writes, approximate reads
# ---------------------------------------------------------------------------


class InventoryOriginNode(Node):
    """Guards the global stock: grants escrow allotments to edges."""

    def __init__(self, sim, network, node_id, stock: Dict[str, int],
                 batch: int = 10) -> None:
        super().__init__(sim, network, node_id)
        if any(count < 0 for count in stock.values()):
            raise ValueError("stock counts must be non-negative")
        require("batch", batch, 1)
        self._remaining: Dict[str, int] = dict(stock)
        self.batch = batch
        self.grants = 0

    def on_inv_refill(self, msg: Message) -> None:
        """Grant up to ``batch`` units (idempotence is the edge's job:
        an unacked grant is simply lost stock until restock — the safe
        direction for the never-oversell invariant)."""
        item = msg.payload["item"]
        remaining = self._remaining.get(item, 0)
        granted = min(self.batch, remaining)
        self._remaining[item] = remaining - granted
        if granted:
            self.grants += 1
        self.reply(msg, payload={"item": item, "granted": granted})

    def restock(self, item: str, quantity: int) -> None:
        require("quantity", quantity, 0)
        self._remaining[item] = self._remaining.get(item, 0) + quantity

    def remaining(self, item: str) -> int:
        """Units not yet granted to any edge."""
        return self._remaining.get(item, 0)


class InventoryEdgeNode(Node):
    """An edge's escrow allotments; sells locally, refills on demand."""

    def __init__(self, sim, network, node_id, origin_id: str) -> None:
        super().__init__(sim, network, node_id)
        self.origin_id = origin_id
        self._allotment: Dict[str, int] = {}
        self.sold = 0

    def approximate_count(self, item: str) -> int:
        """Cheap, local, possibly stale: this edge's unsold allotment."""
        return self._allotment.get(item, 0)

    def reserve(self, item: str, quantity: int = 1):
        """Reserve units for a sale (kernel process).

        Serves from the local allotment when possible; otherwise asks
        the origin for a refill (bounded retries).  Returns True when
        the units are secured, False when the product is sold out or
        the origin unreachable — never overselling either way.
        """
        require("quantity", quantity, 1)
        for _attempt in range(3):
            if self._allotment.get(item, 0) >= quantity:
                self._allotment[item] -= quantity
                self.sold += quantity
                return True
            try:
                reply = yield self.call(
                    self.origin_id, "inv_refill", {"item": item},
                    timeout=2_000.0,
                )
            except RpcTimeout:
                continue
            granted = reply.payload["granted"]
            if granted == 0:
                return False  # origin says: out of stock
            self._allotment[item] = self._allotment.get(item, 0) + granted
        return False

    def release(self, item: str, quantity: int) -> None:
        """Return units to the local allotment (an aborted sale)."""
        require("quantity", quantity, 0)
        self._allotment[item] = self._allotment.get(item, 0) + quantity
        self.sold -= quantity
