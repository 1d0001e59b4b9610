"""The per-edge bookstore facade and the full deployment builder.

:class:`BookstoreService` is the service logic a front end would run:
it composes the four object stores into application operations —
``browse``, ``get_profile``/``update_profile``, and the compound
``purchase`` (reserve inventory → record the order → update the
customer's profile).  All methods are kernel processes
(``yield from``-able).

:func:`build_bookstore` deploys the whole application over an
:class:`~repro.edge.topology.EdgeTopology`: the origin servers on a
dedicated edge host, a catalog cache + order intake + inventory escrow
node on every edge, and a DQVL cluster for the profiles (OQS replica
per edge, majority IQS).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ...core.cluster import DqvlCluster, build_dqvl_cluster
from ...core.config import DqvlConfig
from ...edge.topology import EdgeTopology
from .stores import (
    CatalogNode,
    CatalogOriginNode,
    InventoryEdgeNode,
    InventoryOriginNode,
    OrderNode,
    OrderOriginNode,
)

__all__ = ["BookstoreService", "BookstoreDeployment", "build_bookstore"]


@dataclass
class PurchaseResult:
    """Outcome of one purchase attempt."""

    ok: bool
    order_id: Optional[str] = None
    reason: str = ""


class BookstoreService:
    """One edge server's bookstore logic."""

    def __init__(
        self,
        edge_index: int,
        catalog: CatalogNode,
        orders: OrderNode,
        inventory: InventoryEdgeNode,
        profile_client,
    ) -> None:
        self.edge_index = edge_index
        self.catalog = catalog
        self.orders = orders
        self.inventory = inventory
        self.profiles = profile_client
        self.purchases_ok = 0
        self.purchases_failed = 0

    # -- the four object classes, individually ------------------------------

    def browse(self, item: str):
        """Catalog lookup: local and immediate (class 1)."""
        version, data = self.catalog.lookup(item)
        return version, data
        yield  # pragma: no cover - uniform generator interface

    def get_profile(self, customer: str):
        """Profile read via DQVL (class 4)."""
        result = yield from self.profiles.read(f"profile:{customer}")
        return result.value

    def update_profile(self, customer: str, profile: Dict[str, Any]):
        """Profile write via DQVL (class 4)."""
        result = yield from self.profiles.write(f"profile:{customer}", profile)
        return result.lc

    # -- the compound purchase ------------------------------------------------

    def purchase(self, customer: str, item: str, quantity: int = 1):
        """Reserve stock, record the order, update the profile.

        The inventory reservation is the only gate: once units are
        secured the order is accepted locally (class 2 — the customer
        never waits for the origin) and the profile's purchase history
        updates through DQVL.
        """
        reserved = yield from self.inventory.reserve(item, quantity)
        if not reserved:
            self.purchases_failed += 1
            return PurchaseResult(ok=False, reason="out of stock")

        order_id = self.orders.submit(customer, item, quantity)

        profile = yield from self.get_profile(customer)
        profile = dict(profile or {})
        history = list(profile.get("history", []))
        history.append(order_id)
        profile["history"] = history
        profile["last_item"] = item
        yield from self.update_profile(customer, profile)

        self.purchases_ok += 1
        return PurchaseResult(ok=True, order_id=order_id)


@dataclass
class BookstoreDeployment:
    """Handles to a deployed bookstore."""

    topology: EdgeTopology
    services: List[BookstoreService]
    catalog_origin: CatalogOriginNode
    order_origin: OrderOriginNode
    inventory_origin: InventoryOriginNode
    profiles: DqvlCluster

    def service_for_edge(self, k: int) -> BookstoreService:
        return self.services[k]

    # -- global invariants (used by tests and the example) -------------------

    def units_sold(self) -> int:
        return sum(svc.inventory.sold for svc in self.services)

    def orders_received(self) -> int:
        return self.order_origin.order_count()

    def orders_accepted(self) -> int:
        return sum(svc.orders.accepted for svc in self.services)


def build_bookstore(
    topology: EdgeTopology,
    stock: Dict[str, int],
    origin_edge: int = 0,
    dqvl_config: Optional[DqvlConfig] = None,
    inventory_batch: int = 10,
    catalog_resync_ms: float = 5_000.0,
    order_flush_ms: float = 1_000.0,
) -> BookstoreDeployment:
    """Deploy the bookstore across *topology*'s edge servers.

    The origin tier (catalog writer, order sink, inventory guard) lives
    on ``origin_edge``; every edge gets the caching/intake/escrow trio
    plus a DQVL profile replica.
    """
    sim, net = topology.sim, topology.network
    n = topology.config.num_edges

    # origin tier
    catalog_origin = CatalogOriginNode(
        sim, net, "cat-origin",
        edge_ids=[f"cat{k}" for k in range(n)],
        resync_interval_ms=catalog_resync_ms,
    )
    order_origin = OrderOriginNode(sim, net, "ord-origin")
    inventory_origin = InventoryOriginNode(
        sim, net, "inv-origin", stock, batch=inventory_batch
    )
    for node_id in ("cat-origin", "ord-origin", "inv-origin"):
        topology.place_on_edge(node_id, origin_edge)

    # profile tier: DQVL with an OQS replica on every edge
    config = dqvl_config or DqvlConfig(proactive_renewal=True)
    profiles = build_dqvl_cluster(
        sim, net,
        [f"piqs{k}" for k in range(n)],
        [f"poqs{k}" for k in range(n)],
        config,
    )
    for k in range(n):
        topology.place_on_edge(f"piqs{k}", k)
        topology.place_on_edge(f"poqs{k}", k)

    # per-edge tier
    services: List[BookstoreService] = []
    for k in range(n):
        catalog = CatalogNode(sim, net, f"cat{k}", "cat-origin")
        orders = OrderNode(sim, net, f"ord{k}", "ord-origin",
                           flush_interval_ms=order_flush_ms)
        inventory = InventoryEdgeNode(sim, net, f"inv{k}", "inv-origin")
        profile_client = profiles.client(f"pcli{k}", prefer_oqs=f"poqs{k}")
        for node_id in (f"cat{k}", f"ord{k}", f"inv{k}", f"pcli{k}"):
            topology.place_on_edge(node_id, k)
        services.append(
            BookstoreService(k, catalog, orders, inventory, profile_client)
        )

    return BookstoreDeployment(
        topology=topology,
        services=services,
        catalog_origin=catalog_origin,
        order_origin=order_origin,
        inventory_origin=inventory_origin,
        profiles=profiles,
    )
