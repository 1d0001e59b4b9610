"""The TPC-W edge bookstore (the paper's motivating application).

Section 1 of the paper recalls the authors' earlier edge-service work
[10, 22], which classified an e-commerce application's shared objects
into four categories and replicated each differently:

1. **single-writer, multi-reader** — product descriptions and prices:
   the origin publishes; edges cache
   (:class:`~repro.apps.bookstore.stores.CatalogNode`);
2. **multi-writer, single-reader** — customer orders: edges accept and
   acknowledge locally, then stream reliably to the origin's
   fulfilment pipeline (:class:`~repro.apps.bookstore.stores.OrderNode`);
3. **commutative-write, approximate-read** — per-product inventory:
   escrow allotments let edges sell locally while the origin guards the
   global never-oversell invariant
   (:class:`~repro.apps.bookstore.stores.InventoryOriginNode`);
4. **multi-writer, multi-reader with locality** — per-customer
   profiles: the class the paper contributes **DQVL** for.

:class:`~repro.apps.bookstore.service.BookstoreService` composes all
four into one per-edge facade; ``build_bookstore`` deploys the whole
application across an :class:`~repro.edge.topology.EdgeTopology`.
"""

from ..._lazy import lazy_exports

lazy_exports(globals(), {
    "service": ("BookstoreService", "BookstoreDeployment", "build_bookstore"),
    "stores": (
        "CatalogOriginNode", "CatalogNode", "OrderNode", "OrderOriginNode",
        "InventoryEdgeNode", "InventoryOriginNode",
    ),
})
