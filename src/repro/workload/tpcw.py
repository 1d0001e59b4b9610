"""The TPC-W customer-profile workload (Section 4.1).

The paper motivates DQVL with TPC-W's *per-customer profile object*
(name, account, recent orders, credit card, address): a multi-reader,
multi-writer object whose accesses nevertheless exhibit strong locality,
because each customer is routed to one edge server at a time.

The measured characteristics the paper states:

* **5 % writes** — "95 % reads on a customer's purchase history, credit
  information, and addresses and 5 % writes on a customer's shipping
  address when processing an online purchase";
* customer → closest edge server routing, so each edge server's clients
  touch a (mostly) disjoint customer population;
* occasional re-routing (server failure, customer travel) producing the
  rare cross-node accesses the protocol must stay correct under.

:func:`tpcw_profile_stream` builds the corresponding operation stream
for one application client; :func:`profile_key` names each customer's
object, so volumes can be assigned per customer population.
"""

from __future__ import annotations

from typing import Optional

from ..bounds import require
from .generators import (
    BernoulliOpStream,
    KeyUniverse,
    LazyKeys,
    PartitionedKeyChooser,
    ZipfKeyChooser,
)

__all__ = [
    "TPCW_WRITE_RATIO",
    "profile_key",
    "tpcw_profile_stream",
]

#: The paper's update rate for the TPC-W profile object.
TPCW_WRITE_RATIO = 0.05


def profile_key(customer_id: int) -> str:
    """Storage key of one customer's profile object."""
    return f"profile:{customer_id:06d}"


class _ForeignProfiles(LazyKeys):
    """Every customer profile key *except* one client's own range.

    Index *i* maps to customer ``i`` below the excluded range and to
    ``i + span`` above it, so foreign customers are sampled lazily by
    index instead of materialising the (num_clients × customers) key
    list per client — constructing a 10k-client fleet is O(1) per
    client rather than O(num_clients² × customers_per_client).
    """

    def __init__(self, total: int, own_start: int, span: int) -> None:
        self.total = total
        self.own_start = own_start
        self.span = span

    def __len__(self) -> int:
        return self.total - self.span

    def __getitem__(self, index: int) -> str:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(index)
        customer = index if index < self.own_start else index + self.span
        return profile_key(customer)


def tpcw_profile_stream(
    rng,
    client_index: int,
    num_clients: int,
    customers_per_client: int = 50,
    affinity: float = 0.98,
    write_ratio: float = TPCW_WRITE_RATIO,
    zipf_s: float = 0.8,
    label: Optional[str] = None,
) -> BernoulliOpStream:
    """Operation stream for application client *client_index*.

    The global customer population is split evenly across clients;
    this client draws from its own partition with Zipf popularity
    (frequent shoppers) and, with probability ``1 - affinity``, touches
    a foreign customer's profile (a redirected session).
    """
    require("client_index", client_index, 0, num_clients, hi_open=True)
    own_start = client_index * customers_per_client
    own = KeyUniverse(customers_per_client, fmt="profile:{:06d}", start=own_start)
    foreign = _ForeignProfiles(
        num_clients * customers_per_client, own_start, customers_per_client
    )
    chooser = PartitionedKeyChooser(
        own_keys=own,
        foreign_keys=foreign,
        affinity=affinity,
        own_chooser=ZipfKeyChooser(own, s=zipf_s),
    )
    return BernoulliOpStream(
        rng, chooser, write_ratio, label=label or f"c{client_index}-"
    )
