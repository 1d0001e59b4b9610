"""Adaptive resilience layer (PR 7).

The paper's availability claims rest on the protocol *reacting* to
faults, not merely surviving them.  This package supplies the reactive
machinery, wired through the RPC, protocol, node, and edge layers:

* :class:`FailureDetector` — per-node, seed-deterministic,
  phi-accrual-style suspicion over QRPC reply/timeout observations,
  with RTT-quantile estimates feeding adaptive timeouts and hedging.
* :class:`NodeResilience` — bundles the detector with the dedicated
  per-purpose RNG streams for suspect-avoiding quorum selection,
  hedged requests, and decorrelated-jitter backoff.
* :func:`derive_qrpc_timeouts` — QRPC timeout schedules computed from
  the scenario's delay distribution instead of the historical 400ms.
* :class:`ResilienceConfig` — all tunables, frozen, including the
  staleness bound within which a front end serves a degraded read when
  the read's storage attempt fails.

Everything runs on the simulated clock and draws only from string-seeded
streams: enabling the layer changes behaviour, never determinism.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "detector": ("FailureDetector",),
    "runtime": ("NodeResilience",),
    "config": ("ResilienceConfig",),
    "timeouts": ("derive_qrpc_timeouts",),
})
