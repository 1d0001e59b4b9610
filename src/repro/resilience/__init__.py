"""Adaptive resilience layer.

The paper's availability claims rest on the protocol *reacting* to
faults, not merely surviving them.  This package supplies the reactive
machinery, wired through the RPC, protocol, node, and edge layers:

* :class:`FailureDetector` — per-node, seed-deterministic,
  phi-accrual-style suspicion over QRPC reply/timeout observations,
  with RTT-quantile estimates feeding adaptive timeouts and hedging.
* :class:`NodeResilience` — bundles the detector with the dedicated
  per-purpose RNG streams for suspect-avoiding quorum selection and
  hedged requests.

The layer is on or off (``resilience=True`` on the dual-quorum
deployers and :class:`~repro.edge.frontend.FrontEnd`) and has no knobs:
the detector's values are constants in :mod:`repro.resilience.detector`,
the post-crash catch-up retry lives in :mod:`repro.core.dqvl` and the
degraded-read staleness bound in :mod:`repro.edge.frontend`.

Everything runs on the simulated clock and draws only from string-seeded
streams: enabling the layer changes behaviour, never determinism.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "detector": ("FailureDetector",),
    "runtime": ("NodeResilience",),
})
