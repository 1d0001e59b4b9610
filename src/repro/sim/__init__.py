"""Deterministic discrete-event simulation substrate.

This subpackage replaces the paper's physical testbed: a seeded event
loop (:mod:`~repro.sim.kernel`), a wide-area network model with delay
matrices and fault injection (:mod:`~repro.sim.network`), fail-stop nodes
with drifting clocks (:mod:`~repro.sim.node`, :mod:`~repro.sim.clock`),
and stochastic node outages (:mod:`~repro.sim.failures`).  Causal span
tracing lives in :mod:`repro.obs`.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "kernel": (
        "Simulator", "Future", "Process", "Timer", "ScheduleController",
        "SimulationError", "ProcessFailure", "all_settled", "any_of",
    ),
    "messages": ("Message",),
    "network": (
        "Network", "NetworkStats", "DelayModel", "ConstantDelay", "MatrixDelay",
    ),
    "node": ("Node", "NodeCrashed", "RpcTimeout"),
    "clock": ("DriftingClock", "PerfectClock"),
    "failures": ("BernoulliOutages",),
})
