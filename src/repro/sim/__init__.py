"""Deterministic discrete-event simulation substrate.

This subpackage replaces the paper's physical testbed: a seeded event
loop (:mod:`~repro.sim.kernel`), a wide-area network model with delay
matrices and fault injection (:mod:`~repro.sim.network`), fail-stop nodes
with drifting clocks (:mod:`~repro.sim.node`, :mod:`~repro.sim.clock`),
and failure injection (:mod:`~repro.sim.failures`).  Causal span
tracing lives in :mod:`repro.obs`.
"""

from .clock import DriftingClock, PerfectClock
from .failures import BernoulliOutages, crash_for, partition_for
from .kernel import (
    Future,
    Process,
    ProcessFailure,
    ScheduleController,
    SimulationError,
    Simulator,
    Timer,
    all_of,
    all_settled,
    any_of,
)
from .messages import Message
from .network import (
    ConstantDelay,
    DelayModel,
    JitteredDelay,
    MatrixDelay,
    Network,
    NetworkStats,
)
from .node import Node, NodeCrashed, RpcTimeout

__all__ = [
    "Simulator",
    "Future",
    "Process",
    "Timer",
    "ScheduleController",
    "SimulationError",
    "ProcessFailure",
    "all_of",
    "all_settled",
    "any_of",
    "Message",
    "Network",
    "NetworkStats",
    "DelayModel",
    "ConstantDelay",
    "MatrixDelay",
    "JitteredDelay",
    "Node",
    "NodeCrashed",
    "RpcTimeout",
    "DriftingClock",
    "PerfectClock",
    "BernoulliOutages",
    "crash_for",
    "partition_for",
]
