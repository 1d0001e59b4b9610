"""Issuing operations: the one issue step and the closed loop.

:func:`issue` runs one :class:`~repro.workload.generators.OpSpec`
through a client and returns its :class:`~repro.types.Op` — the client's
own record, or the failed record when the system rejected the request.
Every workload driver issues through it and appends what it returns to a
shared :class:`~repro.consistency.history.History`: :func:`closed_loop`
here, the open-loop issuer pools and per-user clients of
:mod:`repro.workload.population` and the availability runner.  It works
against any object exposing ``read``/``write`` generator methods and a
``node_id`` — application clients and raw protocol clients alike — so
the same workloads power response-time, availability, and consistency
experiments.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..consistency.history import History
from ..edge.frontend import OperationFailed
from ..quorum.qrpc import QrpcError
from ..sim.kernel import Simulator
from ..sim.node import NodeCrashed, RpcTimeout
from ..types import READ, ZERO_LC, Op
from .generators import OpSpec

__all__ = ["issue", "closed_loop"]

#: Exceptions that mean "the system rejected the request" rather than a
#: bug: the paper's availability metric counts exactly these.
REJECTION_ERRORS = (OperationFailed, QrpcError, RpcTimeout, NodeCrashed)


def issue(sim: Simulator, client, spec: OpSpec, start: Optional[float] = None):
    """Run one operation through *client*; returns its :class:`Op`
    (``yield from`` it inside a kernel process).

    *start* is the operation's invocation instant, ``sim.now`` unless
    given: an issuer pool passes the request's arrival time, so time
    spent queued counts in its latency.  A rejection
    (:data:`REJECTION_ERRORS`) is recorded, not raised: the failed op
    carries ``ok=False``, the placeholder clock ``ZERO_LC`` and, for a
    write, the *attempted* value — a failed write may still have reached
    some replicas, and the checker recognises its value when a later
    read returns it (the client never learned the write's clock, so the
    value is the only identity it has).
    """
    if start is None:
        start = sim.now
    try:
        if spec.kind == READ:
            op = yield from client.read(spec.key)
        else:
            op = yield from client.write(spec.key, spec.value)
    except REJECTION_ERRORS:
        return Op(spec.kind, spec.key, spec.value, ZERO_LC, start, sim.now,
                  client.node_id, ok=False)
    op.start = start
    return op


def closed_loop(
    sim: Simulator,
    client,
    stream: Iterator[OpSpec],
    history: History,
    num_ops: int,
    think_time_ms: float = 0.0,
    deadline_ms: Optional[float] = None,
):
    """Run *num_ops* operations back to back (kernel process).

    Parameters
    ----------
    client:
        Anything :func:`issue` can drive.
    stream:
        Source of :class:`~repro.workload.generators.OpSpec`.
    history:
        Shared history; failures are recorded with ``ok=False``.
    think_time_ms:
        Optional pause between operations (0 = paper's closed loop).
        Think time separates *consecutive* operations: there is no
        trailing pause after the final op, and none once the deadline
        has passed — a deadline-bounded run finishes with its last
        operation, not ``think_time_ms`` later.
    deadline_ms:
        Stop issuing operations once the simulated clock passes this.

    Returns the number of operations actually issued.
    """
    issued = 0
    for remaining in range(num_ops, 0, -1):
        if deadline_ms is not None and sim.now >= deadline_ms:
            break
        issued += 1
        history.ops.append((yield from issue(sim, client, next(stream))))
        if (
            think_time_ms > 0
            and remaining > 1
            and (deadline_ms is None or sim.now < deadline_ms)
        ):
            yield sim.sleep(think_time_ms)
    return issued
