"""Seed-deterministic nemesis generators.

A *nemesis* turns ``(rng, context)`` into a list of
:class:`~repro.chaos.faults.Fault` windows.  :func:`build_schedule`
composes any subset of the registry into one
:class:`~repro.chaos.faults.FaultSchedule`.

Seeding contract
----------------
Each nemesis draws from its own ``random.Random`` seeded by
``mix(seed, nemesis_name)`` where the name is hashed with
``zlib.crc32`` — **never** Python's built-in ``hash``, which is salted
per process and would silently break cross-process determinism under
the campaign's ``ProcessPoolExecutor`` fan-out.  Consequences:

* the same ``(seed, nemeses, context)`` produces the identical schedule
  in any process, any run;
* adding or removing one nemesis from a campaign never perturbs the
  faults another nemesis generates (independent streams).

Safety envelope
---------------
Every window ends by ``context.horizon_ms`` (the workload keeps running
after that, so the system always gets a fault-free tail in which to
heal and the run terminates), each crash-storm window crashes a strict
subset of the servers (overlapping windows can still cover them all),
and clock drift stays within
``context.max_drift`` — matching the drift bound the protocols are
configured with, because drift *beyond* the declared bound is a broken
deployment assumption, not a fault the paper's lease arithmetic claims
to tolerate.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .faults import Fault, FaultSchedule

__all__ = ["NemesisContext", "NEMESES", "build_schedule", "nemesis_rng"]


@dataclass(frozen=True)
class NemesisContext:
    """What a generator may know about the system under test."""

    servers: Tuple[str, ...]
    horizon_ms: float = 10_000.0
    max_drift: float = 0.01

    def window(self, rng: random.Random,
               min_frac: float = 0.05, max_frac: float = 0.3) -> Tuple[float, float]:
        """A (start, duration) pair guaranteed to end by the horizon."""
        duration = self.horizon_ms * rng.uniform(min_frac, max_frac)
        start = rng.uniform(0.0, self.horizon_ms - duration)
        return start, duration


def nemesis_rng(seed: int, name: str) -> random.Random:
    """The independent, process-stable stream for (campaign seed, nemesis)."""
    return random.Random(((seed & 0xFFFFFFFF) << 32) | zlib.crc32(name.encode()))


# -- generators ---------------------------------------------------------------

def crash_storm(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Repeated crash/restart windows, each on a strict subset of the
    servers; overlapping windows may together cover every server."""
    faults = []
    for _ in range(rng.randint(2, 4)):
        start, duration = ctx.window(rng)
        # A strict subset per window; windows are drawn independently.
        count = rng.randint(1, max(1, len(ctx.servers) - 1))
        victims = tuple(sorted(rng.sample(list(ctx.servers), count)))
        faults.append(Fault.make("crash", start, duration, nodes=victims))
    return faults


def node_flap(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """One server crash-recovers in rapid succession (flapping)."""
    victim = rng.choice(list(ctx.servers))
    faults = []
    t = rng.uniform(0.0, 0.2 * ctx.horizon_ms)
    for _ in range(rng.randint(3, 6)):
        up = rng.uniform(0.02, 0.08) * ctx.horizon_ms
        down = rng.uniform(0.02, 0.08) * ctx.horizon_ms
        if t + down > ctx.horizon_ms:
            break
        faults.append(Fault.make("crash", t, down, nodes=(victim,)))
        t += down + up
    return faults


def rolling_partition(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Isolate one server after another with short partition windows."""
    order = list(ctx.servers)
    rng.shuffle(order)
    faults = []
    slot = ctx.horizon_ms / max(len(order), 1)
    for i, victim in enumerate(order):
        duration = slot * rng.uniform(0.4, 0.9)
        start = i * slot + rng.uniform(0.0, slot - duration)
        rest = tuple(s for s in ctx.servers if s != victim)
        faults.append(
            Fault.make("partition", start, duration,
                       groups=((victim,), rest))
        )
    return faults


def overlapping_partitions(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Two partitions whose windows overlap with *different* group splits —
    the case the token-scoped heal exists for."""
    servers = list(ctx.servers)
    faults = []
    for _ in range(2):
        start, duration = ctx.window(rng, min_frac=0.2, max_frac=0.45)
        rng.shuffle(servers)
        cut = rng.randint(1, max(1, len(servers) - 1))
        left = tuple(sorted(servers[:cut]))
        right = tuple(sorted(servers[cut:]))
        faults.append(Fault.make("partition", start, duration, groups=(left, right)))
    return faults


def loss_burst(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Windows of heavy network-wide message loss."""
    return [
        Fault.make("loss", *ctx.window(rng),
                   probability=rng.uniform(0.1, 0.45))
        for _ in range(rng.randint(1, 3))
    ]


def duplication_burst(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Windows of heavy message duplication (retransmission ambushes)."""
    return [
        Fault.make("duplicate", *ctx.window(rng),
                   probability=rng.uniform(0.2, 0.8))
        for _ in range(rng.randint(1, 2))
    ]


def slow_nodes(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Gray failure: servers that are alive but painfully slow."""
    faults = []
    for _ in range(rng.randint(1, 2)):
        start, duration = ctx.window(rng)
        victim = rng.choice(list(ctx.servers))
        faults.append(
            Fault.make("slow", start, duration, nodes=(victim,),
                       slow_ms=rng.uniform(50.0, 400.0))
        )
    return faults


def gray_links(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Gray failure: specific links with extra delay and loss."""
    faults = []
    if len(ctx.servers) < 2:
        return faults
    for _ in range(rng.randint(1, 3)):
        start, duration = ctx.window(rng)
        a, b = rng.sample(list(ctx.servers), 2)
        faults.append(
            Fault.make("degrade_link", start, duration, nodes=(a, b),
                       extra_delay_ms=rng.uniform(20.0, 200.0),
                       loss_probability=rng.uniform(0.0, 0.3))
        )
    return faults


def clock_drift(rng: random.Random, ctx: NemesisContext) -> List[Fault]:
    """Give every server a drifting clock within the declared bound."""
    return [
        Fault.make("clock_drift", 0.0, 0.0, nodes=(server,),
                   drift=rng.uniform(-ctx.max_drift, ctx.max_drift),
                   offset=rng.uniform(0.0, 5.0))
        for server in ctx.servers
    ]


#: the nemesis registry (names are part of the corpus format — stable)
NEMESES: Dict[str, Callable[[random.Random, NemesisContext], List[Fault]]] = {
    "crash_storm": crash_storm,
    "node_flap": node_flap,
    "rolling_partition": rolling_partition,
    "overlapping_partitions": overlapping_partitions,
    "loss_burst": loss_burst,
    "duplication_burst": duplication_burst,
    "slow_nodes": slow_nodes,
    "gray_links": gray_links,
    "clock_drift": clock_drift,
}


def build_schedule(
    seed: int, nemeses: Sequence[str], context: NemesisContext
) -> FaultSchedule:
    """Compose the named nemeses into one deterministic schedule."""
    schedule = FaultSchedule()
    for name in sorted(set(nemeses)):
        try:
            generator = NEMESES[name]
        except KeyError:
            raise KeyError(
                f"unknown nemesis {name!r}; choose from {sorted(NEMESES)}"
            ) from None
        rng = nemesis_rng(seed, name)
        for fault in generator(rng, context):
            schedule.add(fault)
    return schedule.sorted()
