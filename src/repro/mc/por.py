"""Partial-order reduction: event footprints and the independence relation.

Two events due at the *same simulated instant* have no causal order —
the kernel's canonical ``(time, seq)`` tie-break is an arbitrary choice,
and the explorer's DFS branches on every permutation of it.  Most of
those permutations are equivalent: in a message-passing system, two
same-instant events that run on **different nodes** and touch **disjoint
state** commute — executing them in either order reaches the same
successor state (Mazurkiewicz trace equivalence; Flanagan/Godefroid-style
dynamic POR adapts it to stateless search).  This module computes, per
slot entry, a conservative *footprint* of what the event may touch, and
an :func:`independent` relation over footprints; the DFS then prunes the
sibling branch of every commuting pair (sleep-set style, see
``repro.mc.explore``).

Soundness rests on three pillars, documented in DESIGN.md §13:

* **Static footprints** — a message delivery touches its destination
  node, its message/reply tokens, and the object/volume keys named in
  the payload; a node timer (``Node.after``, RPC timeouts) touches its
  node; a process resumption touches the node that spawned the process
  (via the ownership label threaded through ``Simulator.exec_label``).
  Anything unrecognised is *universal* — it commutes with nothing.
* **Dynamic RNG poisoning** — the one piece of genuinely shared state
  invisible to static footprints is ``Simulator.rng`` (e.g. DQVL's
  favoured quorum sampling draws from it on the read path).  The runner
  installs :class:`CountingRandom` — bit-identical draws, plus a draw
  counter — and the recording controller retroactively marks any event
  that consumed randomness as universal in *every* decision that
  offered it, so reorderings that would shift the shared draw sequence
  are never pruned.
* **An empirical cross-check** — ``repro.mc.explore.crosscheck_por``
  exhaustively compares pruned vs full DFS outcome sets on small
  configs (also a test and a CI step).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from ..sim.kernel import Future, Process
from ..sim.messages import Message
from ..sim.node import Node, NodeCrashed, RpcTimeout

__all__ = [
    "Footprint",
    "UNIVERSAL",
    "footprint_of",
    "independent",
    "CountingRandom",
]

_EMPTY: FrozenSet = frozenset()


@dataclass(frozen=True)
class Footprint:
    """What one slot event may read or write.

    ``node``
        The single node (or process-ownership label) whose local state
        the event touches; ``None`` only for universal footprints.
    ``tokens``
        Message identifiers consumed/correlated by the event (a
        delivery's ``msg_id`` and ``reply_to``), so a request and its
        own reply never commute even across nodes.
    ``keys``
        Object/volume names the event's payload names — lease and data
        keys.  Events sharing a key are kept ordered even on different
        nodes, which also keeps the *observability* of the run's oracles
        stable under reordering.
    ``rng``
        The event consumed draws from the shared simulator RNG.  Two
        such events conflict with *each other* (swapping them reassigns
        which draws each receives) but commute freely with non-drawing
        events, whose swap leaves the draw sequence untouched.  Set
        dynamically by the recording controller, never statically.
    ``universal``
        True = may touch anything; never commutes.
    """

    node: Optional[str] = None
    tokens: FrozenSet[int] = _EMPTY
    keys: FrozenSet[str] = _EMPTY
    rng: bool = False
    universal: bool = False


UNIVERSAL = Footprint(universal=True)


def _message_footprint(message: Message) -> Footprint:
    tokens = {message.msg_id}
    if message.reply_to is not None:
        tokens.add(message.reply_to)
    keys = set()
    payload = message.payload or {}
    for name in ("obj", "vol", "key"):
        value = payload.get(name)
        if isinstance(value, str):
            keys.add(value)
    for pair in payload.get("delayed") or ():
        if isinstance(pair, (tuple, list)) and pair and isinstance(pair[0], str):
            keys.add(pair[0])
    return Footprint(
        node=message.dst, tokens=frozenset(tokens), keys=frozenset(keys)
    )


def footprint_of(entry: tuple) -> Footprint:
    """Conservative footprint of one slot entry ``(timer, fn, args)``.

    Recognised shapes:

    * callbacks tagged with ``_mc_node`` (``Node.after`` guards, QRPC
      round records as deadline or sink) → that node;
    * ``Network._deliver(message)`` → the destination node plus the
      message's tokens and payload keys;
    * a request's callback, handed its reply, :class:`RpcTimeout` or
      :class:`NodeCrashed`, ``Node._fail`` and ``Node.expire`` (an RPC
      timeout) → the requesting node;
    * ``Future.resolve`` of a plain future (sleep wake-ups, combinator
      futures) → the future's ownership label if known, else the future
      itself (resolving only completes the future and *enqueues* its
      callbacks — distinct futures commute);
    * ``Process._resume`` → the process's ownership label (the node
      executing when it was spawned), falling back to the ``node_id``
      prefix of its name; ``Node._start``, a handler's first step, →
      the same for the process it would become.

    Everything else is :data:`UNIVERSAL`.
    """
    _timer, fn, args = entry
    node = getattr(fn, "_mc_node", None)
    if node is not None:
        return Footprint(node=node)
    owner = getattr(fn, "__self__", None)
    if owner is None:
        # A future's callback is handed the future and runs code of the
        # node that created it (its label); a request's callback is handed
        # the outcome and runs code of the node that issued the request.
        arg = args[0] if args else None
        if isinstance(arg, Future):
            label = arg.label
        elif isinstance(arg, Message):
            label = arg.dst
        elif isinstance(arg, RpcTimeout):
            label = arg.src
        elif isinstance(arg, NodeCrashed):
            label = arg.node_id
        else:
            return UNIVERSAL
        return Footprint(node=label) if label else UNIVERSAL
    name = getattr(fn, "__name__", "")
    if name == "_deliver" and args and isinstance(args[0], Message):
        return _message_footprint(args[0])
    if name in ("_fail", "expire") and isinstance(owner, Node):
        return Footprint(node=owner.node_id)
    if isinstance(owner, Process):
        return _process_footprint(owner.label, owner.name)
    if name == "_start" and isinstance(owner, Node):  # (generator, name, label)
        return _process_footprint(args[2], args[1])
    if isinstance(owner, Future):
        label = owner.label
        if label is None and name == "resolve":
            # An unlabelled plain future (e.g. a sleep created at setup
            # time): resolving it touches only the future object and the
            # ready deque, so distinct futures commute; the callbacks it
            # enqueues become their own (separately footprinted) events.
            label = f"future-{id(owner)}"
        return Footprint(node=label) if label else UNIVERSAL
    return UNIVERSAL


def _process_footprint(label: Optional[str], name: str) -> Footprint:
    label = label or str(name).split(":", 1)[0]
    return Footprint(node=label) if label else UNIVERSAL


def independent(a: Footprint, b: Footprint) -> bool:
    """True iff the two events provably commute.

    Requires: neither universal, not both RNG-drawing, distinct known
    nodes, disjoint message tokens, disjoint lease/object keys.
    """
    if a.universal or b.universal:
        return False
    if a.rng and b.rng:
        return False
    if a.node is None or b.node is None or a.node == b.node:
        return False
    if a.tokens and b.tokens and not a.tokens.isdisjoint(b.tokens):
        return False
    if a.keys and b.keys and not a.keys.isdisjoint(b.keys):
        return False
    return True


class CountingRandom(random.Random):
    """``random.Random`` with a draw counter and bit-identical output.

    Every primitive the Mersenne generator exposes funnels through
    ``random()`` or ``getrandbits()`` (``Random._randbelow`` uses
    ``getrandbits``), so counting those two covers ``uniform``,
    ``randrange``, ``sample``, ``choice``, shuffles — everything the
    simulation draws.  The values are untouched, so swapping this in
    for ``Simulator.rng`` cannot change a run.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__(seed)
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)
