"""Simulated wide-area network.

The network delivers :class:`~repro.sim.messages.Message` objects between
registered nodes with configurable per-pair delays, and can inject the
failure modes the paper's system model allows: message delay, loss,
duplication, and reordering, plus network partitions.  Corrupted messages
are assumed to be detected by checksums and silently dropped, so
corruption is modelled identically to loss.

Delay models
------------
Delays are supplied by a *delay model*: any object with a
``delay(src, dst, rng) -> float`` method; one that also answers
``link(src, dst)`` is resolved once per link instead of per message
(DESIGN.md §4, "Message path").  :class:`ConstantDelay`,
:class:`MatrixDelay`, and :class:`JitteredDelay` cover the configurations
used in the paper's evaluation; ``repro.edge.topology`` builds the
paper's specific LAN/WAN matrix on top of :class:`MatrixDelay`.

Statistics
----------
The network counts every message it accepts, per kind and per (src, dst)
pair; the communication-overhead experiments (Figure 9) read these
counters.  ``snapshot()``/``reset_counters()`` delimit measurement
windows so warm-up traffic can be excluded.

Fault windows
-------------
Beyond the constructor-level ``loss_probability``/``duplicate_probability``,
faults are *windows* in one token-keyed table.  A window names the links
it covers (a set of ``(src, dst)`` pairs, or every link) and what it does
to them: block them, add one-way delay, add loss, add duplication.
:meth:`add_fault` opens one and returns its token, :meth:`partition`
opens the block window of a group split, and :meth:`heal` closes one
window (or all of them).  :meth:`link_faults` reads the table: a link is
blocked while *any* open window blocks it, delays add up, and loss and
duplication compound independently with each other and the base rates.
So overlapping windows compose, and closing one removes exactly what it
added.

Determinism
-----------
Loss, duplication, and delivery-delay randomness each draw from a
dedicated RNG stream derived from the simulation seed (never from the
shared ``sim.rng``).  Toggling a fault lane on or off therefore only
affects that lane: a run with ``duplicate_probability=0.0`` is
byte-identical to one where the flag was never set, and surviving
messages in a lossy run keep the delays of the lossless run.  When a
:class:`~repro.sim.kernel.ScheduleController` is installed, it may
additionally rewrite each delivery delay (``message_delay``), which is
how the ``repro.mc`` explorer enumerates delivery orders.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from .kernel import Simulator
from .messages import Message

__all__ = [
    "DelayModel",
    "ConstantDelay",
    "MatrixDelay",
    "JitteredDelay",
    "NetworkStats",
    "Network",
]


class DelayModel:
    """Interface for one-way delay computation (milliseconds)."""

    def link(self, src: str, dst: str) -> Optional[Tuple[float, float]]:
        """``(base_ms, jitter_ms)`` when every src→dst delay is ``base_ms``
        plus — if ``jitter_ms`` is nonzero — one ``rng.uniform(0.0,
        jitter_ms)`` draw; the network then resolves the link once.
        ``None`` (the default): :meth:`delay` is called per message."""
        return None

    def delay(self, src: str, dst: str, rng) -> float:
        fixed = self.link(src, dst)
        if fixed is None:
            raise NotImplementedError
        base, jitter = fixed
        return base + rng.uniform(0.0, jitter) if jitter else base


class ConstantDelay(DelayModel):
    """The same one-way delay for every pair of nodes."""

    def __init__(self, delay_ms: float) -> None:
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        self.delay_ms = delay_ms

    def link(self, src: str, dst: str) -> Tuple[float, float]:
        return self.delay_ms, 0.0


class MatrixDelay(DelayModel):
    """Per-pair delays from an explicit matrix, with a default fallback.

    ``matrix`` maps ``(src, dst)`` to a one-way delay.  Lookups fall back
    to ``(dst, src)`` (symmetric links) and then to ``default_ms``.
    """

    def __init__(self, matrix: Dict[Tuple[str, str], float], default_ms: float = 0.0) -> None:
        self.matrix = dict(matrix)
        self.default_ms = default_ms

    def set(self, src: str, dst: str, delay_ms: float, symmetric: bool = True) -> None:
        """Set the delay for a pair (and its reverse when *symmetric*)."""
        self.matrix[(src, dst)] = delay_ms
        if symmetric:
            self.matrix[(dst, src)] = delay_ms

    def link(self, src: str, dst: str) -> Tuple[float, float]:
        if (src, dst) in self.matrix:
            return self.matrix[(src, dst)], 0.0
        if (dst, src) in self.matrix:
            return self.matrix[(dst, src)], 0.0
        return self.default_ms, 0.0


class JitteredDelay(DelayModel):
    """Wrap another model, adding uniform jitter in ``[0, jitter_ms]``.

    Jitter makes message *reordering* possible: two messages on the same
    link may be delivered out of send order, which the paper's network
    model explicitly permits.
    """

    def __init__(self, base: DelayModel, jitter_ms: float) -> None:
        if jitter_ms < 0:
            raise ValueError("jitter must be non-negative")
        self.base = base
        self.jitter_ms = jitter_ms

    def delay(self, src: str, dst: str, rng) -> float:
        return self.base.delay(src, dst, rng) + rng.uniform(0.0, self.jitter_ms)

    def link(self, src: str, dst: str) -> Optional[Tuple[float, float]]:
        fixed = self.base.link(src, dst)  # a jittered base draws twice
        return None if fixed is None or fixed[1] else (fixed[0], self.jitter_ms)


class NetworkStats:
    """Counters for traffic accepted by the network.

    Byte counters are populated when the network has a *size model*
    (any callable ``Message -> int``); without one, only message counts
    are tracked — the paper's Figure 9 accounting.
    """

    def __init__(self) -> None:
        self.total_messages = 0
        self.by_kind: Counter = Counter()
        self.by_pair: Counter = Counter()
        self.total_bytes = 0
        self.bytes_by_kind: Counter = Counter()
        self.dropped = 0
        self.duplicated = 0
        #: messages addressed to an id no node registered (counted in
        #: ``dropped`` as well) — chaos schedules may name nodes that a
        #: particular deployment does not instantiate
        self.unknown_destination = 0

    def copy(self) -> "NetworkStats":
        out = NetworkStats()
        out.total_messages = self.total_messages
        out.by_kind = Counter(self.by_kind)
        out.by_pair = Counter(self.by_pair)
        out.total_bytes = self.total_bytes
        out.bytes_by_kind = Counter(self.bytes_by_kind)
        out.dropped = self.dropped
        out.duplicated = self.duplicated
        out.unknown_destination = self.unknown_destination
        return out

    def diff(self, earlier: "NetworkStats") -> "NetworkStats":
        """Counters accumulated since *earlier* (a prior ``copy()``)."""
        out = NetworkStats()
        out.total_messages = self.total_messages - earlier.total_messages
        out.by_kind = self.by_kind - earlier.by_kind
        out.by_pair = self.by_pair - earlier.by_pair
        out.total_bytes = self.total_bytes - earlier.total_bytes
        out.bytes_by_kind = self.bytes_by_kind - earlier.bytes_by_kind
        out.dropped = self.dropped - earlier.dropped
        out.duplicated = self.duplicated - earlier.duplicated
        out.unknown_destination = self.unknown_destination - earlier.unknown_destination
        return out


class Network:
    """Routes messages between nodes over a delay model with fault injection.

    Parameters
    ----------
    sim:
        The simulation kernel used for scheduling deliveries.
    delay_model:
        One-way delay source; defaults to zero delay.
    loss_probability:
        Independent probability that any message is silently dropped.
    duplicate_probability:
        Independent probability that a message is delivered twice (the
        second copy takes an independently drawn delay).
    """

    def __init__(
        self,
        sim: Simulator,
        delay_model: Optional[DelayModel] = None,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
        size_model: Optional[Callable[[Message], int]] = None,
    ) -> None:
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be in [0, 1]")
        self.sim = sim
        self.delay_model = delay_model or ConstantDelay(0.0)
        self.loss_probability = loss_probability
        self.duplicate_probability = duplicate_probability
        # Per-purpose RNG streams, derived from the simulation seed (str
        # seeding is hash-salt-free and process-stable).  Loss,
        # duplication, and delivery-delay draws must NOT share one
        # stream: with a shared stream, merely *enabling* a fault lane
        # (a loss window, a nonzero duplicate probability) consumes an
        # extra draw per message and thereby reshuffles every downstream
        # delay — a probabilistic no-op flag becomes a trace-visible
        # perturbation.  With dedicated streams, each lane's draw
        # sequence is a function of the accepted-message sequence alone,
        # so e.g. a lossy run delivers every *surviving* message at
        # exactly the delay the lossless run gave it
        # (tests/test_sim_network.py locks this in).
        seed = getattr(sim, "seed", 0)
        self._delay_rng = random.Random(f"net-delay:{seed}")
        self._loss_rng = random.Random(f"net-loss:{seed}")
        self._dup_rng = random.Random(f"net-dup:{seed}")
        #: optional Message -> bytes estimator for byte accounting
        self.size_model = size_model
        self.stats = NetworkStats()
        self._nodes: Dict[str, "NodeLike"] = {}
        #: token → open fault window ``(pairs, blocked, extra_ms, loss,
        #: dup)``, in opening order; ``pairs`` is ``None`` for every link
        self._faults: Dict[int, tuple] = {}
        self._next_token = 1
        #: (src, dst) → ``(node, blocked, base_ms, jitter_ms, extra_ms,
        #: loss, dup)``, resolved from the node and fault tables on first
        #: use and dropped wholesale by every method that changes one
        self._links: Dict[Tuple[str, str], tuple] = {}
        self._message_taps: list = []
        #: optional observability context (``repro.obs.Observability``);
        #: ``None`` — the default — means fully disabled, and every hook
        #: site below is a single ``is not None`` check.
        self.obs = None

    # -- membership -------------------------------------------------------

    def register(self, node: "NodeLike") -> None:
        """Attach a node; its ``node_id`` becomes routable."""
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        self._links.clear()

    def node(self, node_id: str) -> "NodeLike":
        return self._nodes[node_id]

    @property
    def node_ids(self) -> Iterable[str]:
        return self._nodes.keys()

    # -- fault windows ----------------------------------------------------

    def add_fault(
        self,
        pairs: Optional[Iterable[Tuple[str, str]]] = None,
        *,
        blocked: bool = False,
        extra_delay_ms: float = 0.0,
        loss_probability: float = 0.0,
        duplicate_probability: float = 0.0,
    ) -> int:
        """Open a fault window on the directed ``(src, dst)`` *pairs* —
        every link when ``None`` — and return the token :meth:`heal`
        closes it with.  The window drops the links' traffic when
        *blocked*, and otherwise adds one-way delay, loss and
        duplication to what every other open window does."""
        if not extra_delay_ms >= 0:
            raise ValueError("extra_delay_ms must be non-negative")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        if not 0.0 <= duplicate_probability <= 1.0:
            raise ValueError("duplicate_probability must be in [0, 1]")
        token = self._next_token
        self._next_token += 1
        self._faults[token] = (
            None if pairs is None else frozenset(pairs), blocked,
            extra_delay_ms, loss_probability, duplicate_probability)
        self._links.clear()
        return token

    def partition(self, *groups: Iterable[str]) -> int:
        """Partition the network into the given groups; returns a token.

        Traffic between nodes in different groups is dropped; traffic
        within a group flows normally.  Nodes not named in any group are
        unaffected.  The partition is one blocking :meth:`add_fault`
        window, so a pair stays severed while *any* open window blocks it.
        """
        pairs: Set[Tuple[str, str]] = set()
        group_sets = [set(g) for g in groups]
        for i, ga in enumerate(group_sets):
            for gb in group_sets[i + 1:]:
                for a in ga:
                    for b in gb:
                        pairs.add((a, b))
                        pairs.add((b, a))
        return self.add_fault(pairs, blocked=True)

    def heal(self, token: Optional[int] = None) -> None:
        """Close the fault window *token* (an unknown or already-closed
        token is a no-op), or every open window when no token is given."""
        if token is None:
            self._faults.clear()
        else:
            self._faults.pop(token, None)
        self._links.clear()

    def link_faults(self, src: str, dst: str) -> Tuple[bool, float, float, float]:
        """``(blocked, extra_delay_ms, loss, dup)`` the open windows and
        the base rates put on src→dst now."""
        pair = (src, dst)
        blocked = False
        extra = 0.0
        keep = 1.0 - self.loss_probability
        single = 1.0 - self.duplicate_probability
        for pairs, blocks, delay, loss, dup in self._faults.values():
            if pairs is None or pair in pairs:
                blocked = blocked or blocks
                extra += delay
                keep *= 1.0 - loss
                single *= 1.0 - dup
        return blocked, extra, 1.0 - keep, 1.0 - single

    # -- observation ------------------------------------------------------

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Register a callback observing every accepted message (tracing)."""
        self._message_taps.append(tap)

    def snapshot(self) -> NetworkStats:
        """A copy of the counters, for window-based measurement."""
        return self.stats.copy()

    def reset_counters(self) -> None:
        self.stats = NetworkStats()

    def close(self) -> None:
        """Unplug a finished world (idempotent); the partner of
        :meth:`Simulator.close <repro.sim.kernel.Simulator.close>`.

        Every node loses its ``net`` back-reference and the RPCs it was
        still awaiting (``(sink, timer)`` entries, whose sink — a future
        or a reply callback — holds its caller and so the node), and the
        message taps are dropped, which breaks the network ↔ node and
        network ↔ monitor cycles, so the world is freed by reference
        count.  The node table itself stays — ``node_ids`` / ``node()``
        keep working for post-run scrapers, as do ``stats``, ``obs`` and
        every node's own state — but nothing can be sent any more, and
        ``Node.obs_tracer`` reads ``None``.
        """
        for node in self._nodes.values():
            node.net = None
            node._pending_rpcs.clear()
        self._message_taps.clear()
        self._links.clear()

    # -- transmission -----------------------------------------------------

    def send(self, message: Message) -> None:
        """Accept a message for delivery (or inject a fault instead)."""
        message.send_time = self.sim.now
        pair = (message.src, message.dst)
        stats = self.stats
        stats.total_messages += 1
        stats.by_kind[message.kind] += 1
        stats.by_pair[pair] += 1
        if self.obs is not None or self._message_taps or self.size_model is not None:
            size = self.size_model(message) if self.size_model is not None else 0
            if size:
                stats.total_bytes += size
                stats.bytes_by_kind[message.kind] += size
            for tap in self._message_taps:
                tap(message)
            if self.obs is not None:
                self.obs.on_send(message, size)

        node, blocked, base, jitter, extra, loss, dup = (
            self._links.get(pair) or self._resolve(pair))
        if node is None:
            # Chaos schedules may address nodes a deployment never
            # instantiated; mid-simulation that is a black hole, not a
            # programming error.
            stats.unknown_destination += 1
            return self._drop(message, "unknown_destination")
        if blocked:
            return self._drop(message, "partition")
        # Fixed draw sequence: one delivery-delay draw per accepted
        # message, consumed *before* the loss gate — losing a message
        # filters the delay sequence instead of shifting it, so every
        # survivor keeps exactly the delay the lossless run gave it.
        if base is None:
            delay = self.delay_model.delay(message.src, message.dst, self._delay_rng)
        elif jitter:
            delay = base + self._delay_rng.uniform(0.0, jitter)
        else:
            delay = base
        if loss and self._loss_rng.random() < loss:
            return self._drop(message, "loss")

        self._schedule_delivery(message, delay + extra)
        if dup and self._dup_rng.random() < dup:
            stats.duplicated += 1
            if self.obs is not None:
                self.obs.on_duplicate(message)
            # The duplicate's delay comes from the dup stream too, so a
            # duplication event never perturbs the primary delay sequence.
            delay = self.delay_model.delay(message.src, message.dst, self._dup_rng)
            self._schedule_delivery(message.duplicate(), delay + extra)

    def _resolve(self, pair: Tuple[str, str]) -> tuple:
        """Build and remember *pair*'s link record from the node table and
        :meth:`link_faults` now.  An unroutable pair is never put to the
        delay model, which may not know the node."""
        src, dst = pair
        node = self._nodes.get(dst)
        blocked, extra, loss, dup = self.link_faults(src, dst)
        link = getattr(self.delay_model, "link", None)
        routable = link is not None and node is not None and not blocked
        base, jitter = (link(src, dst) if routable else None) or (None, 0.0)
        record = self._links[pair] = (node, blocked, base, jitter, extra, loss, dup)
        return record

    def _drop(self, message: Message, reason: str) -> None:
        self.stats.dropped += 1
        if self.obs is not None:
            self.obs.on_drop(message, reason)

    def _schedule_delivery(self, message: Message, delay: float) -> None:
        controller = self.sim.controller
        if controller is not None:
            delay = controller.message_delay(message, delay)
        # Deliveries are never cancelled, so skip the Timer handle.
        self.sim.call_later(delay, self._deliver, message)

    def _deliver(self, message: Message) -> None:
        pair = (message.src, message.dst)
        link = self._links.get(pair) or self._resolve(pair)
        if link[0] is None:  # pragma: no cover - node removal is not modelled
            return
        # Partitions that formed while the message was in flight also drop
        # it: a partition severs the physical path.
        if link[1]:
            return self._drop(message, "partition_in_flight")
        if self.obs is not None:
            self.obs.on_deliver(message)
        link[0].deliver(message)


class NodeLike:
    """Structural interface the network expects (see repro.sim.node)."""

    node_id: str

    def deliver(self, message: Message) -> None:  # pragma: no cover - interface
        raise NotImplementedError
