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
the chaos tooling composes *windowed* faults at runtime, each returning a
token that removes exactly that fault:

* :meth:`partition` → token consumed by :meth:`heal`; overlapping
  partitions heal independently (a pair stays blocked while any active
  partition separates it);
* :meth:`degrade_link` → per-link extra delay and/or loss (gray links);
* :meth:`add_loss_window` / :meth:`add_duplication_window` → network-wide
  extra loss/duplication that stacks independently with the base rates.

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
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

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
        #: manual blocks (idempotent block/unblock API)
        self._blocked_pairs: Set[Tuple[str, str]] = set()
        #: token → the set of pairs that partition blocks; a pair is
        #: blocked while *any* active partition contains it, so
        #: overlapping partition windows heal independently
        self._partitions: Dict[int, Set[Tuple[str, str]]] = {}
        self._partition_counts: Counter = Counter()
        #: token → [(pair, extra_delay_ms, loss_probability)] gray links
        self._link_faults: Dict[int, List[Tuple[Tuple[str, str], float, float]]] = {}
        self._link_delay: Dict[Tuple[str, str], float] = {}
        self._link_loss: Dict[Tuple[str, str], List[float]] = {}
        #: token → extra network-wide loss / duplication probability
        self._loss_windows: Dict[int, float] = {}
        self._dup_windows: Dict[int, float] = {}
        self._next_token = 1
        #: (src, dst) → ``(node, blocked, base_ms, jitter_ms, extra_ms,
        #: loss)``, resolved from the tables above on first use and
        #: dropped wholesale by every method that changes one of them
        self._links: Dict[Tuple[str, str], tuple] = {}
        self._message_taps: list = []
        #: optional observability context (``repro.obs.Observability``);
        #: ``None`` — the default — means fully disabled, and every hook
        #: site below is a single ``is not None`` check.
        self.obs = None

    def _new_token(self) -> int:
        token = self._next_token
        self._next_token += 1
        return token

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

    # -- partitions -------------------------------------------------------

    def block(self, a: str, b: str, symmetric: bool = True) -> None:
        """Drop all traffic from *a* to *b* (and back when symmetric)."""
        self._blocked_pairs.add((a, b))
        if symmetric:
            self._blocked_pairs.add((b, a))
        self._links.clear()

    def unblock(self, a: str, b: str, symmetric: bool = True) -> None:
        """Remove a block installed by :meth:`block` (idempotent)."""
        self._blocked_pairs.discard((a, b))
        if symmetric:
            self._blocked_pairs.discard((b, a))
        self._links.clear()

    def partition(self, *groups: Iterable[str]) -> int:
        """Partition the network into the given groups; returns a token.

        Traffic between nodes in different groups is dropped; traffic
        within a group flows normally.  Nodes not named in any group are
        unaffected.  Passing the returned token to :meth:`heal` removes
        exactly this partition's blocks, so overlapping fault windows
        compose: a pair stays severed while *any* active partition
        separates it.
        """
        pairs: Set[Tuple[str, str]] = set()
        group_sets = [set(g) for g in groups]
        for i, ga in enumerate(group_sets):
            for gb in group_sets[i + 1:]:
                for a in ga:
                    for b in gb:
                        pairs.add((a, b))
                        pairs.add((b, a))
        token = self._new_token()
        self._partitions[token] = pairs
        self._partition_counts.update(pairs)
        self._links.clear()
        return token

    def heal(self, token: Optional[int] = None) -> None:
        """Remove partitions/blocks.

        Without a token this is heal-everything: every manual block and
        every active partition disappears.  With a token, only the blocks
        installed by that :meth:`partition` call are removed (idempotent:
        an unknown or already-healed token is a no-op).
        """
        self._links.clear()
        if token is None:
            self._blocked_pairs.clear()
            self._partitions.clear()
            self._partition_counts.clear()
            return
        pairs = self._partitions.pop(token, None)
        if pairs is None:
            return
        self._partition_counts.subtract(pairs)
        # Counter.subtract keeps zero entries; purge them so membership
        # checks and len() stay meaningful.
        for pair in pairs:
            if self._partition_counts[pair] <= 0:
                del self._partition_counts[pair]

    def is_blocked(self, src: str, dst: str) -> bool:
        pair = (src, dst)
        return pair in self._blocked_pairs or pair in self._partition_counts

    # -- gray failures ----------------------------------------------------

    def degrade_link(
        self,
        a: str,
        b: str,
        extra_delay_ms: float = 0.0,
        loss_probability: float = 0.0,
        symmetric: bool = True,
    ) -> int:
        """Degrade the a→b link (and b→a when symmetric): add one-way
        delay and/or independent loss.  Returns a token for
        :meth:`restore_link`.  Degradations stack: concurrent faults on
        the same link add their delays and compound their loss
        probabilities."""
        if extra_delay_ms < 0:
            raise ValueError("extra_delay_ms must be non-negative")
        if not 0.0 <= loss_probability <= 1.0:
            raise ValueError("loss_probability must be in [0, 1]")
        pairs = [(a, b)] + ([(b, a)] if symmetric else [])
        entries = []
        for pair in pairs:
            entries.append((pair, extra_delay_ms, loss_probability))
            self._link_delay[pair] = self._link_delay.get(pair, 0.0) + extra_delay_ms
            if loss_probability:
                self._link_loss.setdefault(pair, []).append(loss_probability)
        token = self._new_token()
        self._link_faults[token] = entries
        self._links.clear()
        return token

    def restore_link(self, token: int) -> None:
        """Undo one :meth:`degrade_link` (idempotent on unknown tokens)."""
        entries = self._link_faults.pop(token, None)
        if entries is None:
            return
        self._links.clear()
        for pair, delay, loss in entries:
            remaining = self._link_delay.get(pair, 0.0) - delay
            if remaining > 1e-12:
                self._link_delay[pair] = remaining
            else:
                self._link_delay.pop(pair, None)
            if loss:
                probs = self._link_loss.get(pair, [])
                if loss in probs:
                    probs.remove(loss)
                if not probs:
                    self._link_loss.pop(pair, None)

    def link_extra_delay(self, src: str, dst: str) -> float:
        """Summed gray-failure delay currently afflicting src→dst."""
        return self._link_delay.get((src, dst), 0.0)

    def link_loss_probability(self, src: str, dst: str) -> float:
        """Compound gray-failure loss currently afflicting src→dst."""
        survive = 1.0
        for p in self._link_loss.get((src, dst), ()):
            survive *= 1.0 - p
        return 1.0 - survive

    def add_loss_window(self, probability: float) -> int:
        """Add network-wide message loss on top of the base rate; the
        returned token removes it (:meth:`remove_loss_window`).  Windows
        compound independently with each other and the base rate."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        token = self._new_token()
        self._loss_windows[token] = probability
        self._links.clear()
        return token

    def remove_loss_window(self, token: int) -> None:
        self._loss_windows.pop(token, None)
        self._links.clear()

    def add_duplication_window(self, probability: float) -> int:
        """Add network-wide duplication on top of the base rate; the
        returned token removes it (:meth:`remove_duplication_window`)."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        token = self._new_token()
        self._dup_windows[token] = probability
        return token

    def remove_duplication_window(self, token: int) -> None:
        self._dup_windows.pop(token, None)

    def effective_loss_probability(self, src: str, dst: str) -> float:
        """Base loss, loss windows, and link degradation, compounded."""
        survive = 1.0 - self.loss_probability
        for p in self._loss_windows.values():
            survive *= 1.0 - p
        survive *= 1.0 - self.link_loss_probability(src, dst)
        return 1.0 - survive

    def effective_duplicate_probability(self) -> float:
        survive = 1.0 - self.duplicate_probability
        for p in self._dup_windows.values():
            survive *= 1.0 - p
        return 1.0 - survive

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

        node, blocked, base, jitter, extra, loss = (
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
        if self.duplicate_probability or self._dup_windows:
            dup = self.effective_duplicate_probability()
            if dup and self._dup_rng.random() < dup:
                stats.duplicated += 1
                if self.obs is not None:
                    self.obs.on_duplicate(message)
                # The duplicate's delay comes from the dup stream too, so a
                # duplication event never perturbs the primary delay sequence.
                delay = self.delay_model.delay(message.src, message.dst, self._dup_rng)
                self._schedule_delivery(message.duplicate(), delay + extra)

    def _resolve(self, pair: Tuple[str, str]) -> tuple:
        """Build and remember *pair*'s link record from what the public
        queries say now.  An unroutable pair is never put to the delay
        model, which may not know the node."""
        src, dst = pair
        node = self._nodes.get(dst)
        blocked = self.is_blocked(src, dst)
        link = getattr(self.delay_model, "link", None)
        routable = link is not None and node is not None and not blocked
        base, jitter = (link(src, dst) if routable else None) or (None, 0.0)
        record = self._links[pair] = (
            node, blocked, base, jitter, self.link_extra_delay(src, dst),
            self.effective_loss_probability(src, dst))
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
