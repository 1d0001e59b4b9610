"""Recording/replaying schedule controllers.

The kernel exposes two kinds of *decision points* to an installed
:class:`~repro.sim.kernel.ScheduleController`:

``event``
    More than one event is runnable at the current simulated instant
    (same-instant ready-lane work and due heap timers); the controller
    picks which executes next.  The canonical kernel order is choice
    ``0`` at every such point.

``deliver``
    The network asks :meth:`message_delay` for every accepted message;
    the controller may *defer* the delivery by ``k * defer_ms`` for a
    choice ``k`` in ``0 .. max_defer``.  Choice ``0`` keeps the delay
    model's draw untouched.  Deferral is legal behaviour under the
    paper's asynchronous network model (arbitrary delay and reordering),
    so any safety violation reached through it is a real protocol bug.

A whole schedule is therefore just a list of small integers — one per
decision point, in the deterministic order the points occur.  The
:class:`RecordingController` replays a *forced* prefix of such choices,
asks an optional fallback policy beyond it (the random-walk strategy),
defaults to canonical ``0``, and records every decision it made, which
is what lets the explorer branch (DFS), shrink (ddmin over non-zero
choices), and persist byte-replayable repros.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..bounds import require
from ..sim.kernel import ScheduleController
from .por import Footprint, footprint_of

__all__ = ["Decision", "RecordingController", "walk_policy"]


class Decision(NamedTuple):
    """One recorded scheduling decision.

    ``kind`` is ``"event"`` or ``"deliver"``, ``n`` the number of
    alternatives that were available, ``chosen`` the index taken
    (``0 <= chosen < n``; ``0`` is always the canonical choice).

    ``footprints`` is only populated on ``event`` decisions with index
    below the recorded depth (``footprint_depth``): the POR footprint of
    each slot alternative, in offer order.  It is *metadata for the DFS*
    — deliberately excluded from serialized repros so witness bytes are
    identical with and without tracking.  A NamedTuple, built once per
    decision by :meth:`RecordingController.finalize` (``Decision._make``).
    """

    kind: str
    n: int
    chosen: int
    footprints: Optional[Tuple[Footprint, ...]] = None


class RecordingController(ScheduleController):
    """Replays forced choices, then consults a fallback policy, recording
    everything.

    Parameters
    ----------
    forced:
        Choice prefix to replay.  Values are clamped into range, so a
        prefix recorded against a slightly different run can never crash
        the kernel — it just degenerates toward the canonical schedule.
    fallback:
        ``(kind, n) -> int`` policy consulted past the forced prefix;
        ``None`` means canonical (always ``0``).
    defer_ms:
        Deferral quantum for delivery choices.
    max_defer:
        Highest deferral multiple, so each delivery point has
        ``max_defer + 1`` alternatives.
    footprint_depth:
        Record per-alternative POR footprints (see :mod:`repro.mc.por`)
        on the ``event`` decisions with index below this depth — the
        DFS passes the depth it can branch to; ``0`` records none.  A
        non-zero depth opts the controller into the kernel's slot-aware
        protocol (``wants_slot``), which also makes the kernel publish
        ownership labels (``Simulator.exec_label``) so sleeps/processes
        inherit their owning node.  The decision reaching the depth drops
        ``wants_slot``; the kernel hooks on until the slot drains, so all
        entries offered below it get their draws (DESIGN.md §13).
        Choices and decision order are identical for every depth.
    """

    def __init__(
        self,
        forced: Sequence[int] = (),
        fallback: Optional[Callable[[str, int], int]] = None,
        *,
        defer_ms: float = 650.0,
        max_defer: int = 1,
        footprint_depth: int = 0,
    ) -> None:
        require("defer_ms", defer_ms, 0)
        require("max_defer", max_defer, 0)
        self.forced = list(forced)
        self.fallback = fallback
        self.defer_ms = defer_ms
        self.max_defer = max_defer
        self._recorded: List[tuple] = []  # (kind, n, chosen, None)
        self._decisions: Optional[List[Decision]] = None  # by finalize()
        self.footprint_depth = footprint_depth
        self.wants_slot = footprint_depth > 0
        #: the run's shared RNG when it is a :class:`CountingRandom`;
        #: bound by the runner so draws can be attributed to events.
        self.rng: Any = None
        # decision index -> mutable footprint list for that slot
        self._slot_fps: Dict[int, List[Footprint]] = {}
        # id(entry) -> (entry ref, its footprint, [(decision index,
        # position)]) for every entry offered below the depth — strong
        # refs guard against id() reuse after an entry is garbage-collected
        self._offered: Dict[
            int, Tuple[Any, Footprint, List[Tuple[int, int]]]
        ] = {}
        # the executing entry's ``_offered`` record (None: never offered)
        self._executing: Optional[tuple] = None
        self._draws_before: int = 0

    @property
    def decisions(self) -> List[Decision]:
        """Every decision so far; footprints only once :meth:`finalize` ran."""
        return self._decisions or list(map(Decision._make, self._recorded))

    def _choose(self, kind: str, n: int) -> int:
        index = len(self._recorded)
        if index < len(self.forced):
            chosen = max(0, min(int(self.forced[index]), n - 1))
        elif self.fallback is not None:
            chosen = max(0, min(int(self.fallback(kind, n)), n - 1))
        else:
            chosen = 0
        self._recorded.append((kind, n, chosen, None))
        if index + 1 == self.footprint_depth:
            self.wants_slot = False  # no later decision falls below it
        return chosen

    # -- ScheduleController interface --------------------------------------

    def choose_event(self, n: int) -> int:
        return self._choose("event", n)

    def choose_event_slot(self, slot: List[tuple]) -> int:
        """Slot-aware :meth:`choose_event`, consulted instead while
        ``wants_slot`` holds.  *slot* is the list of ``(timer_or_None,
        fn, args)`` entries runnable at this instant, in canonical order;
        the controller may inspect (but must not mutate) it."""
        index = len(self._recorded)
        if index < self.footprint_depth:
            offered = self._offered
            fps = self._slot_fps[index] = []
            for pos, entry in enumerate(slot):
                record = offered.get(id(entry))
                if record is None:
                    record = offered[id(entry)] = (
                        entry, footprint_of(entry), []
                    )
                record[2].append((index, pos))
                fps.append(record[1])
        return self._choose("event", len(slot))

    def note_executed(self, entry: Optional[tuple]) -> Optional[str]:
        """Called (only while ``wants_slot`` holds) immediately before each
        controlled event executes — including singleton slots that never
        reach :meth:`choose_event_slot`.  Returns an optional ownership
        label; the kernel publishes it as ``Simulator.exec_label`` for the
        duration of the event, so futures created during execution
        inherit their owner.  Called with ``None`` once the kernel has
        seen ``wants_slot`` drop."""
        self._flush_rng()
        record = self._executing = self._offered.get(id(entry))
        if record is not None:
            if self.rng is not None:
                self._draws_before = self.rng.draws
            return record[1].node
        if self.wants_slot:
            # Never offered (a singleton slot): what it spawns may still
            # be offered below the depth and needs its ownership label.
            return footprint_of(entry).node
        return None

    def finalize(self) -> None:
        """Build :attr:`decisions`, folding in the recorded footprints.

        Call once after the run completes.  Flushes the pending RNG
        attribution for the last executed event, builds one ``Decision``
        per decision (the tracked ones with their footprint tuple), and
        lets go of the offered entries — bound methods of the world's
        processes and nodes, which lead back here through the simulator.
        """
        self._flush_rng()
        self._executing = None
        self._offered.clear()
        recorded = self._recorded
        for i, fps in self._slot_fps.items():
            recorded[i] = recorded[i][:3] + (tuple(fps),)
        self._decisions = list(map(Decision._make, recorded))

    def _flush_rng(self) -> None:
        """Attribute shared-RNG draws to the event that just executed.

        An event that consumed randomness conflicts with every *other*
        rng-consuming event through the shared draw sequence (swapping
        two drawers reassigns their draws), so its footprint is marked
        ``rng`` at every decision that offered it (its ``_offered``
        record remembers each offer); non-drawing events still commute
        with it.  An entry never offered below the depth has no record
        and nothing to mark.
        """
        record = self._executing
        if record is None or self.rng is None:
            return
        if self.rng.draws == self._draws_before:
            return
        for index, pos in record[2]:
            fp = self._slot_fps[index][pos]
            self._slot_fps[index][pos] = dataclasses.replace(fp, rng=True)

    def message_delay(self, message: Any, delay: float) -> float:
        if self.max_defer == 0:
            return delay
        return delay + self._choose("deliver", self.max_defer + 1) * self.defer_ms


def walk_policy(seed_text: str, p_deviate: float) -> Callable[[str, int], int]:
    """A seeded random-walk fallback: deviate from canonical with
    probability *p_deviate*, picking uniformly among the non-canonical
    alternatives.  String seeding keeps the walk process-stable.
    """
    rng = random.Random(seed_text)

    def policy(_kind: str, n: int) -> int:
        if n > 1 and rng.random() < p_deviate:
            return rng.randrange(1, n)
        return 0

    return policy
