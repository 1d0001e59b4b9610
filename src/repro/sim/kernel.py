"""Deterministic discrete-event simulation kernel.

This module provides the substrate on which every protocol in this
repository runs: a simulated clock, an event queue, and lightweight
generator-based *processes* that can wait on :class:`Future` objects.

The kernel is deliberately small and fully deterministic:

* every event carries a global sequence number, and events execute in
  strict ``(time, sequence_number)`` order, so two events scheduled for
  the same simulated instant always fire in the order they were
  scheduled;
* all randomness used by a simulation flows through ``Simulator.rng``,
  a single seeded :class:`random.Random`;
* nothing in the kernel reads the wall clock or any interpreter
  internal (reference counts, object ids, hash order).

Internally there are two lanes.  Zero-delay work — ``call_soon``,
future-callback firing, process resumption — goes on a FIFO *ready
deque* (asyncio style); entries on the deque are always due at the
current instant, so FIFO order *is* sequence order within the lane.
Real timers (``delay > 0``) live on one binary heap of
``(when, seq, timer_or_None, fn, args)`` entries; a cancelled timer
stays there as a tombstone until popped or swept (:meth:`Simulator.
_sweep`).  When the clock advances, *every* timer due at the new
instant is moved to the ready deque before the first of them runs, so
zero-delay work scheduled by those callbacks lands behind them — the
interleaving of a single ``(time, seq)`` priority queue, which the
golden trace in ``tests/test_sim_kernel.py`` locks in byte for byte and
the single-heap oracle in ``tests/test_kernel_oracle.py`` checks on
random programs.

The canonical order is a *choice* among many legal ones: two events due
at the same instant have no causal order.  Installing a
:class:`ScheduleController` (``sim.controller = ...``) switches the run
loop onto a slower controlled path that exposes exactly those choices to
a schedule-space explorer (:mod:`repro.mc`); with no controller — the
default — the fast path below is untouched.

Processes are written as plain Python generators.  A process *yields*
awaitables to suspend itself::

    def handler(env):
        yield env.sleep(5.0)              # wait 5 simulated ms
        reply = yield rpc_future          # wait for a Future to resolve
        result = yield env.spawn(child()) # wait for a child process

Time units are **milliseconds** throughout the repository, matching the
paper's delay parameters (8 ms LAN, 86 ms client WAN, 80 ms server WAN).
"""

from __future__ import annotations

import gc
import heapq
import random
from collections import deque
from contextlib import contextmanager
from typing import (
    Any, Callable, Generator, Iterable, Iterator, List, Optional, Tuple, Union,
)

__all__ = [
    "SimulationError",
    "ProcessFailure",
    "Future",
    "Process",
    "Timer",
    "ScheduleController",
    "Simulator",
    "collector_paused",
    "all_of",
    "all_settled",
    "any_of",
]

#: sweep floor: fewer tombstones than this are never worth a rebuild
_SWEEP_MIN_TOMBSTONES = 512


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause CPython's cycle collector; restore the caller's setting on
    every exit.  What a run discards is acyclic and dies by reference
    count, so a collection inside the loop walks the live world to find
    nothing (DESIGN.md §4, "The collector and the run loop")."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _StopRun(Exception):
    """Raised by the stop callback of ``Simulator.run(until=<Future>)``."""


class ProcessFailure(SimulationError):
    """Raised when waiting on a process that terminated with an exception."""

    def __init__(self, process: "Process", cause: BaseException):
        super().__init__(f"process {process.name!r} failed: {cause!r}")
        self.process = process
        self.cause = cause


class Future:
    """A one-shot container for a value produced at a later simulated time.

    A future starts *pending* and transitions exactly once to either
    *resolved* (with a value) or *failed* (with an exception).  Processes
    wait on futures by yielding them; plain callbacks can be attached with
    :meth:`add_callback`.
    """

    __slots__ = (
        "_sim", "_done", "_value", "_exception", "_callbacks", "name", "label",
    )

    def __init__(self, sim: "Simulator", name: str = "") -> None:
        self._sim = sim
        self._done = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: Optional[List[Callable[["Future"], None]]] = []  # None once done
        self.name = name
        #: ownership label inherited from the event being executed when
        #: the future was created (``Simulator.exec_label``).  ``None``
        #: outside controlled runs; the schedule explorer's
        #: partial-order reduction uses it to attribute sleep wake-ups
        #: and process resumptions to the node whose code created them
        #: (see :mod:`repro.mc.por`).
        self.label = sim.exec_label

    # -- state inspection -------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the future has been resolved or failed."""
        return self._done

    @property
    def failed(self) -> bool:
        """True if the future completed with an exception."""
        return self._done and self._exception is not None

    @property
    def value(self) -> Any:
        """The resolved value.

        Raises the stored exception if the future failed, and
        :class:`SimulationError` if it is still pending.
        """
        if not self._done:
            raise SimulationError(f"future {self.name!r} is still pending")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The stored exception, or ``None``."""
        return self._exception

    # -- completion -------------------------------------------------------

    def resolve(self, value: Any = None) -> None:
        """Complete the future with *value*; each callback takes the next
        free turn on the ready deque (one ``call_soon`` apiece)."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        if self._callbacks:
            ready, args = self._sim._ready, (self,)
            for fn in self._callbacks:
                ready.append((None, fn, args))
            self._callbacks = None

    def fail(self, exception: BaseException) -> None:
        """Complete the future with an exception; callbacks as :meth:`resolve`."""
        if self._done:
            raise SimulationError(f"future {self.name!r} resolved twice")
        self._exception = exception
        self.resolve()

    def try_resolve(self, value: Any = None) -> bool:
        """Resolve if still pending; return whether this call completed it."""
        if self._done:
            return False
        self.resolve(value)
        return True

    def add_callback(self, fn: Callable[["Future"], None]) -> None:
        """Call ``fn(self)`` when the future completes.

        If the future is already complete, the callback is scheduled to run
        at the current simulated time (never synchronously), which keeps
        event ordering deterministic.
        """
        if self._done:
            self._sim.call_soon(fn, self)
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._done:
            state = "failed" if self._exception is not None else "resolved"
        return f"<Future {self.name!r} {state}>"


class Process(Future):
    """A running generator coroutine.

    A process is itself a :class:`Future` that resolves with the
    generator's return value (or fails with its uncaught exception), so
    processes can wait on each other simply by yielding.
    """

    __slots__ = ("_generator",)

    def __init__(self, sim: "Simulator", generator: Generator, name: str = "") -> None:
        super().__init__(sim, name or getattr(generator, "__name__", "process"))
        self._generator = generator
        sim._ready.append((None, self._resume, (_STARTED,)))

    def _resume(self, future: Future) -> None:
        """Advance the generator by one yield with *future*'s outcome:
        its value is sent in, its exception thrown in (a failed process
        wrapped in :class:`ProcessFailure`)."""
        exc = future._exception
        try:
            if exc is not None:
                if isinstance(future, Process) and not isinstance(exc, ProcessFailure):
                    exc = ProcessFailure(future, exc)
                yielded = self._generator.throw(exc)
            else:
                yielded = self._generator.send(future._value)
        except StopIteration as stop:
            self.resolve(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into the future
            # Drop this frame's traceback entry (the generator's frames
            # follow it): through f_back it reaches the run loop, so
            # storing it would tie self -> exception -> traceback ->
            # frame -> self and pin the whole simulator until a full GC
            # pass.  No local may hold the traceback — that is the same
            # cycle again.
            self.fail(exc.with_traceback(exc.__traceback__.tb_next))
            return

        if not isinstance(yielded, Future):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {yielded!r}; "
                    "processes may only yield Future/Process objects"
                )
            )
            return
        yielded.add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'done' if self.done else 'running'}>"


#: what a new process is resumed with: a future already resolved with None
_STARTED = Future.__new__(Future)
_STARTED._done, _STARTED._value, _STARTED._exception = True, None, None


class Timer:
    """Handle for a scheduled callback; supports cancellation.

    A heap-resident timer carries a back-reference to its simulator so
    cancellation can maintain the tombstone count that drives the sweep.
    The kernel drops the back-reference when the entry leaves the heap —
    before its callback runs — so cancelling a timer that has fired (or
    is firing) counts nothing.  Ready-lane (zero-delay) timers drain
    within the current instant and are never tracked.
    """

    __slots__ = ("_cancelled", "when", "_sim")

    def __init__(self, when: float, sim: Optional["Simulator"] = None) -> None:
        self.when = when
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self._cancelled:
            self._cancelled = True
            sim = self._sim
            if sim is not None:
                sim._tombstones = dead = sim._tombstones + 1
                if dead >= _SWEEP_MIN_TOMBSTONES and dead * 2 > len(sim._heap):
                    sim._sweep()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class ScheduleController:
    """Pluggable same-instant scheduling hook — the schedule-space
    explorer's entry point (see :mod:`repro.mc`).

    Installing a controller (``sim.controller = ctl``) switches
    :meth:`Simulator.run` onto a *controlled* loop: whenever more than
    one event is runnable at the current simulated instant — ready-lane
    entries and due heap timers together — the controller picks which
    executes next, so an explorer can permute exactly the orderings the
    canonical ``(time, seq)`` merge fixes arbitrarily.  The
    :class:`~repro.sim.network.Network` additionally consults
    :meth:`message_delay` for every accepted message, letting a
    controller defer individual deliveries — legal behaviour under the
    paper's asynchronous network model, which permits arbitrary message
    delay and reordering, so any safety violation found this way is a
    real protocol bug, not an artifact.

    The base implementation reproduces the canonical order exactly
    (``tests/test_mc_kernel.py`` locks this in); ``repro.mc`` builds
    recording, replaying, and exploring controllers on top of it.
    """

    #: opt-in: controllers that need the slot *contents* (not just its
    #: size) — e.g. to derive per-event footprints for partial-order
    #: reduction — set this True, and the controlled loop consults
    #: :meth:`choose_event_slot` / :meth:`note_executed` instead of the
    #: plain :meth:`choose_event`.  The kernel reads it at every instant
    #: boundary; a controller may drop it mid-run but never raise it.
    wants_slot = False

    def choose_event(self, n: int) -> int:
        """Index (``0 <= i < n``) of the next event to execute among the
        *n* runnable at this instant, presented in canonical order."""
        return 0

    def choose_event_slot(self, slot: List[tuple]) -> int:
        """Slot-aware variant of :meth:`choose_event`, consulted instead
        when :attr:`wants_slot` is True.  *slot* is the list of
        ``(timer_or_None, fn, args)`` entries runnable at this instant,
        in canonical order; the controller may inspect (but must not
        mutate) it.  The default delegates to :meth:`choose_event`."""
        return self.choose_event(len(slot))

    def note_executed(self, entry: Optional[tuple]) -> Optional[str]:
        """Called (only when :attr:`wants_slot` is True) immediately
        before each controlled event executes — including singleton
        slots that never reach :meth:`choose_event_slot`.  Returns an
        optional ownership label; the kernel publishes it as
        ``Simulator.exec_label`` for the duration of the event, so
        futures created during execution inherit their owner.  Called
        with ``None`` once the kernel has seen :attr:`wants_slot` drop."""
        return None

    def message_delay(self, message: Any, delay: float) -> float:
        """Delivery delay for *message*; *delay* is the delay-model draw
        (plus link degradation).  Must return a value ``>= 0``."""
        return delay


class Simulator:
    """The event loop: simulated clock plus a deterministic event queue.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide random number generator.  Two runs
        with the same seed and the same inputs produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        #: current simulated time in milliseconds (a plain attribute: the
        #: hot path reads it once or more per message; only the run loops
        #: write it)
        self.now: float = 0.0
        #: real timers: a heap of ``(when, seq, timer_or_None, fn, args)``.
        #: ``seq`` is unique, so comparison never reaches the later fields.
        self._heap: List[tuple] = []
        #: zero-delay fast lane: FIFO of ``(timer_or_None, fn, args)``
        #: entries, all due at the current instant.  Invariant: whenever
        #: the deque is non-empty, every heap entry is due strictly later
        #: than ``now`` (the run loop drains due timers into the deque
        #: before executing anything at a new instant), so FIFO order is
        #: schedule order and no per-entry sequence number is needed.
        self._ready: deque = deque()
        #: cancelled entries still on the heap; drives :meth:`_sweep`
        self._tombstones = 0
        self._sequence = 0
        self.rng = random.Random(seed)
        self.seed = seed
        self._events_processed = 0
        #: optional :class:`ScheduleController`; ``None`` (the default)
        #: keeps the fast two-lane run loop
        self.controller: Optional[ScheduleController] = None
        #: ownership label of the event currently executing on the
        #: controlled path (set from ``controller.note_executed`` when
        #: the controller opts in via ``wants_slot``); always ``None``
        #: on the fast path.  Freshly created futures snapshot it.
        self.exec_label: Optional[str] = None
        #: the controlled loop's slot-hook mode; a mid-instant exit resumes it
        self._slot_hooks = False

    # -- clock and introspection ------------------------------------------

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for budget assertions)."""
        return self._events_processed

    @property
    def ready_depth(self) -> int:
        """Entries on the ready lane (all due at the current instant)."""
        return len(self._ready)

    @property
    def timer_depth(self) -> int:
        """Pending timer-lane entries, including cancellation tombstones
        not yet collected (``timer_depth - timer_tombstones`` is the live
        count).  The ready lane is not included (see :attr:`ready_depth`)."""
        return len(self._heap)

    @property
    def timer_tombstones(self) -> int:
        """Cancelled timers still occupying the timer lane."""
        return self._tombstones

    # -- scheduling -------------------------------------------------------

    def schedule(self, delay: float, fn: Callable, *args: Any) -> Timer:
        """Run ``fn(*args)`` after *delay* milliseconds; return a Timer.

        Zero-delay events go on the ready deque (no heap traffic) but
        still get a :class:`Timer`, so they stay cancellable up to the
        instant they fire.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        when = self.now + delay
        if delay == 0:
            timer = Timer(when)
            self._ready.append((timer, fn, args))
            return timer
        timer = Timer(when, self)
        self._sequence = seq = self._sequence + 1
        heapq.heappush(self._heap, (when, seq, timer, fn, args))
        return timer

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` at the current simulated time.

        The fast lane: no :class:`Timer` is allocated and no handle is
        returned — ``call_soon`` events are not cancellable.  Use
        ``schedule(0.0, ...)`` when cancellation is needed.
        """
        self._ready.append((None, fn, args))

    def call_later(self, delay: float, fn: Callable, *args: Any) -> None:
        """Run ``fn(*args)`` after *delay* ms without a cancellation handle.

        The timer-lane sibling of :meth:`call_soon`: no :class:`Timer`
        is allocated, so fire-and-forget deadlines (network deliveries,
        one-shot protocol steps) cost one heap push and nothing else.
        """
        if not delay >= 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if delay == 0:
            self._ready.append((None, fn, args))
            return
        self._sequence = seq = self._sequence + 1
        heapq.heappush(self._heap, (self.now + delay, seq, None, fn, args))

    def sleep(self, delay: float) -> Future:
        """Return a future that resolves after *delay* milliseconds."""
        future = Future(self, name=f"sleep({delay})")
        self.call_later(delay, future.resolve, None)
        return future

    def future(self, name: str = "") -> Future:
        """Create a fresh pending future bound to this simulator."""
        return Future(self, name)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a generator as a process; returns the Process future."""
        return Process(self, generator, name)

    # -- timer-lane internals ---------------------------------------------

    def _sweep(self) -> None:
        """Rebuild the heap without its cancellation tombstones.

        :meth:`Timer.cancel` calls this once tombstones both reach
        ``_SWEEP_MIN_TOMBSTONES`` and outnumber live entries, so the heap
        stays within ~2x the live timer count under cancel/renew churn
        (lease keepers).  In place, because the run loops hold the list
        in a local; pop order depends only on the unique ``(when, seq)``
        keys, so rebuilding cannot change what executes when."""
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is None or not e[2]._cancelled]
        heapq.heapify(heap)
        self._tombstones = 0

    def _pop_instant(self, when: float, append: Callable[[tuple], None]) -> None:
        """Pop every heap entry due at exactly *when*, in ``(time, seq)``
        order, handing the live ones to *append* as ready-lane triples.
        Each popped timer drops its simulator back-reference here, so a
        later ``cancel()`` on it is not counted as a heap tombstone."""
        heap = self._heap
        heappop = heapq.heappop
        while heap and heap[0][0] == when:
            _w, _seq, timer, fn, args = heappop(heap)
            if timer is not None:
                timer._sim = None
                if timer._cancelled:
                    self._tombstones -= 1
                    continue
            append((timer, fn, args))

    def iter_pending(self) -> Iterator[Tuple[Optional[Timer], Callable, tuple]]:
        """Iterate live pending callbacks as ``(timer, fn, args)`` triples.

        Covers both lanes — the ready deque and the timer heap — in no
        particular order.  Cancelled entries are skipped.  Introspection
        only (liveness oracles, debugging); mutating the kernel while
        iterating is undefined.
        """
        for timer, fn, args in self._ready:
            if timer is None or not timer._cancelled:
                yield (timer, fn, args)
        for _w, _seq, timer, fn, args in self._heap:
            if timer is None or not timer._cancelled:
                yield (timer, fn, args)

    # -- execution --------------------------------------------------------

    @collector_paused()
    def run(
        self,
        until: Union[None, float, Future] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Execute events until the queue drains, *until* is reached, or
        *max_events* have run.  Returns the simulated time afterwards.

        *until* is an instant or a :class:`Future` (as SimPy's
        ``Environment.run(until=event)``).  When stopped by an instant,
        the clock is advanced exactly to it so a subsequent ``run``
        continues from there; an instant before ``now`` raises
        :class:`SimulationError`, as :meth:`schedule` does.  When stopped
        by a future, the run ends at the instant the future completes —
        resolved or failed — with everything after its callbacks' turn
        still pending, so a following ``run`` continues in the order an
        uninterrupted run would have taken; an already-done future
        returns at once.

        The loop preserves strict global ``(time, seq)`` order across the
        two lanes: the ready deque is always drained before the clock
        advances, and when it does advance, *all* timers due at the new
        instant are moved onto the deque (in heap = schedule order) before
        anything at that instant executes, so later ``call_soon`` work
        lands behind them — exactly the single-queue interleaving.
        ``events_processed`` is flushed when the loop exits, not per event.
        The cycle collector is paused for the duration of the call.
        """
        loop = self._run_fast if self.controller is None else self._run_controlled
        if not isinstance(until, Future):
            if until is not None and until < self.now:
                raise SimulationError(
                    f"cannot run until the past (until={until}, now={self.now})")
            return loop(until, max_events)
        if until.done:
            return self.now
        # The stop is one more callback on the future: it raises out of
        # whichever loop is running, so neither loop tests for it per
        # event.  Disarmed on exit, because the future may outlive this
        # call (queue drained or max_events reached first).
        armed = True

        def stop(_future: Future) -> None:
            if armed:
                raise _StopRun

        until.add_callback(stop)
        try:
            loop(None, max_events)
        except _StopRun:
            pass
        finally:
            armed = False
        return self.now

    def _run_fast(self, until: Optional[float], max_events: Optional[int]) -> float:
        """The default path: the two-lane loop described in :meth:`run`."""
        processed = 0
        ready = self._ready
        heap = self._heap
        limit = float("inf") if max_events is None else max_events
        try:
            while True:
                while ready:
                    if processed >= limit:
                        return self.now
                    timer, fn, args = ready.popleft()
                    if timer is not None and timer._cancelled:
                        continue
                    processed += 1
                    fn(*args)
                if not heap:
                    break
                when = heap[0][0]
                if until is not None and when > until:
                    self.now = until
                    return self.now
                if processed >= limit:
                    return self.now
                # The deque is empty here, so the whole instant lands on
                # it in seq order, ahead of anything its callbacks add.
                self._pop_instant(when, ready.append)
                if ready:  # else the whole instant was tombstones
                    self.now = when
        finally:
            self._events_processed += processed
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def _run_controlled(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> float:
        """The controller path: single-slot scheduling with explicit choice.

        Maintains *slot*, the list of events runnable at the current
        instant in canonical arrival order (heap timers due at the
        instant first, in ``(time, seq)`` order, then ready-lane work in
        FIFO order as it appears), and asks the controller which to run
        whenever there is more than one.  Under the base
        :class:`ScheduleController` this executes the exact canonical
        order; the fast two-lane path in :meth:`run` is untouched when no
        controller is installed.  Cancelled timers are purged from the
        slot before every choice, so ``n`` only ever counts live events
        (a lone entry is checked as it is popped).  ``wants_slot`` is
        re-read just before the next instant is popped: the slot has
        drained by then, so every entry offered has run or been purged.
        """
        processed = 0
        ready = self._ready
        heap = self._heap
        controller = self.controller
        wants_slot = self._slot_hooks or getattr(controller, "wants_slot", False)
        slot: List[tuple] = []
        try:
            while True:
                if ready:
                    slot.extend(ready)
                    ready.clear()
                if len(slot) > 1:
                    slot[:] = [
                        e for e in slot if e[0] is None or not e[0]._cancelled
                    ]
                if not slot:
                    if not heap:
                        break
                    when = heap[0][0]
                    if until is not None and when > until:
                        self.now = until
                        return self.now
                    if wants_slot and not controller.wants_slot:
                        # flush the last hooked event; plain from here on
                        wants_slot = False
                        controller.note_executed(None)
                        self.exec_label = None
                    self._pop_instant(when, slot.append)
                    if slot:
                        self.now = when
                    continue
                if max_events is not None and processed >= max_events:
                    return self.now
                if len(slot) > 1:
                    if wants_slot:
                        index = controller.choose_event_slot(slot)
                    else:
                        index = controller.choose_event(len(slot))
                    if not 0 <= index < len(slot):
                        index = 0
                    entry = slot.pop(index)
                else:
                    entry = slot.pop()
                    if entry[0] is not None and entry[0]._cancelled:
                        continue
                processed += 1
                if wants_slot:
                    self.exec_label = controller.note_executed(entry)
                entry[1](*entry[2])
        finally:
            self._events_processed += processed
            self._slot_hooks = wants_slot
            if wants_slot:
                self.exec_label = None
            # An exit with choices left in the slot (max_events, a
            # future's stop) hands them back, still in canonical order,
            # ahead of the ready work that arrived after them.
            ready.extendleft(reversed(slot))
        if until is not None and until > self.now:
            self.now = until
        return self.now

    def close(self) -> None:
        """Drop every pending event of a finished run (idempotent).

        The timer heap and the ready deque are what tie a finished world
        into reference cycles (pending callbacks → processes and nodes →
        futures → this simulator); without them it is freed by reference
        count as soon as its owner lets go, instead of waiting for a
        full garbage-collection pass.  The clock, ``events_processed``,
        ``rng`` and ``seed`` stay readable; suspended processes are
        simply never resumed.
        """
        self._heap.clear()
        self._ready.clear()
        self._tombstones = 0

    def run_process(self, generator: Generator, name: str = "",
                    until: Optional[float] = None) -> Any:
        """Spawn *generator*, run the simulation, and return its result.

        Convenience wrapper for tests and examples.  Raises the process's
        exception if it failed, and :class:`SimulationError` if the event
        queue drained before the process finished.
        """
        process = self.spawn(generator, name=name)
        self.run(until=until)
        if not process.done:
            raise SimulationError(
                f"process {process.name!r} did not finish "
                f"(simulation {'reached time limit' if until is not None else 'drained'})"
            )
        return process.value


def all_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Return a future resolving with a list of values once *all* complete.

    If any input fails, the combined future fails with the first failure
    (in completion order).
    """
    futures = list(futures)
    result = Future(sim, name="all_of")
    if not futures:
        sim.call_soon(result.resolve, [])
        return result
    remaining = [len(futures)]

    def on_done(_f: Future) -> None:
        if result.done:
            return
        if _f.failed:
            result.fail(_f.exception)
            return
        remaining[0] -= 1
        if remaining[0] == 0:
            result.resolve([f.value for f in futures])

    for f in futures:
        f.add_callback(on_done)
    return result


def all_settled(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Return a future resolving (with ``None``) once *every* input is
    done, resolved or failed — where :func:`all_of` fails fast on the
    first failure.  It never fails itself: callers read each input's
    ``value`` afterwards, which re-raises that input's own exception.
    """
    result = Future(sim, name="all_settled")
    remaining = 0

    def on_done(_f: Future) -> None:
        nonlocal remaining
        remaining -= 1
        if remaining == 0:
            result.resolve(None)

    for f in futures:
        remaining += 1
        f.add_callback(on_done)
    if remaining == 0:
        sim.call_soon(result.resolve, None)
    return result


def any_of(sim: Simulator, futures: Iterable[Future]) -> Future:
    """Return a future resolving with ``(index, value)`` of the first
    completed input.  A failing input fails the combined future if nothing
    has completed yet.
    """
    futures = list(futures)
    if not futures:
        raise SimulationError("any_of requires at least one future")
    result = Future(sim, name="any_of")

    def make_callback(index: int) -> Callable[[Future], None]:
        def on_done(f: Future) -> None:
            if result.done:
                return
            if f.failed:
                result.fail(f.exception)
            else:
                result.resolve((index, f.value))

        return on_done

    for i, f in enumerate(futures):
        f.add_callback(make_callback(i))
    return result
