"""Order oracle for the simulation kernel.

``LegacySimulator`` is the kernel as it was before any fast lane: one
``(time, seq)`` heap, one ``Timer`` per event, nothing else.  It is the
definition of the canonical execution order, kept here as the reference
the two-lane kernel is compared against — on fixed scripts and on
seeded random programs of every scheduling and cancellation primitive.
"""

import heapq
import random

import pytest

from repro.sim.kernel import Simulator


class _LegacyTimer:
    __slots__ = ("_cancelled", "when")

    def __init__(self, when):
        self.when = when
        self._cancelled = False

    def cancel(self):
        self._cancelled = True

    @property
    def cancelled(self):
        return self._cancelled


class LegacySimulator:
    """The kernel before the fast lane: one heap, a Timer per event.

    ``call_later``, ``max_events`` and ``live_timers`` were added for
    the differential test; ``schedule``/``call_soon``/``run(until)`` are
    the original code."""

    def __init__(self, seed=0):
        self._now = 0.0
        self._queue = []
        self._sequence = 0
        self.rng = random.Random(seed)
        self.events_processed = 0

    @property
    def now(self):
        return self._now

    def schedule(self, delay, fn, *args):
        timer = _LegacyTimer(self._now + delay)
        self._sequence += 1
        heapq.heappush(self._queue, (timer.when, self._sequence, timer, fn, args))
        return timer

    def call_soon(self, fn, *args):
        self.schedule(0.0, fn, *args)

    def call_later(self, delay, fn, *args):
        self.schedule(delay, fn, *args)

    def live_timers(self):
        """Live entries due strictly after ``now`` — what the two-lane
        kernel keeps on its timer lane."""
        return sum(1 for when, _s, timer, _f, _a in self._queue
                   if when > self._now and not timer.cancelled)

    def run(self, until=None, max_events=None):
        queue = self._queue
        processed = 0
        while queue:
            if until is not None and queue[0][0] > until:
                self._now = until
                return self._now
            if max_events is not None and processed >= max_events:
                return self._now
            when, _seq, timer, fn, args = heapq.heappop(queue)
            if timer.cancelled:
                continue
            self._now = when
            processed += 1
            self.events_processed += 1
            fn(*args)
        if until is not None and until > self._now:
            self._now = until
        return self._now


def _live_timers(sim):
    if isinstance(sim, LegacySimulator):
        return sim.live_timers()
    return sim.timer_depth - sim.timer_tombstones


def test_fixed_interleaving_matches_oracle():
    def scripted(sim):
        order = []
        sim.schedule(5.0, order.append, "t5-a")
        sim.schedule(1.0, order.append, "t1")
        sim.schedule(5.0, order.append, "t5-b")
        cancelled = sim.schedule(3.0, order.append, "t3")
        cancelled.cancel()

        def chain(n):
            order.append(f"c{n}")
            if n < 2:
                sim.call_soon(chain, n + 1)

        sim.schedule(5.0, chain, 0)
        sim.schedule(5.0, order.append, "t5-c")
        sim.run()
        return order

    assert scripted(Simulator(seed=0)) == scripted(LegacySimulator(seed=0))


def test_lease_and_delivery_mix_matches_oracle():
    """Standing cancellable timers interleaved with handle-free
    deliveries half a millisecond behind them, half the leases
    cancelled, the run split at an ``until`` boundary."""

    def scripted(sim):
        fired = []
        rng = random.Random(3)
        delays = [rng.uniform(1.0, 50.0) for _ in range(64)]
        standing = [sim.schedule(d, fired.append, "lease") for d in delays]
        for d in delays:
            sim.call_later(d + 0.5, fired.append, "deliver")
        for t in standing[::2]:
            t.cancel()
        sim.run(until=25.0)
        mid = len(fired)
        sim.run()
        return fired, mid, sim.now

    assert scripted(Simulator(seed=0)) == scripted(LegacySimulator(seed=0))


#: delays on a coarse grid, so same-instant ties and events landing
#: exactly on an ``until`` boundary are the common case, plus a few
#: far-future deadlines
_DELAYS = (0.5, 1.0, 1.0, 1.5, 2.0, 2.0, 3.0, 7.5, 40.0, 1_500.0, 400_000.0)


def _random_program(sim, seed, storm):
    """Drive *sim* through a seeded program of schedule / call_later /
    call_soon / cancel (pending, fired and already-cancelled handles,
    sometimes twice), issued both between runs and from inside
    callbacks, with the run cut into ``until`` and ``max_events`` chunks.
    Every decision comes from one private RNG consumed in execution
    order, so two kernels log the same thing iff they execute the same
    events in the same order."""
    rng = random.Random(seed)
    log = []
    handles = []
    tags = iter(range(10**9))

    def fire(tag, depth):
        log.append((sim.now, tag))
        for _ in range(rng.randrange(3)):
            act(depth + 1)

    def act(depth):
        r = rng.random()
        tag = next(tags)
        if r >= 0.75:
            if handles:
                victim = rng.choice(handles)
                victim.cancel()
                if rng.random() < 0.3:
                    victim.cancel()
        elif depth > 4:
            return
        elif r < 0.30:
            handles.append(sim.schedule(rng.choice(_DELAYS), fire, tag, depth))
        elif r < 0.50:
            sim.call_later(rng.choice(_DELAYS), fire, tag, depth)
        elif r < 0.65:
            sim.call_soon(fire, tag, depth)
        else:
            handles.append(sim.schedule(0.0, fire, tag, depth))

    for chunk in range(60):
        for _ in range(rng.randrange(8)):
            act(0)
        if storm and chunk == 20:
            # enough tombstones at once to force a sweep mid-program
            doomed = [sim.schedule(rng.choice(_DELAYS) + 10.0, fire, next(tags), 5)
                      for _ in range(1500)]
            handles.extend(doomed[::50])
            for t in doomed[7:]:
                t.cancel()
        mode = rng.randrange(4)
        until = sim.now + rng.choice((0.5, 1.0, 2.0, 10.0, 2_000.0))
        budget = rng.randrange(1, 6)
        if mode == 0:
            sim.run(until=until)
        elif mode == 1:
            sim.run(max_events=budget)
        elif mode == 2:
            sim.run(until=until, max_events=budget)
        else:
            sim.run(until=until)
            sim.run(max_events=budget)
        log.append(("chunk", sim.now, _live_timers(sim), sim.events_processed))
    sim.run()
    log.append(("end", sim.now, _live_timers(sim), sim.events_processed))
    return log


@pytest.mark.parametrize("seed", range(40))
def test_random_programs_match_oracle(seed):
    storm = seed % 4 == 0
    got = _random_program(Simulator(seed=0), seed, storm)
    want = _random_program(LegacySimulator(seed=0), seed, storm)
    assert got == want
    assert len(want) > 100  # the program actually ran something
