"""Unit tests for the discrete-event simulation kernel."""

import gc
import random

import pytest

from repro.sim.kernel import (
    Future,
    ProcessFailure,
    ScheduleController,
    SimulationError,
    Simulator,
    Timer,
    all_of,
    all_settled,
    any_of,
    collector_paused,
)


@pytest.fixture
def sim():
    return Simulator(seed=42)


class TestScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_at_right_time(self, sim):
        fired = []
        sim.schedule(10.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10.0]

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(30.0, lambda: order.append("c"))
        sim.schedule(10.0, lambda: order.append("a"))
        sim.schedule(20.0, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, sim):
        order = []
        for i in range(10):
            sim.schedule(5.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self, sim):
        """A NaN deadline would sit in the heap forever and spin the run
        loop without running an event."""
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.call_later(float("nan"), lambda: None)

    def test_cancelled_timer_does_not_fire(self, sim):
        fired = []
        timer = sim.schedule(5.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled

    def test_run_until_stops_and_advances_clock(self, sim):
        fired = []
        sim.schedule(100.0, lambda: fired.append(1))
        sim.run(until=50.0)
        assert sim.now == 50.0
        assert fired == []
        sim.run()
        assert fired == [1]
        assert sim.now == 100.0

    def test_run_until_exact_boundary_runs_event(self, sim):
        fired = []
        sim.schedule(50.0, lambda: fired.append(1))
        sim.run(until=50.0)
        assert fired == [1]

    def test_max_events_limit(self, sim):
        count = []
        for _ in range(10):
            sim.call_soon(lambda: count.append(1))
        sim.run(max_events=3)
        assert len(count) == 3

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.call_soon(lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_nested_scheduling(self, sim):
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(5.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(10.0, outer)
        sim.run()
        assert times == [10.0, 15.0]

    def test_determinism_same_seed(self):
        def run_once(seed):
            sim = Simulator(seed=seed)
            trace = []

            def proc():
                for _ in range(20):
                    yield sim.sleep(sim.rng.uniform(0, 10))
                    trace.append(round(sim.now, 6))

            sim.run_process(proc())
            return trace

        assert run_once(7) == run_once(7)
        assert run_once(7) != run_once(8)


class TestFuture:
    def test_resolve_and_value(self, sim):
        f = sim.future("f")
        f.resolve(99)
        assert f.done and not f.failed
        assert f.value == 99

    def test_pending_value_raises(self, sim):
        f = sim.future()
        with pytest.raises(SimulationError):
            _ = f.value

    def test_double_resolve_raises(self, sim):
        f = sim.future()
        f.resolve(1)
        with pytest.raises(SimulationError):
            f.resolve(2)

    def test_fail_stores_exception(self, sim):
        f = sim.future()
        f.fail(ValueError("boom"))
        assert f.failed
        with pytest.raises(ValueError):
            _ = f.value

    def test_try_resolve(self, sim):
        f = sim.future()
        assert f.try_resolve(1) is True
        assert f.try_resolve(2) is False
        assert f.value == 1

    def test_callback_after_completion_still_fires(self, sim):
        f = sim.future()
        f.resolve(5)
        seen = []
        f.add_callback(lambda fut: seen.append(fut.value))
        sim.run()
        assert seen == [5]

    def test_callbacks_are_asynchronous(self, sim):
        """Callbacks fire via the event queue, never synchronously."""
        f = sim.future()
        seen = []
        f.add_callback(lambda fut: seen.append(1))
        f.resolve(None)
        assert seen == []  # not yet
        sim.run()
        assert seen == [1]


class TestProcess:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.sleep(5)
            return "done"

        assert sim.run_process(proc()) == "done"
        assert sim.now == 5.0

    def test_process_waits_on_future(self, sim):
        f = sim.future()
        sim.schedule(7.0, f.resolve, "hello")

        def proc():
            value = yield f
            return (value, sim.now)

        assert sim.run_process(proc()) == ("hello", 7.0)

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.sleep(3)
            return 10

        def parent():
            value = yield sim.spawn(child())
            return value * 2

        assert sim.run_process(parent()) == 20

    def test_yield_from_composition(self, sim):
        def inner():
            yield sim.sleep(2)
            return 5

        def outer():
            a = yield from inner()
            b = yield from inner()
            return a + b

        assert sim.run_process(outer()) == 10
        assert sim.now == 4.0

    def test_failed_future_raises_in_process(self, sim):
        f = sim.future()
        sim.schedule(1.0, f.fail, RuntimeError("bad"))

        def proc():
            try:
                yield f
            except RuntimeError as exc:
                return f"caught {exc}"

        assert sim.run_process(proc()) == "caught bad"

    def test_child_failure_wrapped(self, sim):
        def child():
            yield sim.sleep(1)
            raise ValueError("inner")

        def parent():
            try:
                yield sim.spawn(child())
            except ProcessFailure as exc:
                assert isinstance(exc.cause, ValueError)
                return "wrapped"

        assert sim.run_process(parent()) == "wrapped"

    def test_uncaught_process_exception_propagates(self, sim):
        def proc():
            yield sim.sleep(1)
            raise KeyError("oops")

        with pytest.raises(KeyError):
            sim.run_process(proc())

    def test_yielding_non_future_fails_process(self, sim):
        def proc():
            yield 42

        with pytest.raises(SimulationError):
            sim.run_process(proc())

    def test_unfinished_process_detected(self, sim):
        def proc():
            yield sim.future()  # never resolved

        with pytest.raises(SimulationError, match="did not finish"):
            sim.run_process(proc())

    def test_immediate_return(self, sim):
        def proc():
            return 1
            yield  # pragma: no cover

        assert sim.run_process(proc()) == 1


class TestCombinators:
    def test_all_of_collects_in_order(self, sim):
        f1, f2, f3 = sim.future(), sim.future(), sim.future()
        sim.schedule(3.0, f1.resolve, "a")
        sim.schedule(1.0, f2.resolve, "b")
        sim.schedule(2.0, f3.resolve, "c")

        def proc():
            values = yield all_of(sim, [f1, f2, f3])
            return (values, sim.now)

        assert sim.run_process(proc()) == (["a", "b", "c"], 3.0)

    def test_all_of_empty(self, sim):
        def proc():
            values = yield all_of(sim, [])
            return values

        assert sim.run_process(proc()) == []

    def test_all_of_fails_fast(self, sim):
        f1, f2 = sim.future(), sim.future()
        sim.schedule(1.0, f1.fail, RuntimeError("x"))

        def proc():
            try:
                yield all_of(sim, [f1, f2])
            except RuntimeError:
                return sim.now

        assert sim.run_process(proc()) == 1.0

    def test_all_settled_waits_past_a_failure(self, sim):
        """Unlike all_of, a failed input neither fails the combined
        future nor ends the wait; the failure stays on its own input."""
        f1, f2 = sim.future(), sim.future()
        sim.schedule(1.0, f1.fail, RuntimeError("x"))
        sim.schedule(4.0, f2.resolve, "ok")
        settled = all_settled(sim, [f1, f2])
        sim.run(until=2.0)
        assert not settled.done
        sim.run()
        assert settled.done and not settled.failed
        assert sim.now == 4.0
        with pytest.raises(RuntimeError):
            f1.value
        assert f2.value == "ok"

    def test_all_settled_empty_and_already_done(self, sim):
        done = sim.future()
        done.resolve(1)
        for inputs in ([], [done]):
            settled = all_settled(sim, inputs)
            assert not settled.done  # never synchronously
            sim.run()
            assert settled.done

    def test_any_of_returns_first(self, sim):
        f1, f2 = sim.future(), sim.future()
        sim.schedule(5.0, f1.resolve, "slow")
        sim.schedule(2.0, f2.resolve, "fast")

        def proc():
            index, value = yield any_of(sim, [f1, f2])
            return (index, value, sim.now)

        assert sim.run_process(proc()) == (1, "fast", 2.0)

    def test_any_of_requires_inputs(self, sim):
        with pytest.raises(SimulationError):
            any_of(sim, [])

    def test_any_of_with_sleep_as_timeout(self, sim):
        never = sim.future()

        def proc():
            index, _ = yield any_of(sim, [never, sim.sleep(10)])
            return (index, sim.now)

        assert sim.run_process(proc()) == (1, 10.0)


class TestFastLaneEdgeCases:
    """Edge cases at the boundary between the zero-delay ready lane and
    the timer heap (see DESIGN.md, "kernel fast path")."""

    def test_callback_on_already_done_future(self, sim):
        fired = []
        f = sim.future()
        f.resolve(7)
        f.add_callback(lambda fut: fired.append(fut.value))
        assert fired == []  # never synchronous
        sim.run()
        assert fired == [7]

    def test_cancel_racing_same_tick_event(self, sim):
        """An event can cancel a zero-delay timer scheduled for the same
        tick; the cancelled callback must not run and must not count."""
        fired = []
        holder = {}
        sim.call_soon(lambda: holder["t"].cancel())
        holder["t"] = sim.schedule(0.0, fired.append, "victim")
        sim.call_soon(fired.append, "after")
        sim.run()
        assert fired == ["after"]
        assert sim.events_processed == 2  # canceller + "after", not the victim

    def test_cancel_racing_same_instant_timer(self, sim):
        """A timer event cancelling another timer due at the same instant."""
        fired = []
        victim = sim.schedule(5.0, fired.append, "victim")
        sim.schedule(5.0, lambda: victim.cancel())
        # scheduled before the canceller, so it fires first — too late to save
        early = sim.schedule(5.0, fired.append, "early")
        del early
        sim.run()
        assert fired == ["victim", "early"] or fired == ["early"]
        # deterministic answer: victim was scheduled *before* the canceller,
        # so it fires first and the cancel is a no-op on an executed event
        assert fired == ["victim", "early"]

    def test_any_of_with_immediately_failed_input(self, sim):
        boom = sim.future()
        boom.fail(RuntimeError("early failure"))
        slow = sim.future()

        def proc():
            try:
                yield any_of(sim, [slow, boom])
            except RuntimeError as exc:
                return str(exc)

        assert sim.run_process(proc()) == "early failure"

    def test_max_events_stops_mid_tick(self, sim):
        """run(max_events=...) can stop between same-tick ready events and
        a later run() resumes in the original FIFO order."""
        fired = []
        for label in "abcde":
            sim.call_soon(fired.append, label)
        sim.run(max_events=2)
        assert fired == ["a", "b"]
        sim.run(max_events=1)
        assert fired == ["a", "b", "c"]
        sim.run()
        assert fired == ["a", "b", "c", "d", "e"]
        assert sim.events_processed == 5

    def test_max_events_stops_before_draining_timers(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, "t1")
        sim.schedule(1.0, fired.append, "t2")
        sim.run(max_events=1)
        assert fired == ["t1"] and sim.now == 1.0
        sim.run()
        assert fired == ["t1", "t2"]

    def test_zero_delay_schedule_returns_cancellable_timer(self, sim):
        fired = []
        t = sim.schedule(0.0, fired.append, "x")
        assert t is not None and not t.cancelled
        t.cancel()
        sim.run()
        assert fired == [] and sim.events_processed == 0


def _fire_log(sim, log, tag):
    log.append((round(sim.now, 6), tag))


class TestTombstoneSweep:
    """Cancelled timers stay on the heap as tombstones; the sweep keeps
    them from outgrowing the live set."""

    def test_cancel_heavy_pending_set_stays_bounded(self):
        """The renewal-keeper workload: every operation cancels a pending
        timer and schedules a replacement.  The sweep keeps the pending
        set (live + tombstones) bounded near 2x the live population — a
        heap without it would retain all ~40k tombstones here."""
        sim = Simulator(seed=0)
        keepers = 400
        rng = random.Random(3)
        pending = [sim.schedule(rng.uniform(300.0, 500.0), lambda: None)
                   for _ in range(keepers)]
        max_depth = sim.timer_depth
        for _ in range(100):
            for i in range(keepers):
                pending[i].cancel()
                pending[i] = sim.schedule(rng.uniform(300.0, 500.0), lambda: None)
            sim.run(until=sim.now + 1.0)
            max_depth = max(max_depth, sim.timer_depth)
            assert sim.timer_depth - sim.timer_tombstones == keepers
        # Policy: sweep once tombstones exceed both the 512 floor and
        # the live count, so depth stays under 2*live + floor (+ one
        # round of slack for the trigger granularity).
        bound = 2 * keepers + 512 + keepers
        assert max_depth <= bound, f"pending set grew to {max_depth} > {bound}"

    def test_sweep_preserves_live_timers(self):
        """A sweep triggered by mass cancellation must not disturb live
        timers, near or far."""
        sim = Simulator(seed=0)
        log = []
        live = [(d, sim.schedule(d, _fire_log, sim, log, "live"))
                for d in (5.0, 900.0, 2_000.0, 300_000.0, 17_000_000.0)]
        doomed = [sim.schedule(100.0 + i * 0.01, lambda: None)
                  for i in range(2000)]
        for t in doomed:
            t.cancel()  # tombstones > live triggers a sweep
        assert sim.timer_depth <= len(live) + 512 + 1
        assert sim.timer_depth - sim.timer_tombstones == len(live)
        sim.run()
        assert len(log) == len(live)
        assert [t for t, _ in log] == sorted(round(d, 6) for d, _ in live)

    def test_sweep_from_inside_a_callback(self):
        """The run loop survives the heap being rebuilt under it."""
        sim = Simulator(seed=0)
        log = []
        doomed = [sim.schedule(50.0 + i, lambda: None) for i in range(1500)]
        sim.schedule(10.0, lambda: [t.cancel() for t in doomed])
        sim.schedule(20.0, log.append, "after")
        sim.schedule(5_000.0, log.append, "last")
        sim.run()
        assert log == ["after", "last"]
        assert sim.timer_depth == 0 and sim.timer_tombstones == 0

    def test_only_heap_resident_cancellations_count(self):
        """timer_tombstones counts cancelled entries *on the heap*:
        cancelling a timer that already fired, is firing, was already
        cancelled, or lives on the ready lane must leave it untouched —
        a popped timer drops its back-reference before its callback
        runs."""
        sim = Simulator(seed=0)
        holder = {}
        holder["self"] = sim.schedule(1.0, lambda: holder["self"].cancel())
        # same-instant sibling, moved to the ready lane before "self" runs
        holder["sibling"] = sim.schedule(1.0, lambda: None)
        sim.schedule(1.0, lambda: holder["sibling"].cancel())
        fired = sim.schedule(2.0, lambda: None)
        zero = sim.schedule(0.0, lambda: None)
        zero.cancel()
        assert sim.timer_tombstones == 0
        sim.run()
        fired.cancel()
        assert sim.timer_tombstones == 0

        pending = sim.schedule(5.0, lambda: None)
        pending.cancel()
        pending.cancel()
        assert sim.timer_tombstones == 1
        assert sim.timer_depth == 1
        sim.run()
        assert sim.timer_tombstones == 0 and sim.timer_depth == 0

    def test_detached_timer_cancels_locally(self):
        """Timers constructed directly (as tests and tools do) have no
        simulator to account to."""
        t = Timer(5.0)
        assert not t.cancelled
        t.cancel()
        assert t.cancelled


class TestUntilBoundaries:
    def test_until_cuts_between_close_timers(self):
        """Two timers half a millisecond apart on either side of
        ``until``: the run stops exactly between them and a later run
        resumes."""
        sim = Simulator(seed=0)
        log = []
        sim.schedule(5.2, log.append, "early")
        sim.schedule(5.8, log.append, "late")
        sim.run(until=5.5)
        assert log == ["early"]
        assert sim.now == 5.5
        assert sim.timer_depth == 1
        sim.run()
        assert log == ["early", "late"]

    def test_chunked_runs_match_single_run(self):
        """Many 1 ms-sliced runs (the repro.mc runner pattern) produce the
        same dispatch order and times as one uninterrupted run."""
        rng = random.Random(21)
        delays = [rng.uniform(0.1, 80.0) for _ in range(200)]

        def scripted(chunked):
            sim = Simulator(seed=0)
            log = []
            timers = [sim.schedule(d, _fire_log, sim, log, "t") for d in delays]
            for t in timers[::3]:
                t.cancel()
            if chunked:
                while sim.timer_depth:
                    sim.run(until=sim.now + 1.0)
            else:
                sim.run()
            return log

        assert scripted(True) == scripted(False)

    def test_schedule_after_stopped_run_fires_at_its_true_time(self):
        sim = Simulator(seed=0)
        log = []
        sim.schedule(100.0, log.append, "far")
        sim.run(until=50.0)
        sim.schedule(1.0, log.append, "near")
        sim.run()
        assert log == ["near", "far"]

    @pytest.mark.parametrize("controller", [None, ScheduleController])
    @pytest.mark.parametrize("ready_work", [True, False])
    def test_until_in_the_past_raises_and_leaves_the_clock(self, controller,
                                                           ready_work):
        """The clock never runs backwards: with or without ready work
        pending, ``run(until=t)`` for ``t < now`` raises (as scheduling
        in the past does) and a following run carries on from ``now``."""
        sim, log = Simulator(seed=0), []
        if controller is not None:
            sim.controller = controller()
        sim.call_later(10.0, log.append, "timer")
        sim.run(until=10.0)
        if ready_work:
            sim.call_soon(log.append, "soon")
        with pytest.raises(SimulationError, match="cannot run until the past"):
            sim.run(until=5.0)
        assert sim.now == 10.0
        assert sim.run(until=10.0) == 10.0
        assert log == (["timer", "soon"] if ready_work else ["timer"])


def _stop_program(sim, log):
    """Timers, same-instant work, a process and zero-delay follow-ups on
    both sides of the instant (t=5) at which the returned future
    resolves."""
    done = sim.future()

    def resolver():
        log.append(("resolve", sim.now))
        done.resolve("v")
        sim.call_soon(log.append, ("after-resolve", sim.now))

    def proc():
        for step in range(4):
            yield sim.sleep(2.5)
            log.append(("proc", step, sim.now))

    sim.schedule(1.0, log.append, "early")
    sim.schedule(5.0, log.append, "same-instant-before")
    sim.schedule(5.0, resolver)
    sim.schedule(5.0, log.append, "same-instant-after")
    sim.call_later(5.0, lambda: sim.call_soon(log.append, "soon-at-5"))
    sim.schedule(5.5, log.append, "later")
    sim.schedule(9.0, log.append, "last")
    sim.spawn(proc())
    return done


class PickLast(ScheduleController):
    def choose_event(self, n):
        return n - 1


class TestRunUntilFuture:
    """``run(until=<Future>)``: SimPy's ``Environment.run(until=event)``."""

    @pytest.mark.parametrize("controller", [None, ScheduleController])
    def test_stops_at_the_instant_and_resumes_in_order(self, controller):
        whole_sim, whole = Simulator(seed=0), []
        _stop_program(whole_sim, whole)
        whole_sim.run()

        sim, log = Simulator(seed=0), []
        if controller is not None:
            sim.controller = controller()
        done = _stop_program(sim, log)
        assert sim.run(until=done) == 5.0
        assert sim.now == 5.0 and done.value == "v"
        assert ("resolve", 5.0) in log and "later" not in log
        assert sim.timer_depth > 0  # later events still pending
        stopped_at = len(log)
        # One loop exit, one flush: the events before the stop plus the
        # stop callback itself.
        flushed = sim.events_processed
        assert flushed > 0
        sim.run()
        assert 0 < stopped_at < len(log)
        assert log == whole
        assert sim.events_processed == whole_sim.events_processed + 1
        assert sim.now == whole_sim.now

    def test_already_done_future_returns_at_once(self, sim):
        done = sim.future()
        done.resolve(None)
        sim.schedule(3.0, lambda: None)
        assert sim.run(until=done) == 0.0
        assert sim.events_processed == 0 and sim.timer_depth == 1

    def test_failed_future_stops_too(self, sim):
        log = []
        doomed = sim.future()
        sim.schedule(2.0, doomed.fail, RuntimeError("boom"))
        sim.schedule(3.0, log.append, "after")
        assert sim.run(until=doomed) == 2.0  # stops, does not raise
        assert doomed.failed and log == []
        sim.run()
        assert log == ["after"]

    def test_max_events_wins_and_disarms_the_stop(self, sim):
        """Hitting max_events first leaves the future pending; when it
        completes under a later plain run(), that run is not stopped."""
        log = []
        done = sim.future()
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, log.append, t)
        sim.schedule(2.5, done.resolve, None)
        sim.run(until=done, max_events=1)
        assert log == [1.0] and not done.done
        assert sim.events_processed == 1
        sim.run()
        assert log == [1.0, 2.0, 3.0] and done.done

    def test_drained_queue_returns_with_future_pending(self, sim):
        never = sim.future()
        sim.schedule(4.0, lambda: None)
        assert sim.run(until=never) == 4.0
        assert not never.done

    def test_controlled_stop_keeps_unchosen_slot_entries(self):
        """A controller may run the stop callback ahead of other work
        due at the same instant: that work stays pending."""
        sim, log = Simulator(seed=0), []
        sim.controller = PickLast()
        done = sim.future()
        sim.schedule(5.0, done.resolve, None)
        done.add_callback(lambda _f: log.append("earlier callback"))
        # After the resolve the slot is [earlier callback, stop];
        # PickLast runs the stop first.
        sim.run(until=done)
        assert sim.now == 5.0 and log == []
        assert sim.ready_depth == 1
        sim.run()
        assert log == ["earlier callback"]

    def test_controlled_max_events_keeps_the_rest_of_the_slot(self):
        sim, log = Simulator(seed=0), []
        sim.controller = ScheduleController()
        for name in ("t1", "t2", "t3"):
            sim.schedule(5.0, log.append, name)
        sim.run(max_events=1)
        assert log == ["t1"] and sim.ready_depth == 2
        sim.run()
        assert log == ["t1", "t2", "t3"]


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def collector(request):
    """Run the test with the cycle collector in the given state."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was else gc.disable)()


class TestCollectorPause:
    """``run`` pauses the cycle collector and restores the caller's
    setting on every way out (DESIGN.md §4)."""

    def test_paused_inside_a_callback_and_a_process_step(self, sim, collector):
        seen = []

        def proc():
            seen.append(gc.isenabled())
            yield sim.sleep(1.0)
            seen.append(gc.isenabled())

        sim.spawn(proc())
        sim.schedule(2.0, lambda: seen.append(gc.isenabled()))
        sim.run()
        assert seen == [False, False, False] and gc.isenabled() is collector

    @pytest.mark.parametrize("controller", [None, ScheduleController])
    @pytest.mark.parametrize("how", [
        "drained", "until_instant", "until_future", "done_future",
        "max_events", "raises",
    ])
    def test_restored_on_every_exit_path(self, collector, controller, how):
        sim, seen = Simulator(seed=0), []
        if controller is not None:
            sim.controller = controller()
        done = sim.future()
        sim.schedule(1.0, lambda: seen.append(gc.isenabled()))
        sim.schedule(2.0, done.resolve, None)
        sim.schedule(3.0, lambda: seen.append(gc.isenabled()))
        if how == "drained":
            sim.run()
        elif how == "until_instant":
            assert sim.run(until=1.5) == 1.5
        elif how == "until_future":
            assert sim.run(until=done) == 2.0
        elif how == "done_future":
            done = sim.future()
            done.resolve(None)
            assert sim.run(until=done) == 0.0
        elif how == "max_events":
            sim.run(max_events=1)
        else:
            sim.schedule(0.5, lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                sim.run()
        assert gc.isenabled() is collector
        sim.run()  # and a following run pauses again
        assert seen == [False, False] and gc.isenabled() is collector

    def test_a_run_inside_another_simulators_callback(self, sim, collector):
        seen = []

        def nested():
            inner = Simulator(seed=1)
            inner.schedule(1.0, lambda: seen.append(gc.isenabled()))
            inner.run()
            seen.append(gc.isenabled())  # still the outer run's pause

        sim.schedule(1.0, nested)
        sim.run()
        assert seen == [False, False] and gc.isenabled() is collector

    def test_the_helper_nests_and_survives_a_raise(self, collector):
        with pytest.raises(KeyError):
            with collector_paused():
                with collector_paused():
                    assert not gc.isenabled()
                assert not gc.isenabled()
                raise KeyError("boom")
        assert gc.isenabled() is collector


class TestClose:
    def test_close_drops_pending_work_and_keeps_the_counters(self, sim):
        log = []
        sim.schedule(1.0, log.append, "ran")
        sim.schedule(9.0, log.append, "dropped")
        sim.run(until=5.0)
        sim.call_soon(log.append, "dropped too")
        sim.close()
        sim.close()  # idempotent
        assert (sim.ready_depth, sim.timer_depth, sim.timer_tombstones) == (0, 0, 0)
        assert (sim.now, sim.events_processed) == (5.0, 1)
        sim.run()
        assert log == ["ran"]


class TestIntrospection:
    def test_depth_counters(self):
        sim = Simulator(seed=0)
        for d in (5.0, 5_000.0, 500_000.0, 30_000_000.0):
            sim.schedule(d, lambda: None)
        sim.call_later(42.0, lambda: None)
        sim.sleep(43.0)
        sim.call_soon(lambda: None)
        sim.schedule(0.0, lambda: None)
        assert sim.timer_depth == 6
        assert sim.ready_depth == 2
        sim.run()
        assert sim.timer_depth == 0 and sim.ready_depth == 0
        assert sim.now == 30_000_000.0

    def test_iter_pending_covers_both_lanes_and_skips_cancelled(self):
        sim = Simulator(seed=0)
        fn = lambda *a: None  # noqa: E731
        kept = sim.schedule(5.0, fn)
        sim.call_later(10.0, fn, "x")
        sim.call_soon(fn)
        sim.schedule(40.0, fn).cancel()
        sim.schedule(0.0, fn).cancel()
        pending = list(sim.iter_pending())
        assert len(pending) == 3
        assert all(cb is fn for _, cb, _ in pending)
        assert [t for t, _, _ in pending if t is not None] == [kept]
        assert (None, fn, ("x",)) in pending

    def test_events_processed_counts_both_lanes(self):
        sim = Simulator(seed=0)
        for d in (1.0, 2.0, 3.0):
            sim.call_later(d, lambda: None)
        sim.schedule(2.5, lambda: None).cancel()
        sim.call_soon(lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestGoldenTrace:
    """Locks the kernel's exact event interleaving.

    The trace below was captured from the pre-fast-lane single-heap
    kernel (strict ``(time, seq)`` order).  The two-lane kernel must
    reproduce it byte for byte: any divergence means the determinism
    contract (DESIGN.md) has been broken, even if all behavioural tests
    still pass.
    """

    EXPECTED = [
        (0.0, "a-start"),
        (0.0, "b-start"),
        (0.0, "late-cb-7"),
        (0.0, "b-zero-slept"),
        (0.0, "b-soon"),
        (1.0, "t1"),
        (2.0, "a-slept"),
        (2.899361, "rng0"),
        (4.0, "b-resolved"),
        (4.0, "a-got-X"),
        (4.0, "c-all-['A', 'B']"),
        (4.221558, "rng1"),
        (4.244033, "rng2"),
        (5.0, "t5-a"),
        (5.0, "t5-b"),
        (5.0, "chain0"),
        (5.0, "t5-c"),
        (5.0, "chain1"),
        (5.0, "chain2"),
        (5.0, "c-any-0-None"),
        (5.0, "chain3"),
        (6.976961, "rng3"),
        (9.794768, "rng4"),
        (9.794768, "end"),
        ("events", 37),
    ]

    @staticmethod
    def scenario_trace():
        sim = Simulator(seed=1234)
        trace = []

        def ev(label):
            trace.append((round(sim.now, 6), label))

        # plain timers, out of order, some at the same instant
        sim.schedule(5.0, ev, "t5-a")
        sim.schedule(1.0, ev, "t1")
        sim.schedule(5.0, ev, "t5-b")
        t = sim.schedule(3.0, ev, "t3-cancelled")
        t.cancel()

        # zero-delay lane interleaved with same-time timers
        def chain(n):
            ev(f"chain{n}")
            if n < 3:
                sim.call_soon(chain, n + 1)

        sim.schedule(5.0, chain, 0)
        sim.schedule(5.0, ev, "t5-c")

        # futures + callbacks + processes
        f = sim.future("f")

        def proc_a():
            ev("a-start")
            yield sim.sleep(2.0)
            ev("a-slept")
            value = yield f
            ev(f"a-got-{value}")
            return "A"

        def proc_b():
            ev("b-start")
            yield sim.sleep(0.0)
            ev("b-zero-slept")
            sim.call_soon(ev, "b-soon")
            yield sim.sleep(4.0)
            f.resolve("X")
            ev("b-resolved")
            return "B"

        pa = sim.spawn(proc_a(), name="a")
        pb = sim.spawn(proc_b(), name="b")

        def proc_c():
            results = yield all_of(sim, [pa, pb])
            ev(f"c-all-{results}")
            idx, val = yield any_of(sim, [sim.sleep(1.0), sim.future("never")])
            ev(f"c-any-{idx}-{val}")

        sim.spawn(proc_c(), name="c")

        # rng-driven timers entangle the RNG stream with event order
        def rng_proc():
            for i in range(5):
                yield sim.sleep(sim.rng.uniform(0.0, 3.0))
                ev(f"rng{i}")

        sim.spawn(rng_proc(), name="rng")

        # callback added to an already-done future fires via the queue
        done = sim.future("done")
        done.resolve(7)
        done.add_callback(lambda fut: ev(f"late-cb-{fut.value}"))

        sim.run()
        trace.append((round(sim.now, 6), "end"))
        trace.append(("events", sim.events_processed))
        return trace

    def test_trace_matches_golden(self):
        assert self.scenario_trace() == self.EXPECTED

    def test_trace_is_repeatable(self):
        assert self.scenario_trace() == self.scenario_trace()
