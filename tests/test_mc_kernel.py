"""Kernel two-lane merge order and the ScheduleController hook.

Covers the satellite task "test coverage for the kernel two-lane merge
at equal timestamps": ready-lane entries and heap timers due at the
same instant execute in global sequence order, including the
``call_soon``-from-a-timer-callback case — driven both directly (fast
path, no controller) and through a :class:`ScheduleController` that
tries every merge order (controlled path).
"""

import itertools

import pytest

from repro.sim.kernel import ScheduleController, SimulationError, Simulator


class ForcedOrder(ScheduleController):
    """Replays a fixed choice list; canonical 0 beyond it."""

    def __init__(self, choices=()):
        self.choices = list(choices)
        self.asked = []  # the n of every choice point, in order
        self._i = 0

    def choose_event(self, n):
        self.asked.append(n)
        choice = self.choices[self._i] if self._i < len(self.choices) else 0
        self._i += 1
        return choice


class TestFastPathMergeOrder:
    """The uncontrolled loop: global (time, seq) order across lanes."""

    def test_same_instant_timers_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        for name in ("t1", "t2", "t3"):
            sim.schedule(5.0, log.append, name)
        sim.run()
        assert log == ["t1", "t2", "t3"]

    def test_call_soon_from_timer_callback_runs_after_due_timers(self):
        """A call_soon issued *while executing* a timer lands behind
        every other timer already due at that instant: the clock
        advance moves all due timers onto the ready lane first."""
        sim = Simulator()
        log = []
        sim.schedule(5.0, lambda: (log.append("t1"),
                                   sim.call_soon(log.append, "soon")))
        sim.schedule(5.0, log.append, "t2")
        sim.run()
        assert log == ["t1", "t2", "soon"]

    def test_zero_delay_schedule_interleaves_with_call_soon_by_sequence(self):
        sim = Simulator()
        log = []
        sim.call_soon(log.append, "a")
        sim.schedule(0.0, log.append, "b")
        sim.call_soon(log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ready_lane_drains_before_clock_advances(self):
        sim = Simulator()
        log = []
        sim.schedule(5.0, log.append, ("timer", 5.0))

        def seed():
            log.append(("soon", sim.now))
            sim.call_soon(log.append, ("soon2", sim.now))

        sim.call_soon(seed)
        sim.run()
        assert log == [("soon", 0.0), ("soon2", 0.0), ("timer", 5.0)]


class TestControlledPath:
    """The same orderings through the ScheduleController hook."""

    def _three_timer_sim(self):
        sim = Simulator()
        log = []
        for name in ("t1", "t2", "t3"):
            sim.schedule(5.0, log.append, name)
        return sim, log

    def test_base_controller_reproduces_canonical_order(self):
        """choice 0 everywhere == the fast path's golden order."""
        sim, log = self._three_timer_sim()
        sim.controller = ScheduleController()
        sim.run()
        assert log == ["t1", "t2", "t3"]

    def test_every_merge_order_is_reachable(self):
        """Choice lists enumerate exactly the 3! permutations of a
        same-instant slot (first pick among 3, then among 2)."""
        orders = set()
        for a, b in itertools.product(range(3), range(2)):
            sim, log = self._three_timer_sim()
            sim.controller = ForcedOrder([a, b])
            sim.run()
            orders.add(tuple(log))
        assert orders == set(itertools.permutations(["t1", "t2", "t3"]))

    def test_mixed_lanes_offered_as_one_slot(self):
        """Ready-lane work spawned by a timer joins the slot with the
        remaining due timers: the controller can run it first, reversing
        the canonical order."""
        def build(choices):
            sim = Simulator()
            log = []
            sim.schedule(5.0, lambda: (log.append("t1"),
                                       sim.call_soon(log.append, "soon")))
            sim.schedule(5.0, log.append, "t2")
            ctl = ForcedOrder(choices)
            sim.controller = ctl
            sim.run()
            return log, ctl

        # Canonical: t1 first (seq order), then t2, then the call_soon.
        log, ctl = build([])
        assert log == ["t1", "t2", "soon"]
        # After t1 runs, the slot holds [t2, soon]; choosing index 1
        # flips them — an ordering the fast path can never produce.
        log, ctl = build([0, 1])
        assert log == ["t1", "soon", "t2"]
        assert ctl.asked == [2, 2]

    def test_handle_free_timers_join_the_slot(self):
        """``call_later`` entries (no Timer) due at the same instant as
        ``schedule`` ones are offered together; a later singleton is
        not offered at all."""
        def build(choices):
            sim = Simulator()
            log = []
            sim.schedule(5.0, log.append, "a")
            sim.call_later(5.0, log.append, "b")
            sim.schedule(5.0, log.append, "c")
            sim.schedule(6.0, log.append, "d")
            ctl = ForcedOrder(choices)
            sim.controller = ctl
            sim.run()
            return log, ctl.asked

        assert build([]) == (["a", "b", "c", "d"], [3, 2])
        assert build([2, 1]) == (["c", "b", "a", "d"], [3, 2])

    def test_controller_only_consulted_with_real_choice(self):
        """Singleton slots never reach the controller, so a canonical
        run's decision count == its same-instant contention count."""
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "a")
        sim.schedule(2.0, log.append, "b")
        ctl = ForcedOrder()
        sim.controller = ctl
        sim.run()
        assert log == ["a", "b"]
        assert ctl.asked == []

    def test_out_of_range_choice_clamps_to_canonical(self):
        sim, log = self._three_timer_sim()
        sim.controller = ForcedOrder([99])
        sim.run()
        assert log[0] == "t1"

    def test_cancelled_timers_are_not_offered(self):
        sim = Simulator()
        log = []
        t1 = sim.schedule(5.0, log.append, "t1")
        sim.schedule(5.0, log.append, "t2")
        sim.schedule(5.0, log.append, "t3")
        t1.cancel()
        ctl = ForcedOrder()
        sim.controller = ctl
        sim.run()
        assert log == ["t2", "t3"]
        assert ctl.asked == [2]

    def test_cancellation_from_within_the_slot(self):
        """An event that cancels a same-instant sibling removes it from
        the remaining choices."""
        sim = Simulator()
        log = []
        holder = {}
        sim.schedule(5.0, lambda: holder["t2"].cancel())
        holder["t2"] = sim.schedule(5.0, log.append, "t2")
        sim.schedule(5.0, log.append, "t3")
        ctl = ForcedOrder()
        sim.controller = ctl
        sim.run()
        assert log == ["t3"]
        assert ctl.asked == [3]  # the purge happens before the next ask

    def test_until_and_max_events_respected(self):
        sim = Simulator()
        log = []
        for when in (1.0, 2.0, 3.0):
            sim.schedule(when, log.append, when)
        sim.controller = ScheduleController()
        assert sim.run(until=2.0) == 2.0
        assert log == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert log == [1.0, 2.0, 3.0]

        sim2 = Simulator()
        sim2.controller = ScheduleController()
        for _ in range(5):
            sim2.call_soon(log.append, "x")
        sim2.run(max_events=2)
        assert log.count("x") == 2
        assert sim2.events_processed == 2

    def test_sleep_and_processes_work_under_controller(self):
        """Generator processes (sleep entries carry no Timer) run fine
        on the controlled path."""
        sim = Simulator()
        sim.controller = ScheduleController()
        log = []

        def proc():
            yield sim.sleep(5.0)
            log.append(sim.now)
            yield sim.sleep(0.0)
            log.append("after-zero-sleep")

        sim.spawn(proc())
        sim.run()
        assert log == [5.0, "after-zero-sleep"]

    def test_golden_trace_matches_fast_path(self):
        """A busier mixed workload produces the identical event order
        with and without the base controller installed."""
        def run(controlled):
            sim = Simulator(seed=3)
            log = []

            def proc(name, delay):
                yield sim.sleep(delay)
                log.append((name, sim.now))
                sim.call_soon(log.append, (name + "-soon", sim.now))
                yield sim.sleep(delay)
                log.append((name + "-end", sim.now))

            for i in range(4):
                sim.spawn(proc(f"p{i}", float(1 + i % 2)))
                sim.schedule(float(1 + i), log.append, (f"t{i}", float(1 + i)))
            if controlled:
                sim.controller = ScheduleController()
            sim.run()
            return log

        assert run(False) == run(True)
