"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Simulator


class TestScheduling:
    def test_time_advances_to_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]
        assert sim.now == 1.5

    def test_order_by_time(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("b"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(3.0, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        sim = Simulator()
        order = []
        for name in "abc":
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_may_schedule_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(0.5, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_zero_delay_runs_at_current_time(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [1.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        times = []
        sim.schedule_at(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [4.0]


class TestCancellation:
    def test_cancelled_events_do_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        h = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2
        h.cancel()
        assert sim.pending == 1

    def test_a_cancelled_entry_never_fires_when_stepped(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(1.0, lambda: fired.append("kept"))
        handle.cancel()
        assert handle.cancelled and handle.time == 1.0
        while sim.step():
            pass
        assert fired == ["kept"] and sim.events_fired == 1


class TestRunControls:
    def test_run_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        final = sim.run(until=2.0)
        assert fired == [1] and final == 2.0
        sim.run()
        assert fired == [1, 5]

    def test_max_events_guard(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)

        sim.schedule(1.0, rearm)
        sim.run(max_events=10)
        assert sim.events_fired == 10

    def test_max_events_counts_logical_events(self):
        sim = Simulator()

        def rearm():
            sim.schedule(1.0, rearm)
            sim.advance(sim.now + 0.5, 1)  # a coalesced event counts too

        sim.schedule(1.0, rearm)
        sim.run(max_events=10)
        assert sim.events_fired == 10

    def test_stop_ends_the_running_drain_after_the_current_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1] and sim.pending == 1
        sim.run()
        assert fired == [1, 2]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_run_empty_returns_current_time(self):
        sim = Simulator()
        assert sim.run() == 0.0


class TestAdvance:
    def _draining(self, sim, probe, **limits):
        """Call ``probe`` from inside ``sim.run(**limits)``; return its result."""
        seen = []
        sim.schedule(1.0, lambda: seen.append(probe()))
        sim.run(**limits)
        return seen[0]

    @staticmethod
    def _advance(sim, time, events):
        """A probe: try ``advance``, then read the clock and the count."""
        return lambda: (sim.advance(time, events), sim.now, sim.events_fired)

    def test_advances_when_nothing_is_due_first(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        assert self._draining(sim, self._advance(sim, 2.0, 2)) == (True, 2.0, 3)

    def test_refuses_an_equal_timestamp(self):
        sim = Simulator()
        sim.schedule(2.0, lambda: None)
        assert self._draining(sim, self._advance(sim, 2.0, 1)) == (False, 1.0, 1)

    def test_cancelled_entries_do_not_block_it(self):
        sim = Simulator()
        sim.schedule(1.5, lambda: None).cancel()
        assert self._draining(sim, lambda: sim.advance(2.0, 1)) is True

    def test_refuses_past_until(self):
        sim = Simulator()
        assert self._draining(sim, lambda: sim.advance(3.0, 1), until=2.0) is False
        assert self._draining(sim, lambda: sim.advance(sim.now + 1.0, 1), until=10.0) is True

    def test_refuses_past_max_events(self):
        sim = Simulator()
        assert self._draining(sim, lambda: sim.advance(2.0, 2), max_events=2) is False
        assert self._draining(sim, lambda: sim.advance(sim.now + 1.0, 1), max_events=2) is True

    def test_refuses_under_a_policy(self):
        sim = Simulator()
        sim.set_policy(lambda live: 0)
        assert self._draining(sim, lambda: sim.advance(2.0, 1)) is False

    def test_refuses_outside_a_drain_loop(self):
        sim = Simulator()
        seen = []
        sim.schedule(1.0, lambda: seen.append(sim.advance(2.0, 1)))
        assert sim.step() and seen == [False]
        assert sim.advance(2.0, 1) is False
        assert sim.now == 1.0 and sim.events_fired == 1
