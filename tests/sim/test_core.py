"""Tests for the simulation core: events, timeouts, the loop."""

import pytest

from repro.sim import (
    EventAlreadyTriggeredError,
    SchedulingInPastError,
    Simulator,
)


class TestClock:
    def test_starts_at_zero(self):
        assert Simulator().now == 0

    def test_custom_start_time(self):
        assert Simulator(start_time=500).now == 500

    def test_run_until_advances_clock_even_without_events(self):
        sim = Simulator()
        sim.run(until=1000)
        assert sim.now == 1000

    def test_run_until_in_past_rejected(self):
        sim = Simulator(start_time=100)
        with pytest.raises(SchedulingInPastError):
            sim.run(until=50)

    def test_back_to_back_runs_compose(self):
        sim = Simulator()
        ticks = []
        sim.call_in(300, lambda: ticks.append(sim.now))
        sim.run(until=200)
        assert ticks == []
        sim.run(until=400)
        assert ticks == [300]


class TestTimeout:
    def test_fires_at_the_right_time(self):
        sim = Simulator()
        fired = []
        timeout = sim.timeout(250)
        timeout.callbacks.append(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [250]

    def test_carries_value(self):
        sim = Simulator()
        timeout = sim.timeout(10, value="payload")
        sim.run()
        assert timeout.value == "payload"

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SchedulingInPastError):
            sim.timeout(-1)

    def test_zero_delay_fires_immediately(self):
        sim = Simulator()
        timeout = sim.timeout(0)
        sim.run()
        assert timeout.processed
        assert sim.now == 0


class TestEvent:
    def test_succeed_delivers_value(self):
        sim = Simulator()
        event = sim.event()
        seen = []
        event.callbacks.append(lambda ev: seen.append(ev.value))
        event.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggeredError):
            event.succeed()

    def test_fail_then_succeed_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(EventAlreadyTriggeredError):
            event.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_propagates_from_run(self):
        sim = Simulator()
        sim.event().fail(ValueError("unhandled"))
        with pytest.raises(ValueError, match="unhandled"):
            sim.run()

    def test_value_unavailable_before_trigger(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            _ = sim.event().value

    def test_states(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered and not event.processed
        event.succeed(1)
        assert event.triggered and not event.processed
        sim.run()
        assert event.processed


class TestOrdering:
    def test_fifo_among_simultaneous_events(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.call_in(100, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_time_ordering_dominates(self):
        sim = Simulator()
        order = []
        sim.call_in(200, lambda: order.append("late"))
        sim.call_in(100, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_peek_reports_next_event_time(self):
        sim = Simulator()
        sim.timeout(70)
        assert sim.peek() == 70

    def test_peek_empty_queue(self):
        assert Simulator().peek() is None


class TestStop:
    def test_stop_aborts_run(self):
        sim = Simulator()
        seen = []
        sim.call_in(10, lambda: seen.append(1))
        sim.call_in(20, sim.stop)
        sim.call_in(30, lambda: seen.append(2))
        sim.run()
        assert seen == [1]
        assert sim.now == 20


class TestCallbacks:
    def test_call_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(123, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [123]

    def test_call_at_past_rejected(self):
        sim = Simulator(start_time=10)
        with pytest.raises(SchedulingInPastError):
            sim.call_at(5, lambda: None)
