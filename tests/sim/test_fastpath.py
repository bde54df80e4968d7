"""The integer-delay fast path must be indistinguishable from Timeout.

``yield n`` and ``yield sim.timeout(n)`` are two spellings of the same
sleep. These tests run one process tree per spelling and assert
bit-identical behaviour: event ordering, final clock, kernel event count.
Plus the sharp edges: interrupts landing mid-delay (stale token
recycling), ``Timeout.cancel`` lazy deletion and heap compaction, the
``Tracer.wants`` memo, and the yield-type guardrails.
"""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator
from repro.sim.core import _DelayWakeup
from repro.sim.tracing import TraceLog, Tracer


def _mixed_workload(sim, log, use_fastpath_spelling):
    """A process clique exercising delays, events, joins and interrupts."""

    def delay(n):
        # The only difference between the paired runs is this spelling.
        return n if use_fastpath_spelling else sim.timeout(n)

    gate = sim.event("gate")

    def ticker(name, period, count):
        for i in range(count):
            yield delay(period)
            log.append((sim.now, name, i))

    def gatekeeper():
        yield delay(25)
        gate.succeed("open")
        log.append((sim.now, "gatekeeper", "opened"))

    def waiter():
        word = yield gate
        log.append((sim.now, "waiter", word))
        yield delay(10)
        log.append((sim.now, "waiter", "done"))

    def sleeper():
        try:
            yield delay(10_000)
            log.append((sim.now, "sleeper", "overslept"))
        except Interrupt as interrupt:
            log.append((sim.now, "sleeper", f"poked:{interrupt.cause}"))
            yield delay(7)
            log.append((sim.now, "sleeper", "back"))

    def poker(victim):
        yield delay(33)
        victim.interrupt("hey")

    sim.spawn(ticker("a", 10, 6), name="ticker-a")
    sim.spawn(ticker("b", 15, 4), name="ticker-b")
    sim.spawn(gatekeeper(), name="gatekeeper")
    sim.spawn(waiter(), name="waiter")
    victim = sim.spawn(sleeper(), name="sleeper")
    sim.spawn(poker(victim), name="poker")


def _run_mixed(fastpath_spelling):
    sim = Simulator()
    log = []
    _mixed_workload(sim, log, fastpath_spelling)
    sim.run()
    return log, sim.now


class TestPairedDeterminism:
    def test_int_yield_matches_timeout_yield(self):
        fast_log, fast_end = _run_mixed(True)
        classic_log, classic_end = _run_mixed(False)
        assert fast_log == classic_log
        assert fast_end == classic_end

    def test_sequence_numbers_consumed_identically(self):
        # Equal event counts after equal scenarios mean every scheduling
        # decision happened at the same points — the strongest ordering
        # witness.
        sims = []
        for spelling in (True, False):
            sim = Simulator()
            log = []
            _mixed_workload(sim, log, spelling)
            sim.run()
            sims.append(sim)
        assert sims[0].events == sims[1].events


class TestFastDelaySemantics:
    def test_zero_delay_resumes_same_instant_after_others(self):
        sim = Simulator()
        order = []

        def zero_hopper():
            yield 0
            order.append("hop")

        def plain():
            yield sim.timeout(0)
            order.append("plain")

        sim.spawn(zero_hopper())
        sim.spawn(plain())
        sim.run()
        assert sim.now == 0
        assert order == ["hop", "plain"]

    def test_delay_value_is_none(self):
        sim = Simulator()
        seen = []

        def proc():
            seen.append((yield 5))

        sim.spawn(proc())
        sim.run()
        assert seen == [None]

    def test_yield_already_processed_event_gets_its_value(self):
        sim = Simulator()
        done = sim.event()
        done.succeed("payload")
        seen = []

        def late_joiner():
            yield sim.timeout(10)  # `done` is long processed by now
            seen.append((yield done))

        sim.spawn(late_joiner())
        sim.run()
        assert seen == ["payload"]

    def test_token_reused_across_consecutive_delays(self):
        sim = Simulator()
        tokens = []

        def proc():
            for _ in range(3):
                yield 5
                tokens.append(process._delay_wakeup)

        process = sim.spawn(proc())
        sim.run()
        assert isinstance(tokens[0], _DelayWakeup)
        assert len({id(t) for t in tokens}) == 1

    def test_interrupt_during_fast_delay(self):
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield 1_000
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield 5
            log.append(("resumed", sim.now))

        def poker(victim):
            yield 100
            victim.interrupt()

        victim = sim.spawn(sleeper())
        sim.spawn(poker(victim))
        sim.run()
        assert log == [("interrupted", 100), ("resumed", 105)]
        # The abandoned 1000-tick token eventually pops and is ignored —
        # the run ends at the stale token's time with no further effect.
        assert sim.now == 1_000

    def test_stale_token_recycled_not_duplicated(self):
        sim = Simulator()

        def sleeper():
            try:
                yield 1_000
            except Interrupt:
                pass
            # Re-arming while the stale token is still heap-parked must
            # allocate a fresh token (the stale one is dead, not reusable).
            yield 50
            yield 2_000  # outlives the stale pop at t=1000

        def poker(victim):
            yield 100
            victim.interrupt()

        victim = sim.spawn(sleeper())
        sim.spawn(poker(victim))
        sim.run()
        assert victim.triggered
        assert sim.now == 2_150
        # After the stale pop recycled itself, the process holds one token.
        assert isinstance(victim._delay_wakeup, _DelayWakeup)

    def test_negative_int_yield_fails_process(self):
        sim = Simulator()

        def proc():
            yield -5

        process = sim.spawn(proc())
        with pytest.raises(SimulationError, match="negative delay"):
            sim.run()
        assert not process.ok

    def test_bool_yield_is_rejected(self):
        # bool is an int subclass, but `yield True` is a bug, not a delay.
        sim = Simulator()

        def proc():
            yield True

        process = sim.spawn(proc())
        with pytest.raises(SimulationError, match="not an Event"):
            sim.run()
        assert not process.ok


class TestTimeoutCancel:
    def test_cancelled_timer_never_fires(self):
        sim = Simulator()
        fired = []
        timer = sim.call_in(50, lambda: fired.append(sim.now))
        assert timer.cancel() is True
        sim.run()
        assert fired == []
        # Cancelled entries are skip-popped without advancing the clock.
        assert sim.now == 0

    def test_cancel_after_fire_returns_false(self):
        sim = Simulator()
        fired = []
        timer = sim.call_in(10, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [10]
        assert timer.cancel() is False

    def test_double_cancel_is_idempotent(self):
        sim = Simulator()
        timer = sim.timeout(10)
        assert timer.cancel() is True
        assert timer.cancel() is True
        assert sim._cancelled_pending == 1

    def test_other_timers_survive_a_cancel(self):
        sim = Simulator()
        fired = []
        doomed = sim.call_in(20, lambda: fired.append("doomed"))
        sim.call_in(30, lambda: fired.append("kept"))
        doomed.cancel()
        sim.run()
        assert fired == ["kept"]

    def test_heap_compaction_drops_cancelled_entries(self):
        sim = Simulator()
        fired = []
        doomed = [sim.timeout(1_000 + i) for i in range(100)]
        sim.call_in(5, lambda: fired.append("early"))
        sim.call_in(2_000, lambda: fired.append("late"))
        for timer in doomed:
            timer.cancel()
        # The 64th cancel crosses the >=64-and-majority threshold and
        # rebuilds the containers without the dead entries; the stragglers
        # cancelled after that stay lazily pending.
        assert sim._cancelled_pending == 36
        queued = len(sim._ready) + sim._wheel_count + len(sim._heap)
        assert queued == 2 + sim._cancelled_pending
        sim.run()
        assert fired == ["early", "late"]
        assert sim.now == 2_000

    def test_compaction_preserves_ordering(self):
        sim = Simulator()
        fired = []
        for i in range(40):
            sim.call_in(10 + i, lambda i=i: fired.append(i))
        doomed = [sim.timeout(5_000 + i) for i in range(80)]
        for timer in doomed:
            timer.cancel()
        sim.run()
        assert fired == list(range(40))


class TestTracerWants:
    def test_wants_false_without_sinks(self):
        tracer = Tracer(Simulator())
        assert tracer.wants("ctxsw-in") is False

    def test_subscribe_invalidates_memo(self):
        tracer = Tracer(Simulator())
        assert tracer.wants("tick") is False  # memoized False
        tracer.subscribe(TraceLog(), kinds=["tick"])
        assert tracer.wants("tick") is True
        assert tracer.wants("other") is False

    def test_global_sink_wants_everything(self):
        tracer = Tracer(Simulator())
        assert tracer.wants("anything") is False
        tracer.subscribe(TraceLog())
        assert tracer.wants("anything") is True

    def test_enabled_toggle_invalidates_memo(self):
        tracer = Tracer(Simulator())
        tracer.subscribe(TraceLog(), kinds=["tick"])
        assert tracer.wants("tick") is True
        tracer.enabled = False
        assert tracer.wants("tick") is False
        tracer.enabled = True
        assert tracer.wants("tick") is True


class TestTraceLogHelpers:
    def test_count_by_kind_and_clear(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        tracer.emit("src", "a")
        tracer.emit("src", "a")
        tracer.emit("src", "b")
        assert log.count_by_kind() == {"a": 2, "b": 1}
        assert len(log) == 3
        log.clear()
        assert len(log) == 0
        assert log.count_by_kind() == {}
