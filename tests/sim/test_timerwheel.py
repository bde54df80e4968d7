"""The timer wheel must be invisible: same order, same bits, less work.

Near-future entries land in O(1) wheel slots; far-future ones overflow
to the heap and cascade in as the cursor approaches. These tests pin the
merge invariants — time-then-FIFO pop order, slot-boundary and horizon
edges, stale interrupt tokens parked in wheel slots — and the
:class:`PeriodicTask` primitive's contract: generator-identical tick
times, FIFO interleaving, one sequence number per tick (bit-identical to
a Timeout chain that creates its next timer before calling ``fn``), and
lazy cancellation. Plus the satellite regressions: ``peek`` skipping
lazily-cancelled heads and exact compaction accounting under
cancel-heavy mixed wheel/heap load. ``test_order_oracle.py`` checks the
pop order against its definition on random programs.
"""

import functools
import random

import pytest

from repro.sim import (
    Interrupt,
    PeriodicTask,
    SchedulingInPastError,
    Simulator,
)
from repro.sim.core import _WHEEL_SHIFT, _WHEEL_SLOTS

#: One wheel slot's span in ticks (~65.5 us).
SLOT = 1 << _WHEEL_SHIFT
#: The wheel horizon (~33.6 ms): delays beyond this overflow to the heap.
HORIZON = _WHEEL_SLOTS << _WHEEL_SHIFT


class TestWheelRouting:
    def test_near_future_entry_lands_in_wheel(self):
        sim = Simulator()
        sim.timeout(SLOT * 3)
        assert sim._wheel_count == 1
        assert not sim._heap

    def test_same_slot_entry_goes_to_ready(self):
        # Offset 0 from the cursor — the wheel cannot distinguish "this
        # slot, not yet popped" from "this slot, already drained", so the
        # entry merges straight into the ready heap.
        sim = Simulator()
        sim.timeout(SLOT - 1)
        assert sim._ready and sim._wheel_count == 0 and not sim._heap

    def test_far_future_entry_overflows_to_heap(self):
        sim = Simulator()
        sim.timeout(HORIZON + SLOT)
        assert sim._heap
        assert sim._wheel_count == 0


def _scattered_timers(sim, log):
    """Timers spread across ready/wheel/heap, with same-time collisions."""
    rng = random.Random(0xC0FFEE)
    delays = (
        [rng.randrange(0, SLOT) for _ in range(10)]          # ready-bound
        + [rng.randrange(SLOT, HORIZON) for _ in range(25)]  # wheel-bound
        + [rng.randrange(HORIZON, HORIZON * 3) for _ in range(10)]  # heap
        + [SLOT * 7] * 3                                     # same-time FIFO
        + [k << _WHEEL_SHIFT for k in (1, 2, 511, 512, 513)]  # boundaries
    )
    for i, delay in enumerate(delays):
        sim.call_in(delay, lambda i=i, d=delay: log.append((sim.now, i, d)))
    return delays


class TestWheelVsHeapOrdering:
    def test_all_entries_fire_in_time_then_fifo_order(self):
        sim = Simulator()
        log = []
        delays = _scattered_timers(sim, log)
        sim.run()
        assert len(log) == len(delays)
        # Time-sorted, and FIFO (ascending schedule index) within a time.
        assert log == sorted(log, key=lambda r: (r[0], r[1]))

    def test_slot_boundary_entries(self):
        # Times exactly on k << SHIFT must land in slot k, not k-1 or k+1.
        sim = Simulator()
        fired = []
        for k in (1, 2, 3, 511):
            sim.call_at(k << _WHEEL_SHIFT, lambda k=k: fired.append((sim.now, k)))
        sim.run()
        assert fired == [(k << _WHEEL_SHIFT, k) for k in (1, 2, 3, 511)]

    def test_far_future_cascades_into_order(self):
        # A heap-parked entry must interleave correctly with wheel entries
        # scheduled later but due sooner.
        sim = Simulator()
        log = []
        sim.call_in(HORIZON + SLOT * 5, lambda: log.append("far"))
        sim.call_in(SLOT * 2, lambda: log.append("near"))
        sim.call_in(HORIZON + SLOT * 2, lambda: log.append("mid"))
        sim.run()
        assert log == ["near", "mid", "far"]

    def test_reschedule_past_the_cursor_goes_to_ready(self):
        # Once the cursor has advanced, a new entry due in an already-
        # drained slot's span must merge into ready, not wrap the wheel.
        sim = Simulator()
        log = []

        def late_arrival():
            # Scheduled at pop time (cursor has advanced to slot 10).
            sim.call_in(1, lambda: log.append(("inner", sim.now)))

        sim.call_in(SLOT * 10, late_arrival)
        sim.call_in(SLOT * 10 + 2, lambda: log.append(("outer", sim.now)))
        sim.run()
        assert log == [("inner", SLOT * 10 + 1), ("outer", SLOT * 10 + 2)]

    def test_interrupt_abandoned_token_in_wheel_slot(self):
        # An interrupted delay leaves its stale token parked in a wheel
        # slot; the token must pop harmlessly and not wake anyone.
        sim = Simulator()
        log = []

        def sleeper():
            try:
                yield SLOT * 100  # parks a token deep in the wheel
            except Interrupt:
                log.append(("interrupted", sim.now))
            yield 5
            log.append(("resumed", sim.now))

        def poker(victim):
            yield 50
            victim.interrupt()

        victim = sim.spawn(sleeper())
        sim.spawn(poker(victim))
        sim.run()
        assert log == [("interrupted", 50), ("resumed", 55)]
        # The run drains through the stale token's slot without effect.
        assert sim.now == SLOT * 100


class TestPeriodicTask:
    def test_ticks_at_fixed_period(self):
        sim = Simulator()
        times = []
        task = PeriodicTask(sim, 100, lambda: times.append(sim.now))
        sim.run(until=550)
        assert times == [100, 200, 300, 400, 500]
        assert task.ticks == 5

    def test_wheel_scale_period_ticks_exactly(self):
        # A period wider than one slot exercises wheel re-arming per tick.
        sim = Simulator()
        times = []
        sim.periodic(SLOT * 3, lambda: times.append(sim.now))
        sim.run(until=SLOT * 10)
        assert times == [SLOT * 3, SLOT * 6, SLOT * 9]

    def test_first_delay_offsets_only_the_first_tick(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 100, lambda: times.append(sim.now), first_delay=30)
        sim.run(until=350)
        assert times == [30, 130, 230, 330]

    def test_zero_first_delay_fires_at_construction_instant(self):
        sim = Simulator()
        times = []
        PeriodicTask(sim, 50, lambda: times.append(sim.now), first_delay=0)
        sim.run(until=120)
        assert times == [0, 50, 100]

    def test_invalid_arguments_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="period must be positive"):
            PeriodicTask(sim, 0, lambda: None)
        with pytest.raises(SchedulingInPastError):
            PeriodicTask(sim, 10, lambda: None, first_delay=-1)

    def test_fifo_interleaving_with_same_time_timers(self):
        # Armed first -> fires first at the shared instant; the re-armed
        # next tick then queues after anything scheduled inside the tick.
        sim = Simulator()
        log = []
        sim.periodic(100, lambda: log.append("task"))
        sim.call_at(100, lambda: log.append("timer"))
        sim.run(until=100)
        assert log == ["task", "timer"]

    def test_cancel_stops_ticking_and_is_idempotent(self):
        sim = Simulator()
        times = []
        task = sim.periodic(100, lambda: times.append(sim.now))
        sim.call_at(250, task.cancel)
        sim.run(until=1_000)
        assert times == [100, 200]
        assert task.cancelled
        assert task.cancel() is True  # idempotent, like Timeout.cancel
        assert sim.now == 1_000

    def test_cancel_from_inside_fn(self):
        sim = Simulator()
        task = sim.periodic(100, lambda: task.cancel())
        sim.run()
        assert task.ticks == 1

    def test_fn_exception_propagates(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("tick failed")

        sim.periodic(100, boom)
        with pytest.raises(RuntimeError, match="tick failed"):
            sim.run()

    def test_name_defaults_to_fn_name(self):
        sim = Simulator()

        def sample_window():
            pass

        task = sim.periodic(10, sample_window)
        task.cancel()
        assert task.name == "sample_window"
        assert "sample_window" in repr(task)


def _periodic_workload(sim, log, every):
    """Periodic ticks racing one-shot timers and a spawned process.

    ``every(period, fn, first_delay=None)`` is the periodic spelling under
    test; it returns a handle with ``cancel()``.
    """
    every(SLOT // 2, lambda: log.append((sim.now, "fast")))
    every(SLOT * 5, lambda: log.append((sim.now, "slow")))
    every(SLOT * 3, lambda: log.append((sim.now, "mid")), first_delay=7)
    doomed = every(SLOT, lambda: log.append((sim.now, "doomed")))
    sim.call_at(SLOT * 4, doomed.cancel)

    def proc():
        for i in range(20):
            yield SLOT
            log.append((sim.now, f"proc-{i}"))

    sim.spawn(proc())
    for k in range(8):
        sim.call_in(SLOT * k + 3, lambda k=k: log.append((sim.now, f"timer-{k}")))


class _TimeoutChain:
    """``sim.periodic`` spelled with Timeouts: each tick creates the next
    ``sim.timeout(period)`` before it calls ``fn``."""

    def __init__(self, sim, period, fn, first_delay=None):
        self.sim = sim
        self.period = period
        self.fn = fn
        self._arm(period if first_delay is None else first_delay)

    def _arm(self, delay):
        self.timer = self.sim.timeout(delay)
        self.timer.callbacks.append(self._tick)

    def _tick(self, _event):
        self._arm(self.period)
        self.fn()

    def cancel(self):
        self.timer.cancel()


class TestPeriodicTaskSpellings:
    def test_periodic_matches_timeout_chain(self):
        # The strongest determinism witness: identical event logs, final
        # clocks AND event counters for the allocation-free task and the
        # Timeout chain — every scheduling decision happened at the same
        # point.
        results = []
        for spelling in ("task", "chain"):
            sim = Simulator()
            log = []
            if spelling == "task":
                every = sim.periodic
            else:
                every = functools.partial(_TimeoutChain, sim)
            _periodic_workload(sim, log, every)
            sim.run(until=SLOT * 25)
            results.append((log, sim.now, sim.events))
        assert results[0] == results[1]


class TestPeekSkipsCancelled:
    def test_peek_skips_cancelled_head(self):
        sim = Simulator()
        doomed = sim.call_in(10, lambda: None)
        sim.call_in(40, lambda: None)
        doomed.cancel()
        assert sim.peek() == 40

    def test_peek_returns_none_when_only_cancelled_remain(self):
        sim = Simulator()
        for timer in [sim.timeout(10), sim.timeout(20)]:
            timer.cancel()
        assert sim.peek() is None

    def test_peek_skips_cancelled_wheel_entries(self):
        sim = Simulator()
        doomed = sim.call_in(SLOT * 3, lambda: None)
        sim.call_in(SLOT * 9, lambda: None)
        doomed.cancel()
        assert sim.peek() == SLOT * 9

    def test_step_is_noop_on_cancelled_only_schedule(self):
        sim = Simulator()
        sim.timeout(10).cancel()
        sim.step()
        assert sim.now == 0

    def test_run_until_does_not_burn_steps_on_cancelled(self):
        sim = Simulator()
        fired = []
        doomed = sim.call_in(10, lambda: fired.append("doomed"))
        sim.call_in(30, lambda: fired.append("kept"))
        doomed.cancel()
        sim.run(until=20)
        assert fired == []
        assert sim.now == 20
        sim.run(until=50)
        assert fired == ["kept"]


class TestCancelHeavyStress:
    def test_mixed_wheel_heap_cancellation_accounting(self):
        # Cancel a pseudo-random half of a large mixed population (ready,
        # wheel, and heap residents), crossing the compaction threshold
        # repeatedly; surviving timers must fire in order and the lazy-
        # cancel ledger must balance to exactly zero once drained.
        sim = Simulator()
        rng = random.Random(1234)
        fired = []
        timers = []
        for i in range(400):
            delay = rng.randrange(1, HORIZON * 2)
            timers.append((delay, sim.call_in(delay, lambda d=delay: fired.append(d))))
        doomed = rng.sample(timers, 200)
        for _, timer in doomed:
            timer.cancel()
        sim.run()
        survivors = sorted(d for d, t in timers if (d, t) not in doomed)
        assert fired == survivors
        assert sim._cancelled_pending == 0
        assert not sim._ready and not sim._heap and sim._wheel_count == 0

    def test_cancel_while_running_mixed_population(self):
        sim = Simulator()
        rng = random.Random(99)
        fired = []
        timers = []
        for i in range(100):
            delay = rng.randrange(1, HORIZON)
            timers.append(sim.call_in(delay, lambda d=delay, i=i: fired.append((d, i))))
        # A periodic saboteur cancels the not-yet-fired tail in waves.
        def sabotage():
            for timer in timers[60:]:
                timer.cancel()
        sim.call_in(HORIZON // 4, sabotage)
        sim.run()
        assert sim._cancelled_pending == 0
        assert fired == sorted(fired)
