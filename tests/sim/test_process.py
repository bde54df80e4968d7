"""Tests for generator processes: lifecycle, joins, interrupts, errors."""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_process_runs_and_returns_value():
    sim = Simulator()

    def worker(sim):
        yield sim.timeout(10)
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "done"
    assert not proc.is_alive


def test_spawn_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.spawn(lambda: None)


def test_process_receives_event_values():
    sim = Simulator()

    def worker(sim):
        value = yield sim.timeout(5, value="payload")
        return value

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "payload"


def test_join_on_another_process():
    sim = Simulator()

    def fast(sim):
        yield sim.timeout(5)
        return 99

    def waiter(sim, other):
        result = yield other
        return result + 1

    fast_proc = sim.spawn(fast(sim))
    waiter_proc = sim.spawn(waiter(sim, fast_proc))
    sim.run()
    assert waiter_proc.value == 100


def test_join_on_finished_process():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)
        return "early"

    quick_proc = sim.spawn(quick(sim))
    sim.run()

    def late_joiner(sim):
        result = yield quick_proc
        return result

    late = sim.spawn(late_joiner(sim))
    sim.run()
    assert late.value == "early"


def test_sequential_timeouts_accumulate():
    sim = Simulator()
    stamps = []

    def worker(sim):
        for _ in range(3):
            yield sim.timeout(10)
            stamps.append(sim.now)

    sim.spawn(worker(sim))
    sim.run()
    assert stamps == [10, 20, 30]


def test_exception_in_process_fails_it():
    sim = Simulator()

    def broken(sim):
        yield sim.timeout(1)
        raise ValueError("kaput")

    proc = sim.spawn(broken(sim))
    with pytest.raises(ValueError, match="kaput"):
        sim.run()
    assert proc.triggered and not proc.ok


def test_failed_process_join_raises_in_joiner():
    sim = Simulator()

    def broken(sim):
        yield sim.timeout(1)
        raise ValueError("inner")

    def joiner(sim, other):
        try:
            yield other
        except ValueError as exc:
            return f"caught {exc}"

    broken_proc = sim.spawn(broken(sim))
    joiner_proc = sim.spawn(joiner(sim, broken_proc))
    sim.run()
    assert joiner_proc.value == "caught inner"


def test_yielding_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield "not an event"

    proc = sim.spawn(bad(sim))
    with pytest.raises(SimulationError):
        sim.run()
    assert not proc.ok


def test_interrupt_delivers_cause():
    sim = Simulator()

    def sleeper(sim):
        try:
            yield sim.timeout(1000)
            return "overslept"
        except Interrupt as interrupt:
            return ("interrupted", interrupt.cause, sim.now)

    proc = sim.spawn(sleeper(sim))
    sim.call_in(100, lambda: proc.interrupt("wake up"))
    sim.run()
    assert proc.value == ("interrupted", "wake up", 100)


def test_interrupt_finished_process_rejected():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.spawn(quick(sim))
    sim.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_stale_target_after_interrupt_is_dropped():
    """After an interrupt, the original target firing must not resume the
    process a second time."""
    sim = Simulator()
    resumed = []

    def sleeper(sim):
        try:
            yield sim.timeout(50)
        except Interrupt:
            pass
        resumed.append(sim.now)
        yield sim.timeout(500)
        resumed.append(sim.now)

    proc = sim.spawn(sleeper(sim))
    sim.call_in(10, lambda: proc.interrupt())
    sim.run()
    # resumed exactly twice: once after the interrupt, once after the
    # second timeout; the stale 50-tick timeout must not count.
    assert resumed == [10, 510]


@pytest.mark.parametrize("spelling", ["int", "timeout"])
def test_interrupt_in_spawning_instant_lands_at_first_yield(spelling):
    """A process interrupted before its first step still takes that step,
    and gets the Interrupt at its first yield, in the same instant."""
    sim = Simulator()
    log = []

    def sleeper(sim):
        log.append(("started", sim.now))
        try:
            yield 1_000 if spelling == "int" else sim.timeout(1_000)
            log.append(("overslept", sim.now))
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause, sim.now))
        yield 5
        log.append(("done", sim.now))

    def spawner(sim):
        yield 10
        victim = sim.spawn(sleeper(sim))
        victim.interrupt("early")
        log.append(("spawned", sim.now))

    top = sim.spawn(sleeper(sim))
    top.interrupt("at-zero")
    sim.spawn(spawner(sim))
    sim.run()
    assert log == [
        ("started", 0), ("interrupted", "at-zero", 0), ("done", 5),
        ("spawned", 10), ("started", 10), ("interrupted", "early", 10), ("done", 15),
    ]


def test_processes_spawned_in_one_instant_start_in_spawn_order():
    """A spawn files its first step when it is called: same-instant
    spawns start in spawn order, interleaved with other zero-delay
    entries filed between them, and after the spawner yields."""
    sim = Simulator()
    order = []

    def worker(name):
        order.append((sim.now, name))
        yield 1
        order.append((sim.now, name + "'"))

    def spawner():
        yield 10
        sim.spawn(worker("a"))
        sim.call_in(0, lambda: order.append((sim.now, "callback")))
        sim.spawn(worker("b"))
        ready = sim.event()
        ready.callbacks.append(lambda _event: order.append((sim.now, "event")))
        ready.succeed()
        sim.spawn(worker("c"))
        order.append((sim.now, "spawner"))

    sim.spawn(worker("x"))
    sim.spawn(spawner())
    sim.spawn(worker("y"))
    sim.run()
    assert order == [
        (0, "x"), (0, "y"), (1, "x'"), (1, "y'"),
        (10, "spawner"), (10, "a"), (10, "callback"), (10, "b"), (10, "event"), (10, "c"),
        (11, "a'"), (11, "b'"), (11, "c'"),
    ]


def test_many_processes_interleave():
    sim = Simulator()
    log = []

    def worker(sim, name, period):
        for _ in range(3):
            yield sim.timeout(period)
            log.append((sim.now, name))

    sim.spawn(worker(sim, "a", 10))
    sim.spawn(worker(sim, "b", 15))
    sim.run()
    # At t=30 both fire; b's timeout was scheduled first (at t=15 vs t=20)
    # so FIFO tie-breaking runs it first.
    assert log == [
        (10, "a"), (15, "b"), (20, "a"), (30, "b"), (30, "a"), (45, "b")
    ]
