"""The kernel's pop order, checked against its definition.

The schedule is a timer wheel, a drain buffer and an overflow heap, but
it must behave as one global heap keyed by ``(time, seq)``. This module
states that without a second kernel: random programs of ``call_in`` /
``call_at``, ``Timeout.cancel`` (in bursts that cross the compaction
threshold), :class:`PeriodicTask` ticks with cancels, and callbacks that
schedule more, are run through random ``run(until)`` / ``run_until`` /
``step`` slices. Each entry's seq is ``sim.events`` just before it is
scheduled, and the oracle asserts that entries fire

* in strictly increasing ``(time, seq)`` order,
* each exactly at its due time, and none twice,
* never after being cancelled, and
* never late: when a slice ends, no live entry due within it is left.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator
from repro.sim.core import _WHEEL_SHIFT, _WHEEL_SLOTS

SLOT = 1 << _WHEEL_SHIFT
HORIZON = _WHEEL_SLOTS << _WHEEL_SHIFT
#: Times exactly on a slot edge, including both sides of the horizon.
BOUNDARIES = [k << _WHEEL_SHIFT for k in (1, 2, 511, 512, 513)]

delays = st.one_of(
    st.integers(0, SLOT - 1),  # inside the slot being drained
    st.integers(SLOT, 8 * SLOT),  # a few wheel slots: same-slot neighbours
    st.integers(SLOT, HORIZON - 1),  # anywhere on the wheel
    st.integers(HORIZON, 3 * HORIZON),  # the overflow heap
    st.sampled_from(BOUNDARIES),
    st.sampled_from([0, 1, 2]),  # same-instant collisions
)
periods = st.one_of(
    st.integers(1, SLOT),
    st.integers(SLOT, 2 * HORIZON),
    st.sampled_from(BOUNDARIES),
)
#: What a firing callback does: schedule one more entry, or cancel one.
follow_ups = st.one_of(
    st.tuples(st.just("in"), delays),
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
)
operations = st.one_of(
    st.tuples(st.just("in"), delays, st.lists(follow_ups, max_size=3)),
    # call_at on a slot edge (or just past it) a few slots ahead: entries
    # filed at different instants collide on the same time.
    st.tuples(
        st.just("at"), st.integers(0, 3), st.sampled_from([0, 1, SLOT - 1]),
        st.lists(follow_ups, max_size=3),
    ),
    st.tuples(st.just("cancel"), st.integers(0, 1_000)),
    # File n timers at base + i * stride, then cancel every one of them.
    st.tuples(
        st.just("burst"), st.integers(64, 96), delays,
        st.sampled_from([0, 1, 997, SLOT // 3]),
    ),
    # A task that cancels itself after its last tick.
    st.tuples(st.just("periodic"), periods, delays, st.integers(1, 8)),
    st.tuples(st.just("run"), delays),
    st.tuples(st.just("run_until"), delays),
    st.tuples(st.just("step")),
)


class _Oracle:
    """Drives one program and checks every firing against the rules."""

    def __init__(self):
        self.sim = Simulator()
        self.ids = itertools.count()
        self.due: dict[int, int] = {}
        self.seq: dict[int, int] = {}
        self.fired: list[tuple[int, int, int]] = []  # (time, seq, id)
        self.fired_ids: set[int] = set()
        self.cancelled: set[int] = set()
        #: ("timer", id, Timeout) or ("task", record, PeriodicTask).
        self.handles: list[tuple] = []
        self.checked = 0

    def _file(self, due: int, seq=None) -> int:
        """Note an entry's due time and seq (by default, the seq the next
        push takes); return its id."""
        entry = next(self.ids)
        self.due[entry] = due
        self.seq[entry] = self.sim.events if seq is None else seq
        return entry

    def _fire(self, entry: int) -> None:
        assert entry not in self.fired_ids, f"entry {entry} fired twice"
        assert entry not in self.cancelled, f"cancelled entry {entry} fired"
        assert self.sim.now == self.due[entry], (
            f"entry {entry} due at {self.due[entry]} fired at {self.sim.now}"
        )
        self.fired_ids.add(entry)
        self.fired.append((self.sim.now, self.seq[entry], entry))

    def _callback(self, entry: int, follow=()):
        def fn():
            self._fire(entry)
            self.follow(follow)

        return fn

    # -- operations ---------------------------------------------------------

    def call_in(self, delay: int, follow=()) -> None:
        entry = self._file(self.sim.now + delay)
        timer = self.sim.call_in(delay, self._callback(entry, follow))
        self.handles.append(("timer", entry, timer))

    def call_at(self, slots_ahead: int, offset: int, follow=()) -> None:
        sim = self.sim
        when = (((sim.now >> _WHEEL_SHIFT) + slots_ahead) << _WHEEL_SHIFT) + offset
        when = max(when, sim.now)
        entry = self._file(when)
        self.handles.append(("timer", entry, sim.call_at(when, self._callback(entry, follow))))

    def follow(self, follow) -> None:
        for op in follow:
            if op[0] == "in":
                self.call_in(op[1])
            else:
                self.cancel(op[1])

    def cancel(self, index: int) -> None:
        if not self.handles:
            return
        kind, ref, handle = self.handles[index % len(self.handles)]
        if kind == "timer":
            live = handle.cancel()
            assert live == (ref not in self.fired_ids)
            if live:
                self.cancelled.add(ref)
        elif not handle.cancelled:
            handle.cancel()
            self.cancelled.add(ref["pending"])

    def burst(self, count: int, base: int, stride: int) -> None:
        sim = self.sim
        timers = []
        for i in range(count):
            entry = self._file(sim.now + base + i * stride)
            timers.append((entry, sim.call_in(base + i * stride, self._callback(entry))))
        for entry, timer in timers:
            assert timer.cancel()
            self.cancelled.add(entry)

    def periodic(self, period: int, first_delay: int, ticks: int) -> None:
        sim = self.sim
        record = {"pending": self._file(sim.now + first_delay)}

        def fn():
            self._fire(record["pending"])
            # The task re-armed before calling fn: its next tick took the
            # last seq, one period from now.
            record["pending"] = self._file(sim.now + period, seq=sim.events - 1)
            if task.ticks == ticks:
                task.cancel()
                self.cancelled.add(record["pending"])

        task = sim.periodic(period, fn, first_delay=first_delay)
        self.handles.append(("task", record, task))

    def step(self) -> None:
        pending = [
            (self.due[e], self.seq[e]) for e in self.due
            if e not in self.fired_ids and e not in self.cancelled
        ]
        head = min(pending, default=None)
        assert self.sim.peek() == (head[0] if head else None)
        before = len(self.fired)
        self.sim.step()
        if head is None:
            assert len(self.fired) == before
        else:
            assert len(self.fired) == before + 1
            self.check(head)

    def advance(self, until: int, last: int) -> None:
        """Check one ``run``/``run_until`` slice: ``last`` is the latest
        due time it must fire, and the clock parks at ``until``."""
        self.check((last, float("inf")))
        assert self.sim.now == until

    # -- the rules ----------------------------------------------------------

    def check(self, through: tuple) -> None:
        """Check the firings since the last check, which must all be keyed
        at or before ``through``, and that none at or before it is left."""
        new = self.fired[self.checked:]
        previous = self.fired[self.checked - 1:self.checked]
        keys = [(time, seq) for time, seq, _ in previous + new]
        assert all(a < b for a, b in zip(keys, keys[1:])), (
            f"pop order is not strictly increasing in (time, seq): {keys}"
        )
        assert all(key <= through for key in keys[len(previous):])
        self.checked = len(self.fired)
        left = [
            e for e, due in self.due.items()
            if (due, self.seq[e]) <= through
            and e not in self.fired_ids and e not in self.cancelled
        ]
        assert not left, f"live entries {left} due by {through} were left behind"

    def run_program(self, program) -> None:
        sim = self.sim
        for op in program:
            kind = op[0]
            if kind == "in":
                self.call_in(op[1], op[2])
            elif kind == "at":
                self.call_at(op[1], op[2], op[3])
            elif kind == "cancel":
                self.cancel(op[1])
            elif kind == "burst":
                self.burst(op[1], op[2], op[3])
            elif kind == "periodic":
                self.periodic(op[1], op[2], op[3])
            elif kind == "run":
                until = sim.now + op[1]
                sim.run(until=until)
                self.advance(until, until)
            elif kind == "run_until":
                until = sim.now + op[1]
                sim.run_until(until)
                self.advance(until, until - 1)
            else:
                self.step()
        for index, (kind, _ref, _handle) in enumerate(self.handles):
            if kind == "task":
                self.cancel(index)
        sim.run()
        self.check((float("inf"), float("inf")))
        assert sim.peek() is None
        assert sim._cancelled_pending == 0


@settings(max_examples=200, deadline=None)
@given(program=st.lists(operations, min_size=1, max_size=40))
def test_pop_order_is_one_global_heap(program):
    _Oracle().run_program(program)


def test_oracle_covers_compaction_and_every_container():
    """A fixed program that crosses the compaction threshold and files
    entries into the drain buffer, the wheel and the overflow heap."""
    oracle = _Oracle()
    sim = oracle.sim
    oracle.call_in(5, [("in", 0), ("in", SLOT * 3)])
    oracle.call_in(SLOT * 3 + 100)
    oracle.call_in(SLOT * 3 + 50)
    oracle.call_in(HORIZON * 2)
    oracle.periodic(SLOT, 0, 5)
    assert sim._ready and sim._wheel_count and sim._heap
    oracle.burst(80, SLOT, 997)
    assert sim._cancelled_pending < 80  # compaction ran
    oracle.run_program([("run_until", SLOT * 3 + 50), ("step",), ("run", HORIZON)])
    assert len(oracle.fired) == 11
