"""Discrete-event simulation core: events and the simulator loop.

The design follows the classic event-graph formulation. An :class:`Event` is
a one-shot occurrence that processes (see :mod:`repro.sim.process`) can wait
on by ``yield``-ing it. The :class:`Simulator` owns the virtual clock and
runs pending entries in ``(time, sequence)`` order so simultaneous events
fire in the order they were scheduled — which, combined with integer time
and seeded RNG streams, makes every run bit-reproducible.

Internally the schedule is a hashed timer wheel (Varghese & Lauck) backed
by a binary heap. Near-future entries land in fixed-width wheel slots with
an O(1) append; far-future entries overflow to the heap and cascade into
the drain buffer as the wheel's cursor reaches their slot. Because every
entry carries its exact ``(time, seq)`` key and a whole slot is heapified
before anything in it fires, the pop order is *identical* to a single
global heap: strictly increasing ``(time, seq)``, each entry at its due
time, none twice. ``tests/sim/test_order_oracle.py`` checks exactly that
on random schedule/cancel/run mixes, and ``GOLDEN.txt`` pins what the
experiments built on this kernel compute.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from .errors import (
    EventAlreadyTriggeredError,
    SchedulingInPastError,
    StopSimulation,
)

#: Sentinel stored in ``Event._value`` before the event has a value.
_PENDING = object()

#: Timer-wheel geometry: each slot spans ``2**_WHEEL_SHIFT`` ns (~65.5 µs);
#: ``_WHEEL_SLOTS`` slots give a ~33.6 ms horizon — wide enough that every
#: hot fixed-period event in the platform (10 ms scheduler ticks, 30 ms
#: accounting, µs-scale polls, ms-scale heartbeats) schedules with one
#: list append. Entries beyond the horizon overflow to the heap and
#: cascade in as the cursor advances.
_WHEEL_SHIFT = 16
_WHEEL_SLOTS = 512
_WHEEL_MASK = _WHEEL_SLOTS - 1

#: The drain limit of :meth:`Simulator.run` without ``until``: every entry
#: is due before it.
_FOREVER = float("inf")


class _DelayWakeup:
    """Heap token for the integer-delay fast path (``yield <int>``).

    When a process yields a plain ``int`` it sleeps directly on the
    simulator heap: no :class:`Timeout`, no :class:`Event`, just this token.
    Each process owns one token and reuses it for consecutive delays, so a
    steady-state delay loop allocates nothing per sleep. ``gen`` guards
    against stale firings: an interrupt that moves the process on bumps the
    process's generation counter, and the abandoned in-heap token is
    ignored (and recycled) when it finally pops.
    """

    __slots__ = ("process", "gen", "value")

    #: Read by the kernel's cancelled-entry skip; wakeup tokens
    #: are never cancelled (abandonment is handled via ``gen``).
    _cancelled = False

    def __init__(self, process):
        self.process = process
        self.gen = -1
        #: Value sent into the generator on wakeup (non-None only when the
        #: token stands in for an already-processed target's zero-delay
        #: resume).
        self.value = None


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    Life cycle: *pending* -> *triggered* (scheduled to fire) -> *processed*
    (callbacks ran). ``succeed``/``fail`` trigger the event immediately
    (zero-delay, but still through the queue so ordering stays consistent).
    """

    __slots__ = (
        "sim",
        "name",
        "callbacks",
        "_value",
        "_ok",
        "_scheduled",
        "_defused",
        "_cancelled",
    )

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: Callables invoked with this event when it fires. ``None`` after
        #: the event has been processed.
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False
        self._defused = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not have fired yet)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's payload (or the exception, for failed events)."""
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value`` as its payload."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggeredError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if not self._scheduled:
            # ``_schedule(self, 0)`` without its keyword call and its
            # negative-delay check, which cannot fire at delay 0.
            self._scheduled = True
            sim = self.sim
            sim._push(sim._now, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiters have ``exception`` raised."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventAlreadyTriggeredError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self.sim._schedule(self, delay=0)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` ticks after it is created."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: int, value: Any = None, name: str = ""):
        if delay < 0:
            raise SchedulingInPastError(f"negative timeout delay {delay}")
        super().__init__(sim, name=name)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay=delay)

    def cancel(self) -> bool:
        """Cancel the timer so its callbacks never run.

        Returns False (and is a no-op) if the timer already fired. The heap
        entry is deleted lazily: it stays queued until its time arrives and
        is then skipped, and the simulator compacts the heap when cancelled
        entries pile up. Cancel only timers you own exclusively — a process
        ``yield``-ing a cancelled timeout would sleep forever.
        """
        if self.callbacks is None:
            return False
        if not self._cancelled:
            self._cancelled = True
            self.sim._note_cancelled()
        return True


class Simulator:
    """The event loop: virtual clock plus a time-ordered event heap.

    Typical use::

        sim = Simulator()
        sim.spawn(my_process(sim))
        sim.run(until=seconds(10))
    """

    def __init__(self, start_time: int = 0):
        self._now: int = start_time
        #: Schedule entries are ``(time, seq, Event | _DelayWakeup |
        #: PeriodicTask)``; the seq tie-breaker is unique, so the payload
        #: is never compared. They live in one of three containers:
        #: ``_ready`` (a heap of entries due in the slot the wheel cursor
        #: is draining), the wheel ``_slots`` (plain lists, one per slot,
        #: for entries within the horizon), and ``_heap`` (far-future
        #: overflow, cascaded into ``_ready`` as the cursor advances).
        self._ready: list[tuple[int, int, Any]] = []
        self._slots: list[list[tuple[int, int, Any]]] = [[] for _ in range(_WHEEL_SLOTS)]
        self._wheel_count = 0  # live entries currently parked in wheel slots
        #: Absolute slot index the wheel has drained up to: entries for
        #: slots <= cursor go straight to ``_ready``.
        self._cursor = start_time >> _WHEEL_SHIFT
        self._heap: list[tuple[int, int, Any]] = []
        self._seq = 0  # tie-breaker giving FIFO order to simultaneous events
        self._cancelled_pending = 0  # cancelled entries still queued somewhere

    # -- clock -----------------------------------------------------------

    @property
    def now(self) -> int:
        """Current virtual time in clock ticks (nanoseconds)."""
        return self._now

    @property
    def events(self) -> int:
        """Total schedule entries filed so far — the monotone kernel
        event counter (and the throughput numerator of every events/sec
        figure). Public so harness code never reads ``_seq`` directly;
        deterministic for a given scenario, because every push consumes
        exactly one sequence number."""
        return self._seq

    # -- event constructors ----------------------------------------------

    def event(self, name: str = "") -> Event:
        """A fresh, untriggered event (a 'promise')."""
        return Event(self, name=name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event that fires ``delay`` ticks from now."""
        return Timeout(self, delay, value=value)

    def spawn(self, generator, name: str = "") -> "Process":
        """Start a new process from a generator; see :class:`Process`."""
        from .process import Process  # noqa: PLC0415 — local import to avoid a cycle

        return Process(self, generator, name=name)

    # -- scheduling ------------------------------------------------------

    def _push(self, time: int, obj: Any) -> None:
        """File one schedule entry into the wheel, drain buffer, or heap.

        Every push consumes one sequence number regardless of which
        container the entry lands in, so the seq alone fixes the order of
        simultaneous entries.
        """
        entry = (time, self._seq, obj)
        self._seq += 1
        slot = time >> _WHEEL_SHIFT
        offset = slot - self._cursor
        if offset <= 0:
            # Due within the slot currently being drained (or the past,
            # after a run(until=...) clock jump): must interleave with the
            # drain buffer, whose span the cursor already covers.
            heapq.heappush(self._ready, entry)
        elif offset < _WHEEL_SLOTS:
            self._slots[slot & _WHEEL_MASK].append(entry)
            self._wheel_count += 1
        else:
            heapq.heappush(self._heap, entry)

    def _schedule(self, event: Event, delay: int) -> None:
        if delay < 0:
            raise SchedulingInPastError(f"cannot schedule {event!r} {-delay} ticks in the past")
        if event._scheduled:
            return
        event._scheduled = True
        self._push(self._now + delay, event)

    def _refill(self) -> None:
        """Advance the wheel cursor to the next occupied slot and move that
        slot's entries (wheel bucket plus any overflow entries due within
        it) into the empty drain buffer.

        Only called when ``_ready`` is empty and something is pending. The
        resulting buffer holds *every* pending entry with time below the
        new slot boundary, so popping its minimum is the global minimum —
        ordering is exactly what one big heap would produce.
        """
        heap = self._heap
        ready = self._ready
        cursor = self._cursor
        if self._wheel_count:
            slots = self._slots
            s = cursor + 1
            while not slots[s & _WHEEL_MASK]:
                s += 1
            if heap and (heap[0][0] >> _WHEEL_SHIFT) < s:
                # The overflow heap owns an earlier slot; drain that span
                # first (the wheel bucket stays parked for a later pass).
                s = heap[0][0] >> _WHEEL_SHIFT
                if s < cursor:
                    s = cursor
            else:
                bucket = slots[s & _WHEEL_MASK]
                ready.extend(bucket)
                self._wheel_count -= len(bucket)
                bucket.clear()
        else:
            s = heap[0][0] >> _WHEEL_SHIFT
            if s < cursor:
                s = cursor
        boundary = (s + 1) << _WHEEL_SHIFT
        while heap and heap[0][0] < boundary:
            ready.append(heapq.heappop(heap))
        self._cursor = s
        heapq.heapify(ready)

    def _process(self, when: int, event: Any) -> None:
        """Advance the clock to one live entry and fire it."""
        self._now = when
        cls = event.__class__
        if cls is _DelayWakeup:
            event.process._delay_fired(event)
            return
        if cls is PeriodicTask:
            event._fired()
            return
        callbacks = event.callbacks
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            # A failed event nobody handled: surface the error loudly.
            raise event._value

    def _note_cancelled(self) -> None:
        """Track a lazily-deleted entry; compact when the debt piles up.

        Compaction filters every container (drain buffer, wheel slots,
        overflow heap) in one pass; ``heapify`` on the surviving
        ``(time, seq)``-keyed tuples is deterministic because pops always
        come out in ascending key order regardless of the heap's internal
        layout. The debt counter is decremented by exactly the number of
        entries dropped — not reset to zero — so it stays consistent with
        the skip-pop decrements in :meth:`peek`/:meth:`_drain` no matter how
        the two interleave.
        """
        self._cancelled_pending += 1
        if self._cancelled_pending < 64:
            return
        queued = len(self._ready) + self._wheel_count + len(self._heap)
        if self._cancelled_pending * 2 <= queued:
            return
        dropped = 0
        for heap in (self._ready, self._heap):
            live = [entry for entry in heap if not entry[2]._cancelled]
            if len(live) != len(heap):
                dropped += len(heap) - len(live)
                heap[:] = live
                heapq.heapify(heap)
        if self._wheel_count:
            for bucket in self._slots:
                if bucket:
                    live = [entry for entry in bucket if not entry[2]._cancelled]
                    if len(live) != len(bucket):
                        dropped += len(bucket) - len(live)
                        self._wheel_count -= len(bucket) - len(live)
                        bucket[:] = live
        self._cancelled_pending -= dropped

    def call_at(self, when: int, fn: Callable[[], None]) -> Timeout:
        """Run ``fn()`` at absolute time ``when``.

        Returns the underlying :class:`Timeout`, a cancellable handle:
        ``handle.cancel()`` guarantees ``fn`` never runs.
        """
        if when < self._now:
            raise SchedulingInPastError(f"call_at({when}) but now={self._now}")
        timer = self.timeout(when - self._now)
        timer.callbacks.append(lambda _ev: fn())
        return timer

    def call_in(self, delay: int, fn: Callable[[], None]) -> Timeout:
        """Run ``fn()`` after ``delay`` ticks.

        Returns the underlying :class:`Timeout`, a cancellable handle:
        ``handle.cancel()`` guarantees ``fn`` never runs.
        """
        timer = self.timeout(delay)
        timer.callbacks.append(lambda _ev: fn())
        return timer

    def periodic(self, period: int, fn: Callable[[], None], name: str = "",
                 first_delay: Optional[int] = None) -> "PeriodicTask":
        """A :class:`PeriodicTask` running ``fn()`` every ``period`` ticks."""
        return PeriodicTask(self, period, fn, name=name, first_delay=first_delay)

    # -- running ---------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next *live* pending entry, or None if nothing is
        queued.

        Lazily-cancelled timers at the head of the schedule are skip-popped
        (they no longer mask the real next event, and ``run(until=...)``
        does not burn steps on them).
        """
        while True:
            ready = self._ready
            if ready:
                entry = ready[0]
                if entry[2]._cancelled:
                    heapq.heappop(ready)
                    self._cancelled_pending -= 1
                    continue
                return entry[0]
            if self._wheel_count or self._heap:
                self._refill()
                continue
            return None

    def step(self) -> None:
        """Process exactly one live entry (advance the clock to it).

        Lazily-cancelled entries surfacing at the head are discarded
        without running callbacks or advancing the clock; with nothing
        live left, ``step`` is a no-op.
        """
        if self.peek() is not None:
            entry = heapq.heappop(self._ready)
            self._process(entry[0], entry[2])

    def _drain(self, last: float, park: Optional[int]) -> None:
        """The event loop: fire every live entry due at or before ``last``
        in ``(time, seq)`` order, then leave the clock at ``park`` (where
        the last entry left it when ``park`` is None). :meth:`stop` ends
        the loop at once, with the clock at the stopping entry."""
        ready = self._ready
        pop = heapq.heappop
        try:
            while True:
                if not ready:
                    if not (self._wheel_count or self._heap):
                        break
                    self._refill()
                    continue
                head = ready[0]
                if head[2]._cancelled:
                    pop(ready)
                    self._cancelled_pending -= 1
                    continue
                if head[0] > last:
                    break
                pop(ready)
                self._process(head[0], head[2])
        except StopSimulation:
            return
        if park is not None:
            self._now = park

    def run(self, until: Optional[int] = None) -> None:
        """Run until the schedule drains or the clock would pass ``until``.

        When ``until`` is given the clock is left at exactly ``until`` even
        if no event falls on that instant, so back-to-back ``run`` calls
        compose predictably.
        """
        if until is None:
            self._drain(_FOREVER, None)
            return
        if until < self._now:
            raise SchedulingInPastError(f"run(until={until}) but now={self._now}")
        self._drain(until, until)

    def run_until(self, until: int) -> None:
        """Advance to ``until`` processing only events *strictly before* it.

        The conservative-window primitive of the sharded execution mode
        (:mod:`repro.shard`): a shard granted the window ``[now, until)``
        runs every local event below the window edge, leaves the clock
        parked exactly at ``until``, and hands control back so boundary
        messages due *at* ``until`` can be applied before any local event
        scheduled for that same instant fires. Contrast :meth:`run`, whose
        ``until`` is inclusive. Events at exactly ``until`` stay queued
        and fire on the next ``run``/``run_until``/``step`` call — with
        the clock already at ``until``, anything applied in between
        (message deliveries, drains) is ordered *before* them.
        """
        if until < self._now:
            raise SchedulingInPastError(f"run_until({until}) but now={self._now}")
        # Integer time: strictly before ``until`` is at or before until - 1.
        self._drain(until - 1, until)

    def stop(self) -> None:
        """Abort :meth:`run` from inside a callback or process."""
        raise StopSimulation()


class PeriodicTask:
    """A fixed-period callback tick with zero per-tick allocation.

    The periodic idiom ``while True: yield period; do_work()`` pays, per
    tick, for a generator resume, a yield-type dispatch, and delay-token
    bookkeeping. A ``PeriodicTask`` is the same tick as a bare schedule
    entry: the task object *is* its own wheel token, the kernel calls
    ``fn()`` directly when it pops, and re-arming is one O(1) wheel append
    (no ``Event``, no ``Timeout``, no callback list, no generator frame —
    the only per-tick allocation is the small ``(time, seq, task)`` entry
    tuple, which CPython serves from its freelist).

    Semantics match the generator spelling exactly: the first tick fires
    ``period`` ticks after construction (or ``first_delay``, when given),
    ticks interleave with simultaneous events in ``(time, seq)`` FIFO
    order, and exactly one sequence number is consumed per tick — so a
    chain that creates its next ``sim.timeout(period)`` before calling
    ``fn`` runs bit-identically.

    ``cancel()`` stops the task permanently; the in-flight entry is
    lazily discarded like a cancelled timer. Exceptions raised by ``fn``
    propagate out of :meth:`Simulator.run` (the task stays armed, exactly
    as a crashing callback would leave its follow-up timer armed).

    Do not subclass: the kernel dispatches on the exact class.
    """

    __slots__ = ("sim", "period", "fn", "name", "ticks", "_cancelled")

    def __init__(
        self,
        sim: Simulator,
        period: int,
        fn: Callable[[], None],
        name: str = "",
        first_delay: Optional[int] = None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        delay = period if first_delay is None else first_delay
        if delay < 0:
            raise SchedulingInPastError(f"negative first_delay {delay}")
        self.sim = sim
        self.period = period
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "periodic")
        #: Number of times ``fn`` has been invoked.
        self.ticks = 0
        self._cancelled = False
        sim._push(sim._now + delay, self)

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    def _fired(self) -> None:
        """One tick (called by the kernel when the token pops).

        Re-arms *before* running ``fn`` so the sequence numbers any work
        inside ``fn`` consumes come after the next tick's, as in a chain
        that creates its next Timeout first. The re-arm is
        ``Simulator._push`` inlined: this is the hottest call site in
        periodic-dominated runs, and the extra frame shows up at fleet
        scale.
        """
        self.ticks += 1
        sim = self.sim
        time = sim._now + self.period
        entry = (time, sim._seq, self)
        sim._seq += 1
        slot = time >> _WHEEL_SHIFT
        offset = slot - sim._cursor
        if offset <= 0:
            heapq.heappush(sim._ready, entry)
        elif offset < _WHEEL_SLOTS:
            sim._slots[slot & _WHEEL_MASK].append(entry)
            sim._wheel_count += 1
        else:
            heapq.heappush(sim._heap, entry)
        self.fn()

    def cancel(self) -> bool:
        """Stop the task; ``fn`` never runs again. Idempotent."""
        if not self._cancelled:
            self._cancelled = True
            # The in-flight token entry is discarded lazily when it pops.
            self.sim._note_cancelled()
        return True

    def __repr__(self) -> str:
        state = "cancelled" if self._cancelled else "armed"
        return f"<PeriodicTask {self.name!r} period={self.period} {state} ticks={self.ticks}>"
