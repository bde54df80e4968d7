"""Processes: generator coroutines driven by the event loop.

A process is a Python generator that ``yield``s :class:`~repro.sim.core.Event`
objects. Yielding suspends the process until the event fires; the event's
value is sent back into the generator (or its exception thrown, for failed
events). A :class:`Process` is itself an event that fires when the generator
returns, so processes can ``yield other_process`` to join on it.

A process may also ``yield`` a plain non-negative ``int`` — a pure delay.
Instead of allocating a :class:`~repro.sim.core.Timeout` (and its callback
list) per sleep, the process parks a reusable
:class:`~repro.sim.core._DelayWakeup` token directly on the simulator's
timer wheel and resumes with ``None``, exactly as ``yield sim.timeout(n)``
would. Yielding an already-processed successful event parks the same token
for a zero-delay hop, and a new process starts on it. (For *fixed-period*
loops with no other yields, prefer :class:`~repro.sim.core.PeriodicTask`,
which also skips the generator resume per tick.) ``yield n`` and
``yield sim.timeout(n)`` are observationally identical — same event
ordering, same sequence-number consumption, same interrupt semantics —
which ``tests/sim/test_fastpath.py`` asserts pairwise; the int spelling is
simply allocation-free. Booleans are rejected (``yield True`` is almost
certainly a bug, not a 1 ns delay).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from .core import _PENDING, Event, Simulator, _DelayWakeup
from .errors import Interrupt, SimulationError


class Process(Event):
    """Wraps a generator and steps it each time its awaited event fires."""

    __slots__ = ("_generator", "_target", "_in_fast_delay", "_delay_gen", "_delay_wakeup")

    def __init__(self, sim: Simulator, generator: Generator, name: str = ""):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator; did you forget to call it?")
        super().__init__(sim, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        #: The event this process is currently waiting on (None when ready
        #: to start, sleeping on its delay token, or finished).
        self._target: Optional[Event] = None
        #: True while the process sleeps on a heap-parked delay token.
        self._in_fast_delay = False
        #: Bumped whenever a fast delay is armed or abandoned; a token
        #: whose ``gen`` no longer matches is stale and is ignored.
        self._delay_gen = 0
        #: The process's reusable wakeup token while it is *not* in the
        #: heap (None while parked there, or before first use).
        self._delay_wakeup: Optional[_DelayWakeup] = None

        # Kick the process off with a zero-delay sleep on its own delay
        # token, so that spawning from inside another process does not
        # recursively execute it. The token takes the sequence number a
        # start event would, and later delays reuse it; an interrupt
        # raised in the spawning instant is filed after it, so it still
        # lands at the first yield.
        self._arm_delay(0, None)

    # -- introspection ---------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    # -- control ---------------------------------------------------------

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its current yield.

        The process stops waiting for its current target (the target itself
        is unaffected and may fire later with no one listening) and instead
        receives the exception. Interrupting a finished process is an error;
        interrupting a process that has not started yet is allowed.
        """
        if self.triggered:
            raise SimulationError(f"cannot interrupt finished process {self.name!r}")
        interrupt_event = Event(self.sim)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        self.sim._schedule(interrupt_event, delay=0)
        interrupt_event.callbacks.append(self._resume)

    # -- engine ----------------------------------------------------------

    def _resume(self, event: Event) -> None:
        # Stale wakeup: an interrupt arrived while we waited on a target, or
        # the target fired after an interrupt already moved us on.
        if self._value is not _PENDING:
            return
        if self._in_fast_delay or (self._target is not None and event is not self._target):
            # Only interrupt events may barge in on a waiting process; any
            # other mismatched wakeup is a stale event firing after an
            # interrupt already moved the process on.
            if event._ok or not isinstance(event._value, Interrupt):
                return
            if self._in_fast_delay:
                # Abandon the heap-parked token; it is ignored when it pops.
                self._in_fast_delay = False
                self._delay_gen += 1
        self._target = None

        if event._ok:
            self._step(self._generator.send, event._value)
        else:
            event._defused = True
            self._step(self._generator.throw, event._value)

    def _delay_fired(self, wakeup: _DelayWakeup) -> None:
        """A heap-parked delay token popped (called by ``Simulator.step``)."""
        if not self._in_fast_delay or wakeup.gen != self._delay_gen:
            # Stale: an interrupt moved the process on. Recycle the token
            # unless a fresh one already took the slot.
            if self._delay_wakeup is None:
                self._delay_wakeup = wakeup
            return
        self._in_fast_delay = False
        value = wakeup.value
        if self._delay_wakeup is None:
            wakeup.value = None
            self._delay_wakeup = wakeup
        self._step(self._generator.send, value)

    def _step(self, advance, argument: Any) -> None:
        """Advance the generator one yield and act on what it yields."""
        try:
            next_target = advance(argument)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.fail(exc)
            return

        if type(next_target) is int:
            if next_target < 0:
                self._generator.close()
                self.fail(
                    SimulationError(
                        f"process {self.name!r} yielded negative delay {next_target}"
                    )
                )
                return
            # ``_arm_delay(next_target, None)``, spelled out: this is the
            # hottest yield in the platform.
            wakeup = self._delay_wakeup
            if wakeup is None:
                wakeup = _DelayWakeup(self)
            else:
                self._delay_wakeup = None
            self._delay_gen += 1
            wakeup.gen = self._delay_gen
            wakeup.value = None
            self._in_fast_delay = True
            sim = self.sim
            sim._push(sim._now + next_target, wakeup)
            return

        if not isinstance(next_target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {next_target!r}, which is not an Event"
            )
            self._generator.close()
            self.fail(error)
            return
        if next_target.sim is not self.sim:
            self._generator.close()
            self.fail(SimulationError("yielded an event belonging to a different simulator"))
            return

        if next_target.callbacks is None:
            # Already processed: resume on the next loop iteration.
            if next_target.ok:
                self._arm_delay(0, next_target._value)
                return
            ready = Event(self.sim, name="ready")
            ready._ok = False
            ready._value = next_target._value
            ready._defused = True
            self._target = ready
            self.sim._schedule(ready, delay=0)
            ready.callbacks.append(self._resume)
        else:
            self._target = next_target
            next_target.callbacks.append(self._resume)

    def _arm_delay(self, delay: int, value: Any) -> None:
        """Park the process on the heap for ``delay`` ticks (the start of
        the process, and the zero-delay hop past an already-processed
        target; ``yield <int>`` inlines this in :meth:`_step`)."""
        wakeup = self._delay_wakeup
        if wakeup is None:
            # Our token is still in the heap from an abandoned delay; a
            # fresh one keeps the stale entry unambiguously dead.
            wakeup = _DelayWakeup(self)
        else:
            self._delay_wakeup = None
        self._delay_gen += 1
        wakeup.gen = self._delay_gen
        wakeup.value = value
        self._in_fast_delay = True
        self.sim._push(self.sim._now + delay, wakeup)

    def __repr__(self) -> str:
        status = "finished" if self.triggered else "alive"
        return f"<Process {self.name!r} {status}>"
