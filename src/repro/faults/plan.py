"""Scripted fault plans: deterministic, sim-time fault schedules.

The platform's robustness story needs faults that are *reproducible*: the
same seed and plan must produce the same blackout, the same detection
timeline, and the same recovery — across runs and across simulator fast
path modes. A :class:`FaultPlan` is therefore a frozen tuple of scripted
events with absolute simulation-time stamps; nothing fires from wall
clock or ambient randomness.

Event vocabulary (mirrors the failure modes of the prototype):

* :class:`ChannelBlackout` — the PCI-config-space mailbox drops every
  message from the blocked side(s) for an interval (cable pull / bus
  reset). ``direction`` partitions one way or both.
* :class:`AgentCrash` — a :class:`~repro.coordination.CoordinationAgent`
  dies (messages dropped, sends suppressed, heartbeats stop) and
  optionally restarts later with a bumped epoch.
* :class:`ManagerStall` — an island's coordination manager stops
  handling messages for an interval (Dom0 scheduling stall, XScale
  overload); deferred messages flush when the stall ends.
* :class:`ActuationFault` — knob actuations on one island fail for an
  interval (hypercall errors, dead microengine): audited and counted,
  never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from ..sim import ms

#: The classic ``direction`` values of a :class:`ChannelBlackout` on the
#: two-island prototype: block both senders, or just one (a one-way
#: partition, named after the *blocked sender*). Mesh fabrics use island
#: names as directions; the :class:`~repro.faults.FaultInjector` validates
#: the name against the actual channel endpoints at arm time.
BLACKOUT_DIRECTIONS = ("both", "ixp", "x86")


@dataclass(frozen=True, slots=True)
class ChannelBlackout:
    """Black out the coordination channel for ``duration`` ns.

    ``direction`` is ``"both"`` (full blackout) or the name of the one
    endpoint whose sends are dropped (an asymmetric partition) — ``"ixp"``
    or ``"x86"`` on the prototype pair, any island name on a mesh link.
    Whether the name actually matches an endpoint of the target channel is
    only knowable once the plan meets a channel, so the injector validates
    it at arm time. Note that a one-way partition over the *raw* mailbox
    is undetectable by the healthy-looking side; the reliable layer's
    dead-letter feed is what surfaces it (see :mod:`repro.faults.health`).
    """

    start: int
    duration: int
    direction: str = "both"

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("blackout start must be non-negative")
        if self.duration <= 0:
            raise ValueError("blackout duration must be positive")
        if not self.direction or not isinstance(self.direction, str):
            raise ValueError(
                f"direction must be 'both' or an endpoint name, got {self.direction!r}"
            )

    @property
    def end(self) -> int:
        return self.start + self.duration


@dataclass(frozen=True, slots=True)
class AgentCrash:
    """Crash one island's coordination agent at ``start``.

    ``restart_after`` (ns after the crash) brings it back with a bumped
    epoch; ``None`` leaves it dead for the rest of the run.
    """

    agent: str
    start: int
    restart_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("crash start must be non-negative")
        if self.restart_after is not None and self.restart_after <= 0:
            raise ValueError("restart_after must be positive when set")


@dataclass(frozen=True, slots=True)
class ManagerStall:
    """Stall one island's coordination manager for ``duration`` ns."""

    agent: str
    start: int
    duration: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("stall start must be non-negative")
        if self.duration <= 0:
            raise ValueError("stall duration must be positive")


@dataclass(frozen=True, slots=True)
class ActuationFault:
    """Fail knob actuations on ``island`` for ``duration`` ns.

    ``entity`` narrows the fault to one entity's local name (e.g. a VM
    name); ``None`` fails every actuation on the island for the window.
    """

    island: str
    start: int
    duration: int
    entity: Optional[str] = None

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError("fault start must be non-negative")
        if self.duration <= 0:
            raise ValueError("fault duration must be positive")

    @property
    def end(self) -> int:
        return self.start + self.duration


FaultEvent = Union[ChannelBlackout, AgentCrash, ManagerStall, ActuationFault]


@dataclass(frozen=True)
class FaultPlan:
    """An immutable schedule of fault events for one run."""

    events: tuple = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class FaultConfig:
    """The fault domain's shape: what to inject, how to detect.

    Passing this as ``TestbedConfig(faults=...)`` arms the whole fault
    domain — heartbeats, failure detectors, injector, baselines. With the
    default ``faults=None`` nothing is constructed and the platform is
    bit-identical to a build without the fault layer.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    #: Heartbeat send (and detector check) period.
    heartbeat_period: int = ms(50)
    #: Consecutive missed heartbeats before the peer turns SUSPECT.
    suspect_misses: int = 2
    #: Consecutive missed heartbeats before the peer turns DOWN.
    down_misses: int = 4
    #: Consecutive dead-lettered frames before the peer turns DOWN even
    #: while its heartbeats still arrive (one-way partition detection;
    #: only reachable when the reliable layer is armed).
    dead_letter_down: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_period <= 0:
            raise ValueError("heartbeat_period must be positive")
        if self.suspect_misses <= 0:
            raise ValueError("suspect_misses must be positive")
        if self.down_misses < self.suspect_misses:
            raise ValueError("down_misses must be >= suspect_misses")
        if self.dead_letter_down <= 0:
            raise ValueError("dead_letter_down must be positive")
