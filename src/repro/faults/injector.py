"""The fault injector: replays a :class:`FaultPlan` against the platform.

All injection happens at scripted simulation times via ``sim.call_at``;
the injector draws no randomness at fire time, so a plan plus a seed
reproduces the exact same failure sequence.

Mechanics per event kind:

* :class:`ChannelBlackout` — adds the blocked sender name(s) to the raw
  channel's ``blocked_senders`` set for the window (refcounted, so
  overlapping blackouts nest correctly). Blocked sends are dropped
  deterministically — no RNG draw — preserving the channel's in-flight
  accounting invariant.
* :class:`AgentCrash` — ``agent.crash()`` now, ``agent.restart()`` at
  ``start + restart_after`` when set.
* :class:`ManagerStall` — ``agent.stall(duration)``: incoming messages
  defer to a queue that flushes when the stall ends.
* :class:`ActuationFault` — installs a time-window gate on the island's
  :class:`~repro.platform.KnobRegistry`; actuations inside a window are
  audited as failed and counted, never raised.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator, Tracer
from .plan import ActuationFault, AgentCrash, ChannelBlackout, FaultPlan, ManagerStall

#: Trace kinds emitted by the injector (source = ``faults``) and by the
#: layers it perturbs (``msg-blackout`` from the channel,
#: ``actuation-failed`` from the knob registry).
FAULT_TRACE_KINDS = (
    "fault-injected",
    "fault-cleared",
    "msg-blackout",
    "actuation-failed",
)


class FaultInjector:
    """Schedules and applies one :class:`FaultPlan` against a testbed."""

    def __init__(
        self,
        sim: Simulator,
        plan: FaultPlan,
        *,
        channel,
        agents: dict,
        islands: dict,
        tracer: Optional[Tracer] = None,
    ):
        """``channel`` is the raw :class:`CoordinationChannel`; ``agents``
        and ``islands`` map endpoint/island names to their objects."""
        self.sim = sim
        self.plan = plan
        self.channel = channel
        self.agents = agents
        self.islands = islands
        self.tracer = tracer or Tracer(sim, enabled=False)
        #: (time, kind, detail) log of every injection/clear, appended at
        #: fire time — introspectable without tracing.
        self.log: list[tuple[int, str, str]] = []
        #: Refcount per blocked sender, so overlapping blackouts nest.
        self._block_refs: dict[str, int] = {}
        self._armed = False

    # -- arming -------------------------------------------------------------

    def arm(self) -> None:
        """Schedule every event in the plan. Idempotent-hostile by design:
        arming twice would double-inject, so it raises instead."""
        if self._armed:
            raise RuntimeError("fault injector is already armed")
        self._armed = True
        fault_windows: dict[str, list[tuple[int, int, Optional[str]]]] = {}
        for event in self.plan.events:
            if isinstance(event, ChannelBlackout):
                endpoints = (self.channel.a.name, self.channel.b.name)
                if event.direction != "both" and event.direction not in endpoints:
                    raise ValueError(
                        f"blackout direction {event.direction!r} names neither "
                        f"endpoint of the channel {endpoints}"
                    )
                self.sim.call_at(event.start, lambda e=event: self._begin_blackout(e))
                self.sim.call_at(event.end, lambda e=event: self._end_blackout(e))
            elif isinstance(event, AgentCrash):
                self.sim.call_at(event.start, lambda e=event: self._crash(e))
                if event.restart_after is not None:
                    self.sim.call_at(
                        event.start + event.restart_after,
                        lambda e=event: self._restart(e),
                    )
            elif isinstance(event, ManagerStall):
                self.sim.call_at(event.start, lambda e=event: self._stall(e))
            elif isinstance(event, ActuationFault):
                fault_windows.setdefault(event.island, []).append(
                    (event.start, event.end, event.entity)
                )
            else:
                raise TypeError(f"unknown fault event {event!r}")
        for island_name, windows in fault_windows.items():
            self._install_actuation_gate(island_name, windows)

    # -- channel blackouts ----------------------------------------------------

    def _blocked_names(self, event: ChannelBlackout) -> tuple[str, ...]:
        if event.direction == "both":
            return (self.channel.a.name, self.channel.b.name)
        return (event.direction,)

    def _begin_blackout(self, event: ChannelBlackout) -> None:
        for name in self._blocked_names(event):
            refs = self._block_refs.get(name, 0)
            self._block_refs[name] = refs + 1
            if refs == 0:
                self.channel.blocked_senders.add(name)
        self._note("fault-injected", f"blackout:{event.direction}",
                   duration=event.duration)

    def _end_blackout(self, event: ChannelBlackout) -> None:
        for name in self._blocked_names(event):
            refs = self._block_refs.get(name, 0) - 1
            self._block_refs[name] = refs
            if refs <= 0:
                self.channel.blocked_senders.discard(name)
        self._note("fault-cleared", f"blackout:{event.direction}")

    # -- agent crash / stall ---------------------------------------------------

    def _agent(self, name: str):
        try:
            return self.agents[name]
        except KeyError:
            raise KeyError(
                f"fault plan names agent {name!r}; known: {sorted(self.agents)}"
            ) from None

    def _crash(self, event: AgentCrash) -> None:
        self._agent(event.agent).crash()
        self._note("fault-injected", f"crash:{event.agent}")

    def _restart(self, event: AgentCrash) -> None:
        self._agent(event.agent).restart()
        self._note("fault-cleared", f"crash:{event.agent}")

    def _stall(self, event: ManagerStall) -> None:
        self._agent(event.agent).stall(event.duration)
        self._note("fault-injected", f"stall:{event.agent}",
                   duration=event.duration)

    # -- actuation faults ------------------------------------------------------

    def _install_actuation_gate(
        self, island_name: str, windows: list[tuple[int, int, Optional[str]]]
    ) -> None:
        try:
            island = self.islands[island_name]
        except KeyError:
            raise KeyError(
                f"fault plan names island {island_name!r}; known: {sorted(self.islands)}"
            ) from None
        sim = self.sim

        def gate(entity_id, op, _windows=tuple(windows)) -> bool:
            now = sim.now
            for start, end, local in _windows:
                if start <= now < end and (local is None or entity_id.local_name == local):
                    return True
            return False

        island.knobs.fault_gate = gate
        for start, end, local in windows:
            target = local or "*"
            self.sim.call_at(start, lambda t=target: self._note(
                "fault-injected", f"actuation:{island_name}:{t}"))
            self.sim.call_at(end, lambda t=target: self._note(
                "fault-cleared", f"actuation:{island_name}:{t}"))

    # -- bookkeeping -----------------------------------------------------------

    def _note(self, kind: str, detail: str, **payload) -> None:
        self.log.append((self.sim.now, kind, detail))
        if self.tracer.wants(kind):
            self.tracer.emit("faults", kind, fault=detail, **payload)

    def __repr__(self) -> str:
        return f"<FaultInjector events={len(self.plan)} fired={len(self.log)}>"
