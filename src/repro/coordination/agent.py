"""Coordination agents: the receive side of the channel on each island.

An agent binds a channel endpoint to its local island. Incoming Tunes and
Triggers are resolved against the island's entity table and translated via
the island's native knobs (:meth:`Island.apply_tune` /
:meth:`Island.apply_trigger`). On the x86 side the agent runs inside Dom0,
so every handled message costs Dom0 a little system CPU before it takes
effect — coordination is not free, which is exactly the paper's point
about the +3 % minimum-latency overhead.
"""

from __future__ import annotations

from typing import Optional

from ..platform import Island, KnobError
from ..sim import Simulator, Tracer, us
from ..interconnect import ChannelEndpoint
from ..x86.vm import VirtualMachine
from .messages import RegisterMessage, TriggerMessage, TuneMessage

#: Dom0 CPU consumed to receive + decode + dispatch one message.
MESSAGE_HANDLING_COST = us(15)


def tune_coalesce_key(message):
    """Coalesce key for the reliable layer: Tunes merge per target entity;
    everything else (Triggers, Registers, custom messages) never merges."""
    if isinstance(message, TuneMessage):
        return ("tune", message.entity)
    return None


def tune_coalesce_merge(pending: TuneMessage, new: TuneMessage):
    """Merge two pending Tunes for one entity into a single frame.

    Deltas add (they are relative adjustments), the earliest send timestamp
    is kept so apply-latency accounting reflects the oldest queued intent,
    and a zero combined delta cancels the pending frame outright. The new
    message's span survives as the merged frame's identity, absorbing the
    pending span as a merged parent — when the merged frame is applied,
    both originating decisions are attributed. The merged frame carries
    the newest epoch, so a replayed Tune merging with a pre-outage one is
    not discarded as stale at the receiver.
    """
    delta = pending.delta + new.delta
    if delta == 0:
        return None
    if new.span is not None and pending.span is not None:
        span = new.span.absorbing(pending.span)
    else:
        span = new.span if new.span is not None else pending.span
    return TuneMessage(
        entity=pending.entity,
        delta=delta,
        reason=new.reason or pending.reason,
        sent_at=pending.sent_at if pending.sent_at >= 0 else new.sent_at,
        span=span,
        epoch=max(pending.epoch, new.epoch),
    )


class CoordinationAgent:
    """Applies coordination messages arriving at one island."""

    def __init__(
        self,
        sim: Simulator,
        island: Island,
        endpoint: ChannelEndpoint,
        handler_vm: Optional[VirtualMachine] = None,
        handling_cost: int = MESSAGE_HANDLING_COST,
        tracer: Optional[Tracer] = None,
    ):
        """``handler_vm`` is the domain whose CPU pays for message handling
        (Dom0 on the x86 island; None for islands with a free control core
        like the IXP's XScale). ``handling_cost`` is that per-message CPU
        cost — zero models the hardware-assisted signalling of the paper's
        §3.3 hardware discussion."""
        self.sim = sim
        self.island = island
        self.endpoint = endpoint
        self.handler_vm = handler_vm
        self.handling_cost = handling_cost
        self.tracer = tracer or Tracer(sim, enabled=False)
        #: End-to-end latencies (send -> applied) of timestamped messages
        #: that were actually applied — unknown-entity messages are excluded
        #: so this measures successful coordination, not channel traffic.
        self.apply_latencies: list[int] = []
        endpoint.set_receiver(self._on_message)
        # A reliable endpoint accepts coalescing hooks: merge bursty Tunes
        # for one entity into a single pending frame while an ack is due.
        if hasattr(endpoint, "set_coalescer"):
            endpoint.set_coalescer(tune_coalesce_key, tune_coalesce_merge)
        self.tunes_applied = 0
        self.triggers_applied = 0
        self.unknown_entities = 0
        #: Triggers addressed to entities whose knob cannot boost (e.g.
        #: ``disk:<vm>``): counted and traced, never fatal to the run.
        self.unsupported_triggers = 0
        #: Applied messages whose ``sent_at`` was the -1 sentinel (built
        #: outside an agent): skipped from ``apply_latencies``, not lost.
        self.untimestamped_applies = 0
        self._custom_handlers: dict[type, list] = {}
        # -- fabric state (inert until a directory is attached) -----------
        #: The control-plane directory this agent resolves remote entities
        #: through (None = pre-fabric behaviour: unknown entities are
        #: counted and dropped).
        self._directory = None
        #: ``forward(owner_island_name, message) -> bool`` relay hook
        #: installed by the mesh; returns True when the message was routed
        #: one hop toward its owner.
        self._forward = None
        #: Messages relayed toward their owning island instead of dying
        #: as unknown-entity drops.
        self.forwarded_messages = 0
        # -- fault-domain state (inert until a detector is attached) ------
        #: This agent's epoch; stamped onto every outgoing Tune/Trigger.
        #: Bumped by the failure detector on recovery (and on restart
        #: after a crash) so the peer can discard stale in-flight frames.
        self.epoch = 0
        #: True while crash-injected: incoming messages are dropped,
        #: outgoing sends suppressed, heartbeats stop.
        self.crashed = False
        self._stalled_until = -1
        self._stall_queue: list = []
        #: The attached :class:`~repro.faults.FailureDetector`, when the
        #: fault domain is armed; None keeps every fault check a single
        #: attribute test on the hot path.
        self.detector = None
        #: Declared local-baseline knob values (entity -> native value),
        #: reverted to on peer-DOWN and at epoch boundaries.
        self._baselines: dict = {}
        self.stale_epoch_drops = 0
        self.dropped_while_crashed = 0
        self.suppressed_sends = 0

    def register_message_handler(self, message_type: type, handler) -> None:
        """Extend the coordination vocabulary with a custom message type.

        The paper argues for *standard* mechanisms but an extensible
        interface; new island-to-island messages (e.g. power telemetry)
        plug in here without touching Tune/Trigger handling.
        """
        self._custom_handlers.setdefault(message_type, []).append(handler)

    # -- fabric surface -------------------------------------------------------

    def attach_directory(self, directory, forward=None) -> None:
        """Bind this agent to the control-plane directory.

        With a directory attached, a Tune/Trigger for an entity this
        island does not own is *resolved* (``directory.lookup``) instead
        of dropped; when ``forward`` is also given and the entity lives
        elsewhere, the message is relayed one hop toward its owner
        (counted in :attr:`forwarded_messages`, traced as
        ``msg-forwarded``). Without a directory the pre-fabric behaviour
        is untouched: unknown entities count and drop.
        """
        self._directory = directory
        self._forward = forward

    def _resolve_remote(self, message) -> bool:
        """Try to relay a message for a non-local entity toward its owner.

        True when the directory named another island as the owner *and*
        the mesh's forward hook routed the message one hop that way. The
        original ``sent_at`` rides along, so apply-latency accounting
        spans the whole relay path.
        """
        if self._directory is None:
            return False
        owner = self._directory.lookup(message.entity, frm=self.island.name)
        if owner is None or owner == self.island.name or self._forward is None:
            return False
        if not self._forward(owner, message):
            return False
        self.forwarded_messages += 1
        if self.tracer.wants("msg-forwarded"):
            self.tracer.emit(
                "coord", "msg-forwarded", at=self.endpoint.name, to=owner,
                entity=str(message.entity),
            )
        return True

    # -- fault-domain surface -------------------------------------------------

    @property
    def stalled(self) -> bool:
        """True while a :class:`~repro.faults.ManagerStall` is active."""
        return self._stalled_until >= 0

    @property
    def peer_available(self) -> bool:
        """False while this agent is crashed or its failure detector holds
        the peer DOWN — the gate policies consult before emitting remote
        Tunes/Triggers. Always True when the fault domain is unarmed."""
        if self.crashed:
            return False
        detector = self.detector
        return detector is None or not detector.is_down

    def attach_detector(self, detector) -> None:
        """Bind this agent to its failure detector (fault domain armed)."""
        self.detector = detector

    def declare_baseline(self, entity, value: float) -> None:
        """Declare ``entity``'s local-baseline knob value: the degraded
        mode the island falls back to on peer-DOWN and the reference a
        recovering peer's replayed deltas are applied against."""
        self._baselines[entity] = value

    def baselines(self) -> dict:
        """The declared local baselines (entity -> native value)."""
        return dict(self._baselines)

    def revert_to_baselines(self, reason: str) -> None:
        """Restore every declared baseline through the island's audited
        knob registry. Entities with an active boost lease are skipped —
        the lease's TTL expiry restores the true original (the baseline)."""
        knobs = getattr(self.island, "knobs", None)
        if knobs is None:
            return
        for entity, value in self._baselines.items():
            if knobs.has(entity):
                knobs.revert(entity, value, reason=reason)

    def crash(self) -> None:
        """Crash-inject this agent: drop incoming, suppress outgoing."""
        self.crashed = True
        self._stalled_until = -1
        self._stall_queue.clear()
        self.tracer.emit("coord", "agent-crashed", at=self.endpoint.name)

    def restart(self) -> None:
        """Restart after a crash with a bumped epoch, so frames it sent
        before dying are discarded as stale by the peer."""
        if not self.crashed:
            return
        self.crashed = False
        self.epoch += 1
        self.tracer.emit(
            "coord", "agent-restarted", at=self.endpoint.name, epoch=self.epoch
        )

    def stall(self, duration: int) -> None:
        """Stall the manager: defer incoming messages for ``duration`` ns
        (overlapping stalls extend the window), then flush in order."""
        if self.crashed:
            return
        self._stalled_until = self.sim.now + duration
        self.tracer.emit(
            "coord", "agent-stalled", at=self.endpoint.name, until=self._stalled_until
        )
        self.sim.call_at(self._stalled_until, self._end_stall)

    def _end_stall(self) -> None:
        if self.crashed or self._stalled_until < 0 or self.sim.now < self._stalled_until:
            return  # crashed meanwhile, already flushed, or extended
        self._stalled_until = -1
        queued, self._stall_queue = self._stall_queue, []
        self.tracer.emit(
            "coord", "agent-resumed", at=self.endpoint.name, queued=len(queued)
        )
        for message in queued:
            self._on_message(message)

    # -- send helpers ---------------------------------------------------------

    def send_tune(self, entity, delta: int, reason: str = "", span=None) -> None:
        """Request a resource adjustment on the remote island.

        ``span`` is the minting policy's causal span (None when tracing is
        off); it rides inside the message to the remote knob registry.
        """
        if self.crashed:
            self.suppressed_sends += 1
            return
        if span is not None and self.tracer.wants("span-sent"):
            self.tracer.emit(
                "coord", "span-sent", trace=span.trace_id, span=span.span_id,
                frm=self.endpoint.name,
            )
        self.endpoint.send(
            TuneMessage(
                entity=entity, delta=delta, reason=reason, sent_at=self.sim.now,
                span=span, epoch=self.epoch,
            )
        )

    def send_trigger(self, entity, reason: str = "", span=None) -> None:
        """Request immediate resource allocation on the remote island."""
        if self.crashed:
            self.suppressed_sends += 1
            return
        if span is not None and self.tracer.wants("span-sent"):
            self.tracer.emit(
                "coord", "span-sent", trace=span.trace_id, span=span.span_id,
                frm=self.endpoint.name,
            )
        self.endpoint.send(
            TriggerMessage(
                entity=entity, reason=reason, sent_at=self.sim.now, span=span,
                epoch=self.epoch,
            )
        )

    # -- receive path ------------------------------------------------------------

    def _on_message(self, message) -> None:
        if self.crashed:
            self.dropped_while_crashed += 1
            self.tracer.emit(
                "coord", "msg-dropped-crashed", at=self.endpoint.name,
                message=repr(message),
            )
            return
        if self._stalled_until >= 0:
            self._stall_queue.append(message)
            return
        detector = self.detector
        if detector is not None:
            epoch = getattr(message, "epoch", None)
            if epoch is not None:
                if epoch < detector.peer_epoch:
                    # A stale in-flight/retransmitted frame from before the
                    # peer's recovery: applying it would undo the replayed
                    # snapshot. Discard (the reliable layer still acks the
                    # carrying frame, so retransmission churn stops).
                    self.stale_epoch_drops += 1
                    if self.tracer.wants("stale-epoch-dropped"):
                        self.tracer.emit(
                            "coord", "stale-epoch-dropped", at=self.endpoint.name,
                            epoch=epoch, current=detector.peer_epoch,
                            message=repr(message),
                        )
                    return
                if epoch > detector.peer_epoch:
                    detector.note_peer_epoch(epoch)
        span = getattr(message, "span", None)
        if span is not None and self.tracer.wants("span-recv"):
            self.tracer.emit(
                "coord", "span-recv", trace=span.trace_id, span=span.span_id,
                at=self.endpoint.name,
            )
        if self.handler_vm is not None and self.handling_cost > 0:
            # Pay the handling cost first, then apply: spawn a tiny process.
            self.sim.spawn(self._handle_with_cost(message), name="coord-agent-handle")
        else:
            self._apply(message)

    def _handle_with_cost(self, message):
        yield self.handler_vm.execute(self.handling_cost, kind="sys")
        self._apply(message)

    def _apply(self, message) -> None:
        span = getattr(message, "span", None)
        if span is not None and self.tracer.wants("span-handle"):
            self.tracer.emit(
                "coord", "span-handle", trace=span.trace_id, span=span.span_id,
                at=self.endpoint.name,
            )
        if isinstance(message, TuneMessage):
            if not self.island.has_entity(message.entity):
                if self._resolve_remote(message):
                    return
                self.unknown_entities += 1
                self.tracer.emit("coord", "unknown-entity", entity=str(message.entity))
                return
            self.island.apply_tune(message.entity, message.delta, span=span)
            self.tunes_applied += 1
            self._record_apply_latency(message)
        elif isinstance(message, TriggerMessage):
            if not self.island.has_entity(message.entity):
                if self._resolve_remote(message):
                    return
                self.unknown_entities += 1
                self.tracer.emit("coord", "unknown-entity", entity=str(message.entity))
                return
            try:
                self.island.apply_trigger(message.entity, span=span)
            except KnobError:
                # A Trigger addressed to a non-boostable entity (an I/O
                # queue weight, an LLC partition, ...) is a policy mistake, not a
                # platform fault: account it and keep the simulation alive.
                # The knob registry already emitted the unsupported-trigger
                # trace record and audited the rejection.
                self.unsupported_triggers += 1
                return
            self.triggers_applied += 1
            self._record_apply_latency(message)
        elif isinstance(message, RegisterMessage):
            # Registration bookkeeping is handled by the global controller;
            # islands just learn that the entity exists remotely.
            self.tracer.emit("coord", "register-seen", entity=str(message.entity))
        else:
            handlers = self._custom_handlers.get(type(message))
            if not handlers:
                raise TypeError(f"unknown coordination message {message!r}")
            for handler in handlers:
                handler(message)
            self._record_apply_latency(message)

    def _record_apply_latency(self, message) -> None:
        """Account end-to-end latency for a message that took effect.

        Messages constructed outside an agent carry the ``sent_at = -1``
        sentinel (as do custom message types without the field); recording
        ``now - (-1)`` would poison the latency distribution with bogus
        near-``now`` values, so they are skipped and counted instead.
        """
        sent_at = getattr(message, "sent_at", -1)
        if sent_at < 0:
            self.untimestamped_applies += 1
            self.tracer.emit("coord", "untimestamped-apply", message=repr(message))
            return
        self.apply_latencies.append(self.sim.now - sent_at)

    def channel_stats(self) -> dict[str, int]:
        """Reliability counters of this agent's endpoint (empty when the
        agent rides the raw, unacknowledged mailbox)."""
        stats = getattr(self.endpoint, "stats", None)
        return stats() if callable(stats) else {}
