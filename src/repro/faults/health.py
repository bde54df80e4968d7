"""Peer health: heartbeats, miss-threshold failure detection, epochs.

Each armed :class:`~repro.coordination.CoordinationAgent` gets a
:class:`FailureDetector` watching its *peer* through two independent
signals:

* **Heartbeats** — periodic :class:`HeartbeatMessage` datagrams over the
  raw mailbox (never the reliable wrapper: a retransmitted stale
  heartbeat carries no information). Consecutive misses walk the peer
  UP -> SUSPECT -> DOWN.
* **Dead letters** — frames the local reliable endpoint gave up on,
  surfaced through ``on_dead_letter``. These catch the one-way partition
  a heartbeat receiver cannot see: our sends die while the peer's
  heartbeats keep arriving. ``dead_letter_down`` consecutive dead
  letters force DOWN even with fresh heartbeats.

State machine (the platform's ``PeerHealth``):

* ``UP -> SUSPECT`` on ``suspect_misses`` missed heartbeats or a single
  dead letter; SUSPECT changes nothing (policies keep sending) — it is
  the observable early warning.
* ``* -> DOWN`` on ``down_misses`` missed heartbeats or
  ``dead_letter_down`` consecutive dead letters. DOWN triggers
  degradation: the agent reverts its declared baselines and
  ``peer_available`` turns False, so policies stop emitting remote
  Tunes/Triggers.
* ``DOWN -> UP`` needs evidence the channel works again: a heartbeat
  (when dead-letter pressure is clear, or after a sustained resumed
  streak), or ack progress on the reliable endpoint. Recovery bumps the
  local agent's **epoch**; the first message carrying the new epoch makes
  the receiver discard stale older-epoch frames and revert to baselines
  before the sender replays its desired snapshot on top.

Everything is driven by simulation-time periodic tasks — deterministic
for a given seed and plan, and identical across simulator fast path
modes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..sim import PeriodicTask, Simulator, Tracer

#: PeerHealth states.
PEER_UP = "up"
PEER_SUSPECT = "suspect"
PEER_DOWN = "down"

#: Trace kinds emitted by the health layer (source = ``health``) and the
#: fault-armed agent (source = ``coord``). The detector keeps its own
#: counts and timeline (:meth:`FailureDetector.health`); the trace carries
#: the same transitions for interactive runs and trace tooling.
HEALTH_TRACE_KINDS = (
    "heartbeat-sent",
    "heartbeat-received",
    "peer-suspect",
    "peer-down",
    "peer-up",
    "epoch-bump",
    "dead-letter-signal",
    "stale-epoch-dropped",
    "degraded-suppressed",
    "agent-crashed",
    "agent-restarted",
    "agent-stalled",
    "agent-resumed",
)

_STATE_KIND = {PEER_UP: "peer-up", PEER_SUSPECT: "peer-suspect", PEER_DOWN: "peer-down"}


@dataclass(frozen=True, slots=True)
class HeartbeatMessage:
    """Periodic liveness datagram between the two agents.

    Rides the *raw* mailbox (lossy, unacknowledged) even when the data
    path is reliable. ``epoch`` is the sender's current epoch, so a
    recovering peer's bump propagates with its first heartbeat.
    """

    sender: str
    epoch: int = 0
    seq: int = 0
    sent_at: int = -1

    def __repr__(self) -> str:
        return f"Heartbeat({self.sender}, epoch={self.epoch}, #{self.seq})"


class FailureDetector:
    """Miss-threshold failure detector for one agent's peer."""

    def __init__(
        self,
        sim: Simulator,
        agent,
        config,
        tracer: Optional[Tracer] = None,
    ):
        """``agent`` is the local :class:`CoordinationAgent` whose peer is
        watched; ``config`` is a :class:`~repro.faults.FaultConfig`."""
        self.sim = sim
        self.agent = agent
        self.config = config
        self.tracer = tracer or Tracer(sim, enabled=False)
        #: The local island/endpoint name (this detector's identity).
        self.name = agent.endpoint.name
        self.state = PEER_UP
        #: Highest epoch observed from the peer (heartbeats and data).
        self.peer_epoch = 0
        #: (time, state, reason) history — the deterministic health
        #: timeline the chaos experiment asserts on.
        self.transitions: list[tuple[int, str, str]] = [(sim.now, PEER_UP, "init")]
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self.dead_letters_seen = 0
        self._consecutive_dead_letters = 0
        self._resume_streak = 0
        self._last_heartbeat_at = sim.now
        self._last_frames_acked = 0
        self._seq = 0
        self._on_up: list = []
        # Heartbeats always ride the raw mailbox (datagram semantics).
        self._wire = getattr(agent.endpoint, "raw", agent.endpoint)
        agent.attach_detector(self)
        agent.register_message_handler(HeartbeatMessage, self._on_heartbeat)
        endpoint = agent.endpoint
        if hasattr(endpoint, "on_dead_letter"):
            previous = endpoint.on_dead_letter

            def chained(message, _previous=previous):
                if _previous is not None:
                    _previous(message)
                self._note_dead_letter(message)

            endpoint.on_dead_letter = chained
        period = config.heartbeat_period
        self._heartbeat_task = PeriodicTask(
            sim, period, self._heartbeat_tick, name=f"heartbeat-{self.name}"
        )
        self._check_task = PeriodicTask(
            sim, period, self._check_tick, name=f"failure-detector-{self.name}"
        )

    # -- subscriptions ------------------------------------------------------

    @property
    def is_down(self) -> bool:
        return self.state == PEER_DOWN

    def on_up(self, callback) -> None:
        """Run ``callback()`` on recovery (DOWN -> UP), after the epoch
        bump — the hook where policies replay their desired snapshots."""
        self._on_up.append(callback)

    # -- periodic tasks -----------------------------------------------------

    def _heartbeat_tick(self) -> None:
        agent = self.agent
        if agent.crashed or agent.stalled:
            return  # a dead or stalled manager cannot heartbeat
        self._seq += 1
        self.heartbeats_sent += 1
        if self.tracer.wants("heartbeat-sent"):
            self.tracer.emit(
                "health", "heartbeat-sent", island=self.name,
                seq=self._seq, epoch=agent.epoch,
            )
        self._wire.send(HeartbeatMessage(
            sender=self.name, epoch=agent.epoch, seq=self._seq,
            sent_at=self.sim.now,
        ))

    def _check_tick(self) -> None:
        period = self.config.heartbeat_period
        agent = self.agent
        if agent.crashed:
            # While dead we judge nothing; refresh the horizon so a
            # restart gets a full grace window before suspecting.
            self._last_heartbeat_at = self.sim.now
            return
        acked = getattr(agent.endpoint, "frames_acked", 0)
        if acked > self._last_frames_acked:
            # Ack progress proves the forward path works: clear the
            # dead-letter pressure (and recover, if heartbeats agree).
            self._last_frames_acked = acked
            self._consecutive_dead_letters = 0
            if self.state != PEER_UP and self._heartbeat_fresh():
                self._transition(PEER_UP, "ack-progress")
        silent = self.sim.now - self._last_heartbeat_at
        misses = silent // period
        if misses >= self.config.down_misses:
            self._resume_streak = 0
            self._transition(PEER_DOWN, f"missed {misses} heartbeats")
        elif misses >= self.config.suspect_misses:
            self._resume_streak = 0
            self._transition(PEER_SUSPECT, f"missed {misses} heartbeats")

    def _heartbeat_fresh(self) -> bool:
        silent = self.sim.now - self._last_heartbeat_at
        return silent < self.config.suspect_misses * self.config.heartbeat_period

    # -- evidence feeds -----------------------------------------------------

    def _on_heartbeat(self, message: HeartbeatMessage) -> None:
        self.heartbeats_received += 1
        self._last_heartbeat_at = self.sim.now
        self._resume_streak += 1
        if message.epoch > self.peer_epoch:
            self.note_peer_epoch(message.epoch)
        if self.tracer.wants("heartbeat-received"):
            self.tracer.emit(
                "health", "heartbeat-received", island=self.name,
                frm=message.sender, seq=message.seq, epoch=message.epoch,
            )
        if self.state == PEER_SUSPECT:
            self._transition(PEER_UP, "heartbeat-resumed")
        elif self.state == PEER_DOWN:
            # Heartbeats alone recover a silence-driven DOWN immediately.
            # A dead-letter-driven DOWN additionally needs either ack
            # progress (see the check loop) or a sustained resumed streak,
            # so a one-way partition does not flap on every heartbeat.
            if (self._consecutive_dead_letters < self.config.dead_letter_down
                    or self._resume_streak >= self.config.down_misses):
                self._consecutive_dead_letters = 0
                self._transition(PEER_UP, "heartbeat-resumed")

    def _note_dead_letter(self, message: Any) -> None:
        self.dead_letters_seen += 1
        self._consecutive_dead_letters += 1
        self._resume_streak = 0
        if self.tracer.wants("dead-letter-signal"):
            self.tracer.emit(
                "health", "dead-letter-signal", island=self.name,
                consecutive=self._consecutive_dead_letters,
                message=repr(message),
            )
        if self.state == PEER_UP:
            self._transition(PEER_SUSPECT, "dead-letter")
        if (self._consecutive_dead_letters >= self.config.dead_letter_down
                and self.state != PEER_DOWN):
            self._transition(
                PEER_DOWN,
                f"{self._consecutive_dead_letters} consecutive dead letters",
            )

    def note_peer_epoch(self, epoch: int) -> None:
        """Adopt a higher peer epoch (called by the agent on any message
        carrying one). Crossing an epoch boundary reverts this side to its
        declared baselines *before* the new epoch's replay applies — so a
        replayed delta-from-baseline lands on a baseline, even if this
        side never detected the outage (one-way partition)."""
        if epoch <= self.peer_epoch:
            return
        self.peer_epoch = epoch
        self.agent.revert_to_baselines(f"epoch-{epoch}-boundary")

    # -- state machine ------------------------------------------------------

    def _transition(self, new_state: str, reason: str) -> None:
        old = self.state
        if old == new_state:
            return
        if new_state == PEER_SUSPECT and old != PEER_UP:
            return  # SUSPECT never downgrades DOWN
        self.state = new_state
        self.transitions.append((self.sim.now, new_state, reason))
        if self.tracer.wants(_STATE_KIND[new_state]):
            self.tracer.emit(
                "health", _STATE_KIND[new_state], island=self.name, reason=reason,
            )
        if new_state == PEER_DOWN:
            self.agent.revert_to_baselines(f"peer-down:{reason}")
        elif new_state == PEER_UP and old == PEER_DOWN:
            self.agent.epoch += 1
            if self.tracer.wants("epoch-bump"):
                self.tracer.emit(
                    "health", "epoch-bump", island=self.name,
                    epoch=self.agent.epoch, reason=reason,
                )
            for callback in self._on_up:
                callback()

    # -- introspection ------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """Peer-health snapshot: state, epochs, heartbeat counters and the
        transition timeline. Read it per detector, from
        ``testbed.detectors[side]`` or ``mesh.detector(a, b)``."""
        return {
            "state": self.state,
            "epoch": self.agent.epoch,
            "peer_epoch": self.peer_epoch,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_received": self.heartbeats_received,
            "dead_letters_seen": self.dead_letters_seen,
            "transitions": list(self.transitions),
        }

    def __repr__(self) -> str:
        return f"<FailureDetector {self.name} peer={self.state} epoch={self.agent.epoch}>"
