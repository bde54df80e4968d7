"""Link health across shard boundaries: heartbeats, misses, epochs.

The PR-5 fault idiom (UP -> SUSPECT -> DOWN on consecutive missed
heartbeats, epoch bump on recovery, snapshot replay from the ``on_up``
hook) restated for boundary links. Unlike the prototype's
:class:`~repro.faults.health.FailureDetector` there is no reliable layer
here — boundary pipes are lossless, so the only way heartbeats go
missing is a scripted :class:`~repro.faults.ChannelBlackout` on the
link, which drops them at *send* time. Both endpoints therefore observe
a ``direction="both"`` partition symmetrically and deterministically.

Everything ticks on simulation-time :class:`~repro.sim.PeriodicTask`\\ s
and the transitions list is pure simulation arithmetic: the health
timeline is bit-identical across shard counts and fastpath modes.
"""

from __future__ import annotations

from typing import Any

from ..sim import PeriodicTask, Simulator, ms
from .ports import BoundaryMessage, BoundaryRouter

#: LinkHealth states (mirrors faults.health PEER_* for boundary links).
LINK_UP = "up"
LINK_SUSPECT = "suspect"
LINK_DOWN = "down"

#: Default heartbeat period on a boundary link.
DEFAULT_HEARTBEAT_PERIOD = ms(50)


class LinkHealth:
    """One endpoint's view of one boundary link's liveness.

    ``local`` sends heartbeats to ``peer`` over the boundary router every
    ``period``; a check task counts consecutive silent periods and walks
    the link UP -> SUSPECT (``suspect_misses``) -> DOWN (``down_misses``).
    Recovery (a heartbeat arriving while DOWN) bumps the local ``epoch``
    — the signal for the owning agent to replay its state snapshot on
    top of whatever the peer missed.
    """

    def __init__(
        self,
        sim: Simulator,
        router: BoundaryRouter,
        local: str,
        peer: str,
        period: int = DEFAULT_HEARTBEAT_PERIOD,
        suspect_misses: int = 2,
        down_misses: int = 4,
    ):
        if suspect_misses <= 0 or down_misses < suspect_misses:
            raise ValueError("need 0 < suspect_misses <= down_misses")
        self.sim = sim
        self.router = router
        self.local = local
        self.peer = peer
        self.period = period
        self.suspect_misses = suspect_misses
        self.down_misses = down_misses
        self.state = LINK_UP
        #: Local incarnation; bumped on every DOWN -> UP recovery.
        self.epoch = 0
        #: Highest epoch seen from the peer's heartbeats.
        self.peer_epoch = 0
        #: (time, state, reason) — the deterministic health timeline.
        self.transitions: list[tuple[int, str, str]] = [(sim.now, LINK_UP, "init")]
        self.heartbeats_sent = 0
        self.heartbeats_received = 0
        self._last_seen = sim.now
        self._on_up: list = []
        router.register(local, "heartbeat", self._on_heartbeat, src=peer)
        self._beat_task = PeriodicTask(
            sim, period, self._beat, name=f"link-heartbeat-{local}->{peer}"
        )
        self._check_task = PeriodicTask(
            sim, period, self._check, name=f"link-check-{local}<-{peer}"
        )

    # -- subscriptions ------------------------------------------------------

    @property
    def is_down(self) -> bool:
        return self.state == LINK_DOWN

    def on_up(self, callback) -> None:
        """Run ``callback()`` on recovery, after the epoch bump — the
        hook where an aggregator replays its full view to the peer."""
        self._on_up.append(callback)

    # -- periodic tasks -----------------------------------------------------

    def _beat(self) -> None:
        self.heartbeats_sent += 1
        self.router.send(
            self.local, self.peer, "heartbeat",
            {"epoch": self.epoch}, self.sim.now,
        )

    def _check(self) -> None:
        misses = (self.sim.now - self._last_seen) // self.period
        if misses >= self.down_misses:
            self._transition(LINK_DOWN, f"missed {misses} heartbeats")
        elif misses >= self.suspect_misses:
            self._transition(LINK_SUSPECT, f"missed {misses} heartbeats")

    def _on_heartbeat(self, message: BoundaryMessage) -> None:
        self.heartbeats_received += 1
        self._last_seen = self.sim.now
        epoch = message.payload.get("epoch", 0)
        if epoch > self.peer_epoch:
            self.peer_epoch = epoch
        if self.state != LINK_UP:
            self._transition(LINK_UP, "heartbeat-resumed")

    # -- state machine ------------------------------------------------------

    def _transition(self, new_state: str, reason: str) -> None:
        old = self.state
        if old == new_state:
            return
        if new_state == LINK_SUSPECT and old != LINK_UP:
            return  # SUSPECT never downgrades DOWN
        self.state = new_state
        self.transitions.append((self.sim.now, new_state, reason))
        if new_state == LINK_UP and old == LINK_DOWN:
            self.epoch += 1
            for callback in self._on_up:
                callback()

    def health(self) -> dict[str, Any]:
        """Picklable snapshot for shard result collection."""
        return {
            "state": self.state,
            "epoch": self.epoch,
            "peer_epoch": self.peer_epoch,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_received": self.heartbeats_received,
            "transitions": list(self.transitions),
        }

    def __repr__(self) -> str:
        return f"<LinkHealth {self.local}<-{self.peer} {self.state} epoch={self.epoch}>"
