"""Boundary ports: the one road cross-cluster control traffic travels.

Determinism by construction: whether a run uses one shard or eight, a
message between islands of *different clusters* always goes through a
:class:`BoundaryRouter` — buffered at send time, handed to the
coordinator at the window barrier, and applied on the receiving shard at
exactly ``deliver_at = sent_at + link_latency``, in the total order
``(deliver_at, dst, src, seq)``. A shard's trajectory is therefore a
function of the topology, its seeds and the inbound message set — never
of process placement or pipe arrival order.

Send-side rules that keep the two modes bit-identical:

* Messages may only ride *declared* cross-cluster links (that latency is
  what the lookahead was computed from); an undeclared pair raises
  :class:`BoundaryRoutingError` immediately.
* Per-``(src, dst)`` sequence numbers are consumed even for messages a
  blackout drops, so the numbering downstream of a fault window is
  independent of the fault's duration arithmetic elsewhere.
* Blackouts are evaluated at *send* time against the scripted
  :class:`~repro.faults.ChannelBlackout` windows — pure simulation-time
  arithmetic, identical in every mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..faults.plan import ChannelBlackout


class BoundaryRoutingError(RuntimeError):
    """A boundary send/delivery violated the declared topology."""


@dataclass(frozen=True, slots=True)
class BoundaryMessage:
    """One cross-cluster message in flight between shards.

    ``seq`` is the per-``(src, dst)`` send counter; together with
    ``(deliver_at, dst, src)`` it totally orders deliveries, which is
    what makes the receiving shard's trajectory reproducible.
    """

    src: str
    dst: str
    kind: str
    sent_at: int
    deliver_at: int
    seq: int
    payload: Any = None

    def sort_key(self) -> tuple:
        return (self.deliver_at, self.dst, self.src, self.seq)

    def __repr__(self) -> str:
        return (
            f"BoundaryMessage({self.src}->{self.dst} {self.kind!r} "
            f"#{self.seq} @{self.deliver_at})"
        )


class BoundaryRouter:
    """One shard's gateway onto the cross-cluster links.

    The world built on a shard sends through :meth:`send` and registers
    per-``(island, kind)`` handlers; the shard host drains the outbound
    buffer at each window barrier and applies inbound messages at their
    due time through :meth:`deliver`.
    """

    def __init__(self, topology, shard_index: int = 0):
        self.topology = topology
        self.shard_index = shard_index
        #: latency per declared cross-cluster link, order-insensitive.
        self._latency = {
            frozenset((a, b)): latency
            for a, b, latency in topology.cross_cluster_links()
        }
        self._seq: dict[tuple[str, str], int] = {}
        self._handlers: dict[tuple[str, str, Optional[str]], Callable] = {}
        self._blackouts: list[tuple[frozenset, ChannelBlackout]] = []
        self._outbound: list[BoundaryMessage] = []
        self.sent = 0
        self.dropped = 0
        self.delivered = 0

    # -- wiring -------------------------------------------------------------

    def register(
        self,
        island: str,
        kind: str,
        handler: Callable[[BoundaryMessage], None],
        src: Optional[str] = None,
    ) -> None:
        """Handle inbound ``kind`` messages addressed to ``island``.

        ``src`` narrows the handler to one sender (a per-link listener);
        a ``src=None`` registration is the fallback for the kind.
        """
        key = (island, kind, src)
        if key in self._handlers:
            raise BoundaryRoutingError(f"duplicate handler for {key}")
        self._handlers[key] = handler

    def add_blackout(self, a: str, b: str, blackout: ChannelBlackout) -> None:
        """Script a blackout on the link between ``a`` and ``b``.

        ``blackout.direction`` is ``"both"`` or the name of the blocked
        *sender* (the PR-5 convention). Unknown links raise.
        """
        key = frozenset((a, b))
        if key not in self._latency:
            raise BoundaryRoutingError(
                f"no declared cross-cluster link {a!r}<->{b!r} to black out"
            )
        if blackout.direction not in ("both", a, b):
            raise BoundaryRoutingError(
                f"blackout direction {blackout.direction!r} names neither "
                f"endpoint of {a!r}<->{b!r}"
            )
        self._blackouts.append((key, blackout))

    # -- send side ----------------------------------------------------------

    def link_latency(self, src: str, dst: str) -> int:
        """One-way latency of the declared link; raises if undeclared."""
        try:
            return self._latency[frozenset((src, dst))]
        except KeyError:
            raise BoundaryRoutingError(
                f"no declared cross-cluster link {src!r}<->{dst!r}; "
                "boundary messages must ride links the lookahead was "
                "computed from"
            ) from None

    def send(self, src: str, dst: str, kind: str, payload: Any, now: int) -> Optional[BoundaryMessage]:
        """Queue one message for the window barrier; None when a scripted
        blackout swallowed it (its sequence number is still consumed)."""
        latency = self.link_latency(src, dst)
        key = (src, dst)
        seq = self._seq.get(key, 0)
        self._seq[key] = seq + 1
        if self._blacked_out(src, dst, now):
            self.dropped += 1
            return None
        message = BoundaryMessage(
            src=src, dst=dst, kind=kind, sent_at=now,
            deliver_at=now + latency, seq=seq, payload=payload,
        )
        self._outbound.append(message)
        self.sent += 1
        return message

    def _blacked_out(self, src: str, dst: str, now: int) -> bool:
        link = frozenset((src, dst))
        for key, blackout in self._blackouts:
            if key != link:
                continue
            if not (blackout.start <= now < blackout.end):
                continue
            if blackout.direction == "both" or blackout.direction == src:
                return True
        return False

    def drain(self) -> list[BoundaryMessage]:
        """Hand the buffered outbound messages to the coordinator."""
        outbound, self._outbound = self._outbound, []
        return outbound

    # -- receive side -------------------------------------------------------

    def deliver(self, message: BoundaryMessage, now: int) -> None:
        """Apply one inbound message at its due time (handler runs
        synchronously, with the shard's clock parked at ``deliver_at``)."""
        if message.deliver_at != now:
            raise BoundaryRoutingError(
                f"delivering {message!r} at {now}, not its due time"
            )
        handler = self._handlers.get((message.dst, message.kind, message.src))
        if handler is None:
            handler = self._handlers.get((message.dst, message.kind, None))
        if handler is None:
            raise BoundaryRoutingError(
                f"no handler for {message.kind!r} at {message.dst!r}"
            )
        self.delivered += 1
        handler(message)

    def counters(self) -> dict[str, int]:
        return {"sent": self.sent, "dropped": self.dropped, "delivered": self.delivered}

    def __repr__(self) -> str:
        return (
            f"<BoundaryRouter shard={self.shard_index} sent={self.sent} "
            f"dropped={self.dropped} delivered={self.delivered}>"
        )


class BoundaryEndpoint:
    """One end of a declared cross-cluster link as a channel endpoint.

    It offers what a :class:`~repro.coordination.CoordinationAgent` and
    its :class:`~repro.faults.FailureDetector` use of a channel
    (``name``, ``send``, ``set_receiver``), with the router as transport:
    a message sent now is delivered to the peer's endpoint one link
    latency later, in the router's total order, on whichever shard the
    peer lives.
    """

    def __init__(self, sim, router: BoundaryRouter, local: str, peer: str):
        self.sim = sim
        self.router = router
        self.name = local
        self.peer = peer
        self._receiver: Optional[Callable[[Any], None]] = None
        router.register(local, "coord", self._deliver, src=peer)

    def set_receiver(self, receiver: Callable[[Any], None]) -> None:
        self._receiver = receiver

    def send(self, message: Any) -> None:
        self.router.send(self.name, self.peer, "coord", message, self.sim.now)

    def _deliver(self, message: BoundaryMessage) -> None:
        self._receiver(message.payload)
