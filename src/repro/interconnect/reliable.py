"""Reliable delivery over the raw PCI-config-space mailbox.

The paper's coordination channel is an *unacknowledged* mailbox (§2.3): a
lost Tune is simply a stale weight until the next one. That is faithful to
the prototype — and it is what the paper's figures are measured over — but
policies layered on top degrade unpredictably once loss is injected. This
module adds an optional reliability layer in the spirit of MARS-style
coordination substrates: the raw channel stays untouched (and remains the
default), while :class:`ReliableEndpoint` wraps a :class:`ChannelEndpoint`
with

* sequence-numbered :class:`DataFrame` transmission,
* receiver-side acknowledgement and duplicate suppression,
* sender-side retransmission with exponential backoff and a bounded retry
  budget, and
* a dead-letter counter for frames that exhaust the budget — reliability
  degrades *gracefully* into the raw channel's semantics, it never raises.

On top of the ARQ machinery sits a generic **coalescing** hook: the owner
of an endpoint may install ``(key_fn, merge_fn)`` so that while a frame
with key K is awaiting its ack, later messages with the same key merge
into one not-yet-sent pending frame. The coordination agent uses this to
merge per-request Tune deltas for the same entity (the RUBiS classifier
emits a Tune per classified request), bounding channel occupancy to one
in-flight Tune per entity under bursty policies.

Frames are delivered in arrival order, not send order: a retransmission
can overtake a younger frame. Tune deltas are commutative so the
coordination vocabulary is insensitive to this, and the raw mailbox never
guaranteed ordering under loss anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..obs import span_of
from ..sim import Tracer, seconds, us
from .channel import ChannelEndpoint, CoordinationChannel, MessageHandler

#: Fallback floor for the retransmission timeout when the channel latency
#: is very small (e.g. the §3.3 hardware-assisted 1 us channel).
MIN_RTO = us(50)

#: A coalesce key: anything hashable, or None for "do not coalesce".
CoalesceKey = Optional[Any]
CoalesceKeyFn = Callable[[Any], CoalesceKey]
#: Merges the pending (older) message with a newer one; returning None
#: cancels the pending frame entirely (e.g. Tune deltas that sum to zero).
CoalesceMergeFn = Callable[[Any, Any], Optional[Any]]


@dataclass(frozen=True, slots=True)
class DataFrame:
    """A sequence-numbered application message on the wire."""

    seq: int
    payload: Any

    def __repr__(self) -> str:
        return f"Data(#{self.seq}, {self.payload!r})"


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Receiver acknowledgement for one :class:`DataFrame`."""

    seq: int

    def __repr__(self) -> str:
        return f"Ack(#{self.seq})"


@dataclass(frozen=True)
class ReliableConfig:
    """Tunables of the reliability layer."""

    #: Initial retransmission timeout in ns. None derives it from the
    #: channel: 4x the one-way latency (one RTT of slack past the RTT),
    #: floored at MIN_RTO.
    initial_rto: Optional[int] = None
    #: Multiplicative backoff applied to the RTO after every retry.
    backoff: float = 2.0
    #: Upper bound on the (backed-off) RTO.
    max_rto: int = seconds(2)
    #: Retransmissions allowed per frame before it is dead-lettered, so a
    #: frame is transmitted at most ``1 + max_retries`` times. Zero makes
    #: the layer a pure ack/dedup observer of the raw channel.
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.initial_rto is not None and self.initial_rto <= 0:
            raise ValueError("initial_rto must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.max_rto <= 0:
            raise ValueError("max_rto must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")


@dataclass
class _Pending:
    """Sender-side state of one unacknowledged frame."""

    seq: int
    message: Any
    key: CoalesceKey
    first_sent_at: int
    rto: int
    #: Retransmissions performed so far (0 = only the initial send).
    retries: int = 0
    #: The live RTO timer event; cancelled when the frame is acked so the
    #: dead timer does not churn the simulator heap.
    timer: Optional[Any] = None


class ReliableEndpoint:
    """One side of the channel with ack/retransmit/coalescing semantics.

    Duck-type compatible with :class:`ChannelEndpoint` where it matters:
    ``send``/``set_receiver``/``name``/``sent``/``received``, so agents and
    the XScale control core work unchanged on either flavour.
    """

    def __init__(
        self,
        raw: ChannelEndpoint,
        config: Optional[ReliableConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.raw = raw
        self.name = raw.name
        self.sim = raw.channel.sim
        self.config = config or ReliableConfig()
        self.tracer = tracer or raw.channel.tracer
        self._initial_rto = self.config.initial_rto or max(
            4 * raw.channel.latency, MIN_RTO
        )
        raw.set_receiver(self._on_frame)
        self._handler: Optional[MessageHandler] = None
        self._next_seq = 0
        #: seq -> pending state of every unacknowledged frame.
        self._inflight: dict[int, _Pending] = {}
        #: coalesce key -> seq of the in-flight frame holding that key.
        self._inflight_key: dict[Any, int] = {}
        #: coalesce key -> merged message waiting for the in-flight ack.
        self._pending_merge: dict[Any, Any] = {}
        #: Receiver-side seqs already delivered (duplicate suppression).
        self._delivered_seqs: set[int] = set()
        self._coalesce_key: Optional[CoalesceKeyFn] = None
        self._coalesce_merge: Optional[CoalesceMergeFn] = None
        #: Sender-side dead-letter hook: called with the application
        #: message whose frame exhausted its retry budget, so the owner
        #: can *react* (feed a failure detector, re-plan) instead of only
        #: reading a counter after the fact. None (the default) costs one
        #: attribute test per dead letter.
        self.on_dead_letter: Optional[Callable[[Any], None]] = None
        #: Dead-lettered messages per target entity (stringified), for
        #: entity-granular channel health. Messages without an ``entity``
        #: attribute (acks, heartbeats, customs) are not keyed.
        self.dead_letters_by_entity: dict[str, int] = {}

        # -- counters (all cumulative) ----------------------------------
        #: Application messages accepted by send() (attempts, like the raw
        #: endpoint's ``sent``; coalesced messages count here too).
        self.sent = 0
        #: Unique frames put on the wire (excludes retransmissions).
        self.frames_sent = 0
        #: Frames acknowledged by the peer.
        self.frames_acked = 0
        #: Application messages delivered to the local handler.
        self.received = 0
        self.retransmits = 0
        self.dups_dropped = 0
        self.coalesced = 0
        self.dead_lettered = 0
        self.acks_sent = 0
        self.acks_received = 0

    # -- configuration ----------------------------------------------------

    def set_receiver(self, handler: MessageHandler) -> None:
        """Register the callback invoked for each delivered payload."""
        self._handler = handler

    def set_coalescer(self, key_fn: CoalesceKeyFn, merge_fn: CoalesceMergeFn) -> None:
        """Install the coalescing hooks (see module docstring)."""
        self._coalesce_key = key_fn
        self._coalesce_merge = merge_fn

    # -- send path ---------------------------------------------------------

    def send(self, message: Any) -> None:
        """Transmit ``message`` reliably (ack + retransmit until the retry
        budget is exhausted, then dead-letter silently)."""
        self.sent += 1
        key = self._coalesce_key(message) if self._coalesce_key else None
        if key is not None and key in self._inflight_key:
            self._merge_pending(key, message)
            return
        self._transmit_new(message, key)

    def _merge_pending(self, key: Any, message: Any) -> None:
        pending = self._pending_merge.get(key)
        merged = message if pending is None else self._coalesce_merge(pending, message)
        self.coalesced += 1
        self.tracer.emit(
            "reliable", "frame-coalesced", frm=self.name, key=str(key),
            cancelled=merged is None,
        )
        if pending is not None and self.tracer.wants("span-coalesced"):
            self._emit_merge_spans(key, pending, message, merged)
        if merged is None:
            # The deltas cancelled out: nothing left to send for this key.
            self._pending_merge.pop(key, None)
        else:
            self._pending_merge[key] = merged

    def _emit_merge_spans(self, key: Any, pending: Any, message: Any, merged: Any) -> None:
        """Span bookkeeping for one coalescing step: the absorbed spans are
        announced (``span-coalesced`` into the survivor) or, when the merge
        cancelled the frame outright, every participant is ``span-cancelled``.
        The survivor additionally carries the absorbed ids in its
        ``merged_from`` so the collector can close absorbed loops at apply
        time even if these events are missed."""
        old_span = span_of(pending)
        new_span = span_of(message)
        if merged is None:
            for span in (old_span, new_span):
                if span is not None:
                    self.tracer.emit(
                        "reliable", "span-cancelled", trace=span.trace_id,
                        span=span.span_id, frm=self.name, key=str(key),
                    )
            return
        survivor = span_of(merged)
        if survivor is None:
            return
        for span in (old_span, new_span):
            if span is not None and span.span_id != survivor.span_id:
                self.tracer.emit(
                    "reliable", "span-coalesced", trace=span.trace_id,
                    span=span.span_id, into=survivor.span_id, frm=self.name,
                )

    def _transmit_new(self, message: Any, key: CoalesceKey) -> None:
        seq = self._next_seq
        self._next_seq += 1
        entry = _Pending(
            seq=seq,
            message=message,
            key=key,
            first_sent_at=self.sim.now,
            rto=self._initial_rto,
        )
        self._inflight[seq] = entry
        if key is not None:
            self._inflight_key[key] = seq
        self.frames_sent += 1
        self.tracer.emit("reliable", "frame-sent", frm=self.name, seq=seq)
        self._put_on_wire(entry)

    def _put_on_wire(self, entry: _Pending) -> None:
        self.raw.send(DataFrame(entry.seq, entry.message))
        retries_at_send = entry.retries
        entry.timer = self.sim.call_in(
            entry.rto, lambda: self._on_retransmit_timer(entry.seq, retries_at_send)
        )

    def _on_retransmit_timer(self, seq: int, retries_at_send: int) -> None:
        entry = self._inflight.get(seq)
        if entry is None or entry.retries != retries_at_send:
            return  # acked meanwhile, or a newer timer owns this frame
        if entry.retries >= self.config.max_retries:
            self._dead_letter(entry)
            return
        entry.retries += 1
        entry.rto = min(int(entry.rto * self.config.backoff), self.config.max_rto)
        self.retransmits += 1
        self.tracer.emit(
            "reliable", "frame-retransmit", frm=self.name, seq=seq, retry=entry.retries
        )
        if self.tracer.wants("span-retransmit"):
            span = span_of(entry.message)
            if span is not None:
                self.tracer.emit(
                    "reliable", "span-retransmit", trace=span.trace_id,
                    span=span.span_id, retry=entry.retries, frm=self.name,
                )
        self._put_on_wire(entry)

    def _dead_letter(self, entry: _Pending) -> None:
        del self._inflight[entry.seq]
        self.dead_lettered += 1
        self.tracer.emit(
            "reliable", "frame-dead-letter", frm=self.name, seq=entry.seq,
            message=repr(entry.message),
        )
        if self.tracer.wants("span-dead"):
            span = span_of(entry.message)
            if span is not None:
                self.tracer.emit(
                    "reliable", "span-dead", trace=span.trace_id,
                    span=span.span_id, retries=entry.retries, frm=self.name,
                )
        entity = getattr(entry.message, "entity", None)
        if entity is not None:
            key = str(entity)
            self.dead_letters_by_entity[key] = self.dead_letters_by_entity.get(key, 0) + 1
        # The merged successor (if any) still deserves its own attempts:
        # a dead frame must not take queued adjustments down with it.
        self._release_key(entry)
        if self.on_dead_letter is not None:
            self.on_dead_letter(entry.message)

    def _release_key(self, entry: _Pending) -> None:
        if entry.key is None or self._inflight_key.get(entry.key) != entry.seq:
            return
        del self._inflight_key[entry.key]
        follow_up = self._pending_merge.pop(entry.key, None)
        if follow_up is not None:
            self._transmit_new(follow_up, entry.key)

    # -- receive path -----------------------------------------------------------

    def _on_frame(self, frame: Any) -> None:
        if isinstance(frame, AckFrame):
            self._on_ack(frame)
        elif isinstance(frame, DataFrame):
            self._on_data(frame)
        else:
            # Raw (unframed) message from a non-reliable sender sharing the
            # channel: pass it through with mailbox semantics.
            self.received += 1
            self._deliver(frame)

    def _on_ack(self, frame: AckFrame) -> None:
        self.acks_received += 1
        entry = self._inflight.pop(frame.seq, None)
        if entry is None:
            return  # duplicate ack (retransmitted frame acked twice)
        if entry.timer is not None:
            entry.timer.cancel()  # retire the RTO timer instead of letting
            entry.timer = None  # it fire as a guarded no-op
        self.frames_acked += 1
        self.tracer.emit(
            "reliable", "frame-acked", frm=self.name, seq=frame.seq,
            retries=entry.retries,
        )
        self._release_key(entry)

    def _on_data(self, frame: DataFrame) -> None:
        # Always re-ack: a duplicate means our previous ack was lost (or is
        # still in flight) and the sender is burning retries.
        self.acks_sent += 1
        self.raw.send(AckFrame(frame.seq))
        if frame.seq in self._delivered_seqs:
            self.dups_dropped += 1
            self.tracer.emit("reliable", "frame-dup-dropped", frm=self.name, seq=frame.seq)
            return
        self._delivered_seqs.add(frame.seq)
        self.received += 1
        self._deliver(frame.payload)

    def _deliver(self, payload: Any) -> None:
        if self._handler is None:
            raise RuntimeError(f"endpoint {self.name!r} received a message but has no handler")
        self._handler(payload)

    # -- introspection ----------------------------------------------------------

    @property
    def inflight(self) -> int:
        """Frames sent but not yet acked or dead-lettered."""
        return len(self._inflight)

    @property
    def pending_coalesced(self) -> int:
        """Merged messages waiting for an in-flight ack before sending."""
        return len(self._pending_merge)

    def stats(self) -> dict[str, int]:
        """Snapshot of every reliability counter."""
        return {
            "sent": self.sent,
            "frames_sent": self.frames_sent,
            "frames_acked": self.frames_acked,
            "received": self.received,
            "retransmits": self.retransmits,
            "dups_dropped": self.dups_dropped,
            "coalesced": self.coalesced,
            "dead_lettered": self.dead_lettered,
            "acks_sent": self.acks_sent,
            "acks_received": self.acks_received,
            "inflight": self.inflight,
        }

    def __repr__(self) -> str:
        return f"<ReliableEndpoint {self.name} inflight={self.inflight}>"


class ReliableChannel:
    """Both sides of a :class:`CoordinationChannel`, wrapped reliably.

    The raw channel object is untouched apart from its endpoints' receive
    handlers, so its loss/latency knobs and ``messages_lost`` accounting
    keep working — acks and retransmissions ride the same lossy mailbox.
    """

    def __init__(
        self,
        channel: CoordinationChannel,
        config: Optional[ReliableConfig] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.channel = channel
        self.config = config or ReliableConfig()
        tracer = tracer or channel.tracer
        self.a = ReliableEndpoint(channel.a, self.config, tracer=tracer)
        self.b = ReliableEndpoint(channel.b, self.config, tracer=tracer)

    def endpoint(self, name: str) -> ReliableEndpoint:
        """Fetch a reliable endpoint by island name."""
        if name == self.a.name:
            return self.a
        if name == self.b.name:
            return self.b
        raise KeyError(
            f"channel has endpoints {self.a.name!r}/{self.b.name!r}, not {name!r}"
        )

    def stats(self) -> dict[str, int]:
        """Channel-wide counters: both endpoints summed, plus raw losses."""
        combined = {
            key: self.a.stats()[key] + self.b.stats()[key] for key in self.a.stats()
        }
        combined["raw_lost"] = self.channel.messages_lost
        combined["blacked_out"] = self.channel.messages_blacked_out
        return combined

    def dead_letters_by_entity(self) -> dict[str, int]:
        """Dead-lettered messages per target entity, both directions
        merged — the entity-granular companion of :meth:`stats`'s
        ``dead_lettered`` count, so operators can see *who* is losing
        coordination, not just that frames died."""
        merged = dict(self.a.dead_letters_by_entity)
        for entity, count in self.b.dead_letters_by_entity.items():
            merged[entity] = merged.get(entity, 0) + count
        return merged
