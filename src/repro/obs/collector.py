"""The control-loop latency observatory.

A :class:`ControlLoopCollector` subscribes to the span trace kinds and
reassembles each decision's end-to-end journey into one
:class:`ControlLoopRecord` with a per-stage latency breakdown:

========== ===================================================== ========
stage      covers                                                 bounds
========== ===================================================== ========
classify   policy decision -> message handed to the endpoint     t0 -> t1
ring       endpoint accept -> first put on the raw mailbox        t1 -> t2
           (reliable-layer queueing, coalescing wait)
wire       first wire put -> delivered to the receiving agent     t2 -> t3
           (channel latency, plus loss/retransmission delays)
handle     receive -> knob dispatch (Dom0 scheduling + handling)  t3 -> t4
apply      knob dispatch -> actuation recorded                    t4 -> t5
========== ===================================================== ========

Spans absorbed by Tune coalescing complete when their *surviving* merged
span is applied: the absorbed decision keeps its own decision and send
times (t0, t1) and inherits the survivor's wire/handle/apply times, so
its loop honestly includes the time it sat merged behind the in-flight
frame. Percentile summaries are available per entity and per reason tag.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..metrics.stats import Summary, summarize
from ..sim import Simulator, Tracer
from .span import SPAN_TRACE_KINDS

#: Stage names of the per-loop latency breakdown, in causal order.
CONTROL_LOOP_STAGES = ("classify-send", "ring", "wire", "handle", "apply")


@dataclass
class _SpanState:
    """Mutable assembly buffer for one in-flight span."""

    trace_id: int
    span_id: int
    source: str = ""
    entity: str = ""
    reason: str = ""
    op: str = ""
    pid: Optional[int] = None
    pkt_rx: Optional[int] = None
    minted_at: Optional[int] = None
    sent_at: Optional[int] = None
    wire_at: Optional[int] = None
    recv_at: Optional[int] = None
    handle_at: Optional[int] = None
    retries: int = 0
    wire_attempts: int = 0
    losses: int = 0


@dataclass(frozen=True)
class ControlLoopRecord:
    """One completed sensing-to-actuation loop."""

    trace_id: int
    span_id: int
    entity: str
    reason: str
    op: str  #: ``tune`` | ``trigger``
    minted_at: int
    sent_at: int
    wire_at: int
    recv_at: int
    handle_at: int
    applied_at: int
    outcome: str
    #: Retransmissions the carrying frame needed (0 over a clean channel).
    retries: int = 0
    #: Wire attempts dropped by the lossy mailbox before delivery.
    losses: int = 0
    #: True when this decision reached the knob merged into another span.
    coalesced: bool = False
    #: Span ids this loop's frame absorbed through coalescing.
    merged_from: tuple[int, ...] = ()
    #: The classified packet that caused the decision, when known.
    packet: Optional[int] = None
    #: The packet's ``ixp-rx`` stamp (wire arrival), when known.
    packet_rx_at: Optional[int] = None
    #: Lease-restore time for triggers (filled in after apply).
    restored_at: Optional[int] = None

    @property
    def stages(self) -> dict[str, int]:
        """Per-stage latency breakdown (ns), keyed by stage name."""
        return {
            "classify-send": self.sent_at - self.minted_at,
            "ring": self.wire_at - self.sent_at,
            "wire": self.recv_at - self.wire_at,
            "handle": self.handle_at - self.recv_at,
            "apply": self.applied_at - self.handle_at,
        }

    @property
    def total(self) -> int:
        """Decision-to-actuation latency (ns)."""
        return self.applied_at - self.minted_at


@dataclass
class ControlLoopStats:
    """Aggregate counters of one collector."""

    minted: int = 0
    applied: int = 0
    coalesced_applied: int = 0
    cancelled: int = 0
    dead_lettered: int = 0
    restored: int = 0
    open: int = 0
    by_entity: dict[str, int] = field(default_factory=dict)
    by_reason: dict[str, int] = field(default_factory=dict)


class ControlLoopCollector:
    """Assembles span trace events into per-loop latency records.

    Subscribing to the span kinds is what arms span minting platform-wide
    (the producers' ``Tracer.wants`` gates open once a sink exists), so
    constructing this collector *is* the opt-in.
    """

    def __init__(self, sim: Simulator, tracer: Tracer):
        self.sim = sim
        self.tracer = tracer
        self._open: dict[int, _SpanState] = {}
        #: span_id -> restore-pending index into ``records`` (for leases).
        self._await_restore: dict[int, int] = {}
        self.records: list[ControlLoopRecord] = []
        self.minted = 0
        self.cancelled = 0
        self.dead_lettered = 0
        self.restored = 0
        tracer.subscribe(self._on_record, kinds=list(SPAN_TRACE_KINDS))

    # -- event assembly ----------------------------------------------------

    def _state(self, record) -> _SpanState:
        span_id = record.payload["span"]
        state = self._open.get(span_id)
        if state is None:
            state = _SpanState(
                trace_id=record.payload.get("trace", 0), span_id=span_id
            )
            self._open[span_id] = state
        return state

    def _on_record(self, record) -> None:
        kind = record.kind
        payload = record.payload
        if "span" not in payload:
            return
        state = self._state(record)
        if kind == "span-minted":
            self.minted += 1
            state.source = record.source
            state.minted_at = record.time
            state.entity = payload.get("entity", "")
            state.reason = payload.get("reason", "")
            state.op = payload.get("op", "")
            state.pid = payload.get("pid")
            state.pkt_rx = payload.get("pkt_rx")
        elif kind == "span-sent":
            state.sent_at = record.time
        elif kind == "span-wire":
            state.wire_attempts += 1
            if state.wire_at is None:
                state.wire_at = record.time
        elif kind == "span-lost":
            state.losses += 1
        elif kind == "span-retransmit":
            state.retries += 1
        elif kind == "span-recv":
            state.recv_at = record.time
        elif kind == "span-handle":
            state.handle_at = record.time
        elif kind == "span-applied":
            self._complete(state, record)
        elif kind == "span-cancelled":
            self.cancelled += 1
            self._open.pop(state.span_id, None)
        elif kind == "span-dead":
            self.dead_lettered += 1
            self._open.pop(state.span_id, None)
        elif kind == "span-restored":
            self.restored += 1
            index = self._await_restore.pop(state.span_id, None)
            if index is not None:
                self.records[index] = replace(
                    self.records[index], restored_at=record.time
                )
        # span-coalesced carries bookkeeping only; completion of absorbed
        # spans rides the survivor's merged_from at span-applied time.

    def _complete(self, state: _SpanState, record) -> None:
        payload = record.payload
        merged = tuple(payload.get("merged_from", ()))
        survivor = self._finish(state, record, coalesced=False, merged_from=merged)
        for absorbed_id in merged:
            absorbed = self._open.pop(absorbed_id, None)
            if absorbed is None:
                continue
            self._finish(
                absorbed, record, coalesced=True, merged_from=(),
                inherit=survivor,
            )

    def _finish(
        self,
        state: _SpanState,
        record,
        coalesced: bool,
        merged_from: tuple[int, ...],
        inherit: Optional[ControlLoopRecord] = None,
    ) -> Optional[ControlLoopRecord]:
        self._open.pop(state.span_id, None)
        minted_at = state.minted_at
        if minted_at is None:
            return None  # event arrived for a span minted before we attached
        sent_at = state.sent_at if state.sent_at is not None else minted_at
        if inherit is not None:
            wire_at, recv_at = inherit.wire_at, inherit.recv_at
            handle_at, applied_at = inherit.handle_at, inherit.applied_at
            retries, losses = inherit.retries, inherit.losses
        else:
            applied_at = record.time
            wire_at = state.wire_at if state.wire_at is not None else sent_at
            recv_at = state.recv_at if state.recv_at is not None else wire_at
            handle_at = state.handle_at if state.handle_at is not None else recv_at
            retries, losses = state.retries, state.losses
        loop = ControlLoopRecord(
            trace_id=state.trace_id,
            span_id=state.span_id,
            entity=state.entity or record.payload.get("entity", ""),
            reason=state.reason,
            op=state.op or record.payload.get("op", ""),
            minted_at=minted_at,
            sent_at=sent_at,
            wire_at=max(wire_at, sent_at),
            recv_at=recv_at,
            handle_at=handle_at,
            applied_at=applied_at,
            outcome=record.payload.get("outcome", "applied"),
            retries=retries,
            losses=losses,
            coalesced=coalesced,
            merged_from=merged_from,
            packet=state.pid,
            packet_rx_at=state.pkt_rx,
        )
        if loop.op == "trigger":
            self._await_restore[loop.span_id] = len(self.records)
        self.records.append(loop)
        return loop

    # -- introspection -----------------------------------------------------

    @property
    def applied(self) -> int:
        """Completed loops (including coalesced-absorbed decisions)."""
        return len(self.records)

    def link_fraction(self, total_applied: int) -> float:
        """Fraction of ``total_applied`` actuations that a span explains.

        Coalesced decisions share one actuation, so the numerator counts
        *distinct actuations carrying a span*, not loop records.
        """
        if total_applied <= 0:
            return 0.0
        direct = sum(1 for r in self.records if not r.coalesced)
        return min(1.0, direct / total_applied)

    def stage_percentiles(self, by: str = "entity") -> dict[str, dict[str, Summary]]:
        """Per-``by`` (``"entity"`` or ``"reason"``) stage summaries.

        Returns ``{key: {stage: Summary, ..., "total": Summary}}`` over
        every completed loop; keys with no loops are absent.
        """
        if by not in ("entity", "reason"):
            raise ValueError(f"by must be 'entity' or 'reason', got {by!r}")
        grouped: dict[str, list[ControlLoopRecord]] = {}
        for record in self.records:
            grouped.setdefault(getattr(record, by) or "(none)", []).append(record)
        out: dict[str, dict[str, Summary]] = {}
        for key, loops in grouped.items():
            stages: dict[str, Summary] = {}
            for stage in CONTROL_LOOP_STAGES:
                stages[stage] = summarize(loop.stages[stage] for loop in loops)
            stages["total"] = summarize(loop.total for loop in loops)
            out[key] = stages
        return out

    def stats(self) -> ControlLoopStats:
        """Aggregate counters (mirrors the channel/knob ``stats`` idiom)."""
        by_entity: dict[str, int] = {}
        by_reason: dict[str, int] = {}
        coalesced = 0
        for record in self.records:
            by_entity[record.entity] = by_entity.get(record.entity, 0) + 1
            by_reason[record.reason] = by_reason.get(record.reason, 0) + 1
            if record.coalesced:
                coalesced += 1
        return ControlLoopStats(
            minted=self.minted,
            applied=len(self.records),
            coalesced_applied=coalesced,
            cancelled=self.cancelled,
            dead_lettered=self.dead_lettered,
            restored=self.restored,
            open=len(self._open),
            by_entity=by_entity,
            by_reason=by_reason,
        )

    def report(self) -> dict[str, Any]:
        """Structured introspection blob: counters plus per-entity and
        per-reason stage percentiles. Read it from the testbed's
        ``observatory`` (None when tracing is off)."""
        stats = self.stats()
        return {
            "minted": stats.minted,
            "applied": stats.applied,
            "coalesced_applied": stats.coalesced_applied,
            "cancelled": stats.cancelled,
            "dead_lettered": stats.dead_lettered,
            "restored": stats.restored,
            "open": stats.open,
            "by_entity": self.stage_percentiles(by="entity"),
            "by_reason": self.stage_percentiles(by="reason"),
        }
