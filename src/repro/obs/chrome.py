"""Chrome-trace (``chrome://tracing`` / Perfetto) export of control loops.

Each completed :class:`~repro.obs.collector.ControlLoopRecord` renders as
one stage-colored lane of ``X`` (complete) events across three per-island
tracks — the IXP (decision + send-side queueing), the coordination channel
(wire, including retransmission delays), and the x86 island (Dom0 handling
and the knob apply) — tied together by a flow arrow per trace id. Lease
restores appear as instant events on the x86 track. Load the emitted JSON
straight into ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from typing import IO, Any, Iterable, Union

from .collector import ControlLoopRecord

#: Synthetic "process" ids — one track per island, as chrome://tracing
#: groups lanes by pid.
PID_IXP = 1
PID_CHANNEL = 2
PID_X86 = 3

_TRACK_NAMES = {
    PID_IXP: "ixp island (classify + send)",
    PID_CHANNEL: "coordination channel (wire)",
    PID_X86: "x86 island (handle + apply)",
}

#: Which track each stage renders on.
_STAGE_TRACKS = {
    "classify-send": PID_IXP,
    "ring": PID_IXP,
    "wire": PID_CHANNEL,
    "handle": PID_X86,
    "apply": PID_X86,
}


def _us(ns: int) -> float:
    """Chrome trace timestamps are microseconds (floats allowed)."""
    return ns / 1000.0


def chrome_trace_events(records: Iterable[ControlLoopRecord]) -> list[dict[str, Any]]:
    """The ``traceEvents`` list for a set of completed control loops."""
    events: list[dict[str, Any]] = []
    tids: dict[tuple[int, str], int] = {}

    def tid_for(pid: int, entity: str) -> int:
        key = (pid, entity)
        tid = tids.get(key)
        if tid is None:
            tid = len([k for k in tids if k[0] == pid]) + 1
            tids[key] = tid
            events.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": entity or "(unattributed)"},
            })
        return tid

    for pid, name in _TRACK_NAMES.items():
        events.append({
            "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
            "args": {"name": name},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid, "tid": 0,
            "args": {"sort_index": pid},
        })

    for record in records:
        label = f"{record.op or 'tune'}:{record.reason or record.entity}"
        args = {
            "trace_id": record.trace_id,
            "span_id": record.span_id,
            "entity": record.entity,
            "reason": record.reason,
            "outcome": record.outcome,
            "retries": record.retries,
            "coalesced": record.coalesced,
        }
        if record.packet is not None:
            args["packet"] = record.packet
        starts = {
            "classify-send": record.minted_at,
            "ring": record.sent_at,
            "wire": record.wire_at,
            "handle": record.recv_at,
            "apply": record.handle_at,
        }
        for stage, duration in record.stages.items():
            pid = _STAGE_TRACKS[stage]
            events.append({
                "ph": "X",
                "name": f"{stage} {label}",
                "cat": stage,
                "pid": pid,
                "tid": tid_for(pid, record.entity),
                "ts": _us(starts[stage]),
                "dur": _us(max(duration, 0)),
                "args": args,
            })
        # One flow arrow per loop: decision (IXP) -> actuation (x86).
        flow_id = record.span_id
        events.append({
            "ph": "s", "id": flow_id, "name": "control-loop", "cat": "flow",
            "pid": PID_IXP, "tid": tid_for(PID_IXP, record.entity),
            "ts": _us(record.minted_at),
        })
        events.append({
            "ph": "f", "id": flow_id, "name": "control-loop", "cat": "flow",
            "bp": "e",
            "pid": PID_X86, "tid": tid_for(PID_X86, record.entity),
            "ts": _us(record.applied_at),
        })
        if record.restored_at is not None:
            events.append({
                "ph": "i", "s": "t", "name": f"lease-restore {record.entity}",
                "cat": "trigger",
                "pid": PID_X86, "tid": tid_for(PID_X86, record.entity),
                "ts": _us(record.restored_at),
                "args": {"span_id": record.span_id},
            })
    return events


def export_chrome_trace(
    records: Iterable[ControlLoopRecord],
    destination: Union[str, IO[str]],
    metadata: dict[str, Any] | None = None,
) -> int:
    """Write the Chrome-trace JSON for ``records`` to a path or stream.

    Returns the number of trace events written. The document shape is the
    standard ``{"traceEvents": [...], "displayTimeUnit": "ms"}`` object
    form, which both ``chrome://tracing`` and Perfetto accept; it passes
    :func:`validate_chrome_trace` before anything is written.
    """
    events = chrome_trace_events(records)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs", **(metadata or {})},
    }
    validate_chrome_trace(document)
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=None, separators=(",", ":"))
    else:
        json.dump(document, destination, indent=None, separators=(",", ":"))
    return len(events)


def validate_chrome_trace(document: dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` is loadable Chrome JSON.

    Checks the object form: a ``traceEvents`` list whose members carry the
    mandatory ``ph``/``pid``/``ts`` fields (metadata events excepted for
    ``ts``), and that complete events have non-negative durations.
    """
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace: missing traceEvents")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for event in events:
        if not isinstance(event, dict):
            raise ValueError(f"trace event is not an object: {event!r}")
        if "ph" not in event or "pid" not in event:
            raise ValueError(f"trace event missing ph/pid: {event!r}")
        if event["ph"] != "M":
            if "ts" not in event:
                raise ValueError(f"trace event missing ts: {event!r}")
            if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
                raise ValueError(f"bad ts in trace event: {event!r}")
        if event["ph"] == "X":
            if event.get("dur", 0) < 0:
                raise ValueError(f"negative duration: {event!r}")
