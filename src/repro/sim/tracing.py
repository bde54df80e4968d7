"""Lightweight structured tracing.

Components publish ``(time, source, kind, payload)`` records to a
:class:`Tracer`; sinks subscribe by kind (or to everything). A trace is
the timeline of a run; its counts are kept where they are produced
(channel ``stats()``, ``island.knobs.stats()``,
``FailureDetector.health()``), so no sink re-counts them. The per-kind
totals of a traced run are one call away: :meth:`TraceLog.count_by_kind`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

from .core import Simulator


@dataclass(frozen=True)
class TraceRecord:
    """One trace event."""

    time: int
    source: str
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


TraceSink = Callable[[TraceRecord], None]


class Tracer:
    """Pub/sub hub for trace records, keyed by record ``kind``."""

    def __init__(self, sim: Simulator, enabled: bool = True):
        self.sim = sim
        self._enabled = enabled
        self._sinks_by_kind: dict[str, list[TraceSink]] = {}
        self._global_sinks: list[TraceSink] = []
        #: kind -> would emit() reach anyone; invalidated on subscribe and
        #: on enabled toggles.
        self._wants_cache: dict[str, bool] = {}

    @property
    def enabled(self) -> bool:
        """Master switch; assigning it invalidates the ``wants`` cache."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        self._wants_cache.clear()

    def subscribe(self, sink: TraceSink, kinds: Optional[Iterable[str]] = None) -> None:
        """Attach ``sink``; with ``kinds=None`` it receives every record."""
        self._wants_cache.clear()
        if kinds is None:
            self._global_sinks.append(sink)
            return
        for kind in kinds:
            self._sinks_by_kind.setdefault(kind, []).append(sink)

    def wants(self, kind: str) -> bool:
        """True if an ``emit`` of ``kind`` would reach any sink (memoized).

        Hot paths guard their ``emit`` calls with this so that, with nobody
        subscribed, they skip even the keyword-argument marshalling of the
        payload — ``emit`` itself cannot avoid that cost.
        """
        try:
            return self._wants_cache[kind]
        except KeyError:
            result = self._enabled and bool(
                self._sinks_by_kind.get(kind) or self._global_sinks
            )
            self._wants_cache[kind] = result
            return result

    def emit(self, source: str, kind: str, **payload: Any) -> None:
        """Publish a record stamped with the current simulation time."""
        if not self._enabled:
            return
        sinks = self._sinks_by_kind.get(kind)
        if not sinks and not self._global_sinks:
            return  # nobody listening: skip record construction entirely
        record = TraceRecord(time=self.sim.now, source=source, kind=kind, payload=payload)
        if sinks:
            for sink in sinks:
                sink(record)
        for sink in self._global_sinks:
            sink(record)


class TraceLog:
    """A sink that simply accumulates records (useful in tests)."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def __call__(self, record: TraceRecord) -> None:
        self.records.append(record)

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All collected records with the given kind."""
        return [r for r in self.records if r.kind == kind]

    def count_by_kind(self) -> dict[str, int]:
        """Record counts keyed by kind (handy for channel accounting)."""
        return dict(Counter(record.kind for record in self.records))

    def clear(self) -> None:
        """Drop all accumulated records (for long-running sinks)."""
        self.records.clear()

    def __len__(self) -> int:
        return len(self.records)
