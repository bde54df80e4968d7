"""Typed tunable knobs, lease-based triggers, and the actuation audit.

The paper's §3.3 argues that Tune and Trigger are *standard* mechanisms
translated into each island's *native* knobs. This module is that
translation layer made first-class: instead of per-island ``isinstance``
chains, every coordination entity registers a typed :class:`Knob` — an
apply/read callback pair with a native unit, bounds, and (optionally) a
trigger capability. :class:`KnobRegistry` dispatches Tunes and Triggers
over the registered knobs, clamps requests into bounds, turns Triggers
into stackable refcounted **leases** with deterministic expiry, and keeps
a platform-auditable record of every actuation (who tuned what, when,
requested vs. clamped-applied value, rejection reason).

Design rules:

* A Tune is always relative: ``delta`` coordination units scale by the
  knob's ``step`` into native units and move the knob from its current
  value, clamped into ``[minimum, maximum]``. The ``apply`` callback may
  clamp further (e.g. an LLC partition bounded by the free ways) and
  returns the value that actually took effect.
* A Trigger is either a **pulse** (fire-and-forget, e.g. a Xen runqueue
  boost) or a **lease**: the first acquisition captures the knob's
  original value and applies ``boost``; nested acquisitions stack
  (``boost`` applied once more) instead of capturing the boosted value as
  original — the bug class this replaces; each release peels one level,
  and the last release restores the original exactly.
* Every actuation appends an :class:`ActuationRecord` to the registry's
  audit trail and emits a trace record, so policies can discover
  capabilities via snapshots and experiments can attribute every scheduler
  change to a coordination decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Simulator, Tracer
from .identity import EntityId

#: Trace kinds emitted by the registry (source = the island name).
ACTUATION_TRACE_KINDS = (
    "tune-applied",
    "tune-clamped",
    "tune-rejected",
    "trigger-applied",
    "trigger-released",
    "unsupported-trigger",
    "baseline-reverted",
    "lease-revert-deferred",
    "actuation-failed",
)

#: Audit records a registry keeps; older ones are trimmed away.
AUDIT_LIMIT = 100_000


class KnobError(Exception):
    """Base class for actuation-layer errors."""


class UnknownKnobError(KnobError, KeyError):
    """The entity is registered but exposes no knob."""


class UnsupportedTriggerError(KnobError, TypeError):
    """The entity's knob has no trigger capability (e.g. ``disk:<vm>``).

    Subclasses :class:`TypeError` for continuity with the pre-registry
    translation layer, which raised ``TypeError`` from type sniffing.
    """


@dataclass(frozen=True, slots=True)
class TriggerSpec:
    """How a knob translates the Trigger mechanism.

    Exactly one flavour is set:

    * ``pulse`` — a one-shot native action (runqueue boost, DVFS to nominal);
      nothing to restore, so no lease is taken.
    * ``boost`` + ``hold`` — a lease: ``boost(value)`` computes the next
      boost level from the current one, held for ``hold`` nanoseconds and
      restored (one level per expiry) through the knob's ``apply``.
    """

    pulse: Optional[Callable[[], None]] = None
    boost: Optional[Callable[[float], float]] = None
    hold: int = 0

    def __post_init__(self) -> None:
        if (self.pulse is None) == (self.boost is None):
            raise ValueError("exactly one of pulse/boost must be set")
        if self.boost is not None and self.hold <= 0:
            raise ValueError("a boost lease needs a positive hold time")


@dataclass(slots=True)
class Knob:
    """One entity's typed native control knob.

    ``apply`` sets an absolute native value and returns what actually took
    effect (it may clamp beyond the static bounds); ``read`` reports the
    current native value. ``step`` scales a Tune's coordination-unit delta
    into native units (e.g. 1000 for a µs-delta onto a ns-interval knob).
    """

    kind: str
    unit: str
    read: Callable[[], float]
    apply: Callable[[float], float]
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    step: float = 1
    trigger: Optional[TriggerSpec] = None

    def clamp(self, value: float) -> float:
        """``value`` forced into the knob's static bounds."""
        if self.minimum is not None and value < self.minimum:
            value = self.minimum
        if self.maximum is not None and value > self.maximum:
            value = self.maximum
        return value

    @property
    def supports_trigger(self) -> bool:
        return self.trigger is not None


@dataclass(frozen=True, slots=True)
class ActuationRecord:
    """One audited actuation: the who/what/when of a knob change."""

    seq: int
    time: int
    island: str
    entity: str
    kind: str
    op: str  #: ``tune`` | ``trigger`` | ``trigger-release`` | ``revert``
    requested_delta: Optional[float]
    requested_value: Optional[float]
    previous_value: Optional[float]
    applied_value: Optional[float]
    #: ``applied`` | ``clamped`` | ``rejected`` | ``failed``
    #: (fault-injected) | ``deferred`` (revert blocked by a held lease).
    outcome: str
    reason: str = ""
    #: Causal span of the coordination decision this actuation realises
    #: (a :class:`~repro.obs.SpanContext`, typed loosely so the actuation
    #: layer stays import-free of the observability package). None for
    #: local/untraced actuations — the zero-cost default.
    span: Optional[Any] = None


class _LeaseState:
    """Refcounted boost state of one lease-capable knob."""

    __slots__ = ("original", "level", "spans")

    def __init__(self, original: float):
        self.original = original
        self.level = 0  #: currently-held (unexpired) boost acquisitions
        #: Acquiring spans, one per held level (None entries when tracing
        #: is off); popped FIFO as levels expire — expiry timers fire in
        #: acquisition order, so each restore is attributed to the decision
        #: whose hold just ran out.
        self.spans: list = []


class KnobRegistry:
    """Typed actuator table of one island: dispatch, clamp, lease, audit."""

    def __init__(
        self,
        sim: Simulator,
        island_name: str,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.island_name = island_name
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._knobs: dict[EntityId, Knob] = {}
        self._leases: dict[EntityId, _LeaseState] = {}
        #: Most recent audit record per entity (race-guard lookups stay
        #: O(1) regardless of audit length or trimming).
        self._last: dict[EntityId, ActuationRecord] = {}
        #: Monotonic per-registry actuation counter (audit determinism).
        self._seq = 0
        self.audit: list[ActuationRecord] = []
        self.tunes_applied = 0
        self.tunes_clamped = 0
        self.triggers_applied = 0
        self.unsupported_triggers = 0
        self.reverts_applied = 0
        self.actuations_failed = 0
        #: Fault-injection gate: ``gate(entity_id, op) -> bool`` where True
        #: fails the actuation (audited + counted, never raised). None —
        #: the default — costs one attribute test per actuation; installed
        #: only by the :class:`~repro.faults.FaultInjector`.
        self.fault_gate: Optional[Callable[[EntityId, str], bool]] = None

    # -- registration / introspection --------------------------------------

    def register(self, entity_id: EntityId, knob: Knob) -> Knob:
        """Expose ``entity_id``'s native knob; one knob per entity."""
        if entity_id in self._knobs:
            raise ValueError(f"knob for {entity_id} already registered")
        self._knobs[entity_id] = knob
        return knob

    def has(self, entity_id: EntityId) -> bool:
        return entity_id in self._knobs

    def entities(self) -> list[EntityId]:
        """Every registered entity, in registration order."""
        return list(self._knobs)

    def get(self, entity_id: EntityId) -> Knob:
        """The knob registered for ``entity_id``; UnknownKnobError if none."""
        try:
            return self._knobs[entity_id]
        except KeyError:
            raise UnknownKnobError(
                f"no knob registered for {entity_id} on island {self.island_name!r}"
            ) from None

    def describe(self, entity_id: EntityId) -> dict[str, Any]:
        """Introspectable description of one knob (capability discovery)."""
        knob = self.get(entity_id)
        lease = self._leases.get(entity_id)
        return {
            "island": self.island_name,
            "kind": knob.kind,
            "unit": knob.unit,
            "value": knob.read(),
            "minimum": knob.minimum,
            "maximum": knob.maximum,
            "step": knob.step,
            "supports_trigger": knob.supports_trigger,
            "active_leases": lease.level if lease is not None else 0,
        }

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """All knobs' descriptions, keyed by stringified entity id."""
        return {str(eid): self.describe(eid) for eid in self._knobs}

    # -- audit --------------------------------------------------------------

    def _record(
        self,
        entity_id: EntityId,
        knob_kind: str,
        op: str,
        outcome: str,
        requested_delta: Optional[float] = None,
        requested_value: Optional[float] = None,
        previous_value: Optional[float] = None,
        applied_value: Optional[float] = None,
        reason: str = "",
        span: Optional[Any] = None,
    ) -> ActuationRecord:
        record = ActuationRecord(
            seq=self._seq,
            time=self.sim.now,
            island=self.island_name,
            entity=str(entity_id),
            kind=knob_kind,
            op=op,
            requested_delta=requested_delta,
            requested_value=requested_value,
            previous_value=previous_value,
            applied_value=applied_value,
            outcome=outcome,
            reason=reason,
            span=span,
        )
        self._seq += 1
        self.audit.append(record)
        self._last[entity_id] = record
        if len(self.audit) > AUDIT_LIMIT:
            del self.audit[: len(self.audit) - AUDIT_LIMIT]
        return record

    def last_actuation(self, entity_id: EntityId) -> Optional[ActuationRecord]:
        """The most recent audit record touching ``entity_id`` (None if
        the entity was never actuated). Governors use this to detect a
        same-instant actuation by a racing peer before stepping a shared
        knob like the DVFS ladder."""
        return self._last.get(entity_id)

    def _emit_span_applied(self, span: Any, record: ActuationRecord) -> None:
        """Close a causal span at its actuation (t5 of the control loop).

        ``merged_from`` carries the span ids this actuation additionally
        realised through Tune coalescing, so the collector can complete
        absorbed loops from the surviving span's apply event alone.
        """
        self.tracer.emit(
            self.island_name, "span-applied", trace=span.trace_id,
            span=span.span_id, entity=record.entity, op=record.op,
            outcome=record.outcome, merged_from=span.merged_from,
        )

    def _fault_reject(
        self,
        entity_id: EntityId,
        knob: Knob,
        op: str,
        requested_delta: Optional[float] = None,
        span: Optional[Any] = None,
    ) -> ActuationRecord:
        """Audit a fault-injected actuation failure (never raises: the
        knob stays where it was, the caller keeps running, the audit and
        counters say what happened)."""
        previous = knob.read()
        self.actuations_failed += 1
        record = self._record(
            entity_id, knob.kind, op, "failed",
            requested_delta=requested_delta, previous_value=previous,
            applied_value=previous, reason="fault-injected", span=span,
        )
        if self.tracer.wants("actuation-failed"):
            self.tracer.emit(
                self.island_name, "actuation-failed", entity=str(entity_id),
                knob=knob.kind, op=op,
            )
        if span is not None and self.tracer.wants("span-applied"):
            self._emit_span_applied(span, record)
        return record

    # -- the Tune mechanism --------------------------------------------------

    def tune(
        self, entity_id: EntityId, delta: float, span: Optional[Any] = None
    ) -> ActuationRecord:
        """Apply a relative adjustment through the entity's knob.

        ``delta`` is in coordination units; the knob's ``step`` scales it
        to native units. The target is clamped into the knob's bounds and
        handed to ``apply``, whose return value (possibly clamped further)
        is what the audit reports as applied. ``span`` is the causal span
        of the remote decision, stamped onto the audit record.
        """
        knob = self.get(entity_id)
        if self.fault_gate is not None and self.fault_gate(entity_id, "tune"):
            return self._fault_reject(entity_id, knob, "tune",
                                      requested_delta=delta, span=span)
        previous = knob.read()
        if delta == 0:
            # Zero-delta Tunes are audited no-ops: nothing is applied, so
            # native side effects (hypercall cost, rebalances) are skipped.
            record = self._record(
                entity_id, knob.kind, "tune", "applied",
                requested_delta=0, requested_value=previous,
                previous_value=previous, applied_value=previous,
                reason="zero-delta", span=span,
            )
            if self.tracer.wants("tune-applied"):
                self.tracer.emit(
                    self.island_name, "tune-applied", entity=str(entity_id),
                    knob=knob.kind, delta=0, applied=previous,
                )
            if span is not None and self.tracer.wants("span-applied"):
                self._emit_span_applied(span, record)
            self.tunes_applied += 1
            return record
        requested = previous + delta * knob.step
        target = knob.clamp(requested)
        applied = knob.apply(target)
        if applied is None:  # tolerate apply callbacks with no return
            applied = knob.read()
        lease = self._leases.get(entity_id)
        if lease is not None and lease.level > 0:
            # A Tune landing while a boost lease is held must survive the
            # lease: rebase the captured original (and thus every stacked
            # re-derivation at release time) by the same delta, clamped
            # independently. Without this, expiry restored the pre-lease
            # value and silently undid the Tune — the stale-restore bug.
            lease.original = knob.clamp(lease.original + delta * knob.step)
        clamped = applied != requested
        outcome = "clamped" if clamped else "applied"
        record = self._record(
            entity_id, knob.kind, "tune", outcome,
            requested_delta=delta, requested_value=requested,
            previous_value=previous, applied_value=applied,
            reason="bounds" if clamped else "", span=span,
        )
        self.tunes_applied += 1
        if clamped:
            self.tunes_clamped += 1
        if self.tracer.wants("tune-applied"):
            self.tracer.emit(
                self.island_name, "tune-applied", entity=str(entity_id),
                knob=knob.kind, delta=delta, requested=requested, applied=applied,
            )
        if clamped and self.tracer.wants("tune-clamped"):
            self.tracer.emit(
                self.island_name, "tune-clamped", entity=str(entity_id),
                knob=knob.kind, requested=requested, applied=applied,
            )
        if span is not None and self.tracer.wants("span-applied"):
            self._emit_span_applied(span, record)
        return record

    # -- the Trigger mechanism (leases) ---------------------------------------

    def trigger(
        self, entity_id: EntityId, span: Optional[Any] = None
    ) -> ActuationRecord:
        """Fire the entity's trigger: a pulse, or one more lease level.

        Raises :class:`UnsupportedTriggerError` when the knob exists but
        has no trigger capability — callers (the coordination agent) count
        that and keep the simulation running. ``span`` is the causal span
        of the remote decision; for lease triggers it is held with the
        lease level so the eventual restore is attributed back to it.
        """
        knob = self.get(entity_id)
        if self.fault_gate is not None and self.fault_gate(entity_id, "trigger"):
            return self._fault_reject(entity_id, knob, "trigger", span=span)
        spec = knob.trigger
        if spec is None:
            self.unsupported_triggers += 1
            record = self._record(
                entity_id, knob.kind, "trigger", "rejected",
                reason="knob has no trigger capability", span=span,
            )
            if self.tracer.wants("unsupported-trigger"):
                self.tracer.emit(
                    self.island_name, "unsupported-trigger",
                    entity=str(entity_id), knob=knob.kind,
                )
            if span is not None and self.tracer.wants("span-applied"):
                self._emit_span_applied(span, record)
            raise UnsupportedTriggerError(
                f"{entity_id} ({knob.kind}) on island {self.island_name!r} "
                "does not support Trigger"
            )
        if spec.pulse is not None:
            spec.pulse()
            record = self._record(entity_id, knob.kind, "trigger", "applied",
                                  reason="pulse", span=span)
            self.triggers_applied += 1
            if self.tracer.wants("trigger-applied"):
                self.tracer.emit(
                    self.island_name, "trigger-applied", entity=str(entity_id),
                    knob=knob.kind, flavour="pulse",
                )
            if span is not None and self.tracer.wants("span-applied"):
                self._emit_span_applied(span, record)
            return record
        # Lease flavour: stack one boost level with deterministic expiry.
        lease = self._leases.get(entity_id)
        if lease is None or lease.level == 0:
            lease = _LeaseState(original=knob.read())
            self._leases[entity_id] = lease
        previous = knob.read()
        lease.level += 1
        lease.spans.append(span)
        boosted = spec.boost(previous)
        applied = knob.apply(boosted)
        if applied is None:
            applied = knob.read()
        record = self._record(
            entity_id, knob.kind, "trigger", "applied",
            previous_value=previous, requested_value=boosted,
            applied_value=applied, reason=f"lease level {lease.level}",
            span=span,
        )
        self.triggers_applied += 1
        if self.tracer.wants("trigger-applied"):
            self.tracer.emit(
                self.island_name, "trigger-applied", entity=str(entity_id),
                knob=knob.kind, flavour="lease", level=lease.level,
            )
        if span is not None and self.tracer.wants("span-applied"):
            self._emit_span_applied(span, record)
        self.sim.call_in(spec.hold, lambda: self._release(entity_id, knob))
        return record

    def _release(self, entity_id: EntityId, knob: Knob) -> None:
        """Expire one lease level; the last release restores the original."""
        lease = self._leases.get(entity_id)
        if lease is None or lease.level == 0:
            return  # released out of band (e.g. knob retuned mid-lease)
        lease.level -= 1
        # Expiry timers fire in acquisition order: the oldest held span is
        # the one whose hold just ran out.
        span = lease.spans.pop(0) if lease.spans else None
        previous = knob.read()
        if lease.level == 0:
            target = lease.original
        else:
            # Recompute the remaining boost from the true original so
            # stacked releases peel back to exactly the pre-trigger value.
            target = lease.original
            for _ in range(lease.level):
                target = knob.trigger.boost(target)
        applied = knob.apply(target)
        if applied is None:
            applied = knob.read()
        self._record(
            entity_id, knob.kind, "trigger-release", "applied",
            previous_value=previous, requested_value=target,
            applied_value=applied, reason=f"lease level {lease.level}",
            span=span,
        )
        if self.tracer.wants("trigger-released"):
            self.tracer.emit(
                self.island_name, "trigger-released", entity=str(entity_id),
                knob=knob.kind, level=lease.level,
            )
        if span is not None and self.tracer.wants("span-restored"):
            self.tracer.emit(
                self.island_name, "span-restored", trace=span.trace_id,
                span=span.span_id, entity=str(entity_id), level=lease.level,
            )

    def active_leases(self, entity_id: EntityId) -> int:
        """Currently-held boost levels on one entity (0 when idle)."""
        lease = self._leases.get(entity_id)
        return lease.level if lease is not None else 0

    def outstanding_leases(self) -> int:
        """Total held boost levels across every entity. Zero after every
        hold has expired — the chaos experiment's stuck-lease gauge."""
        return sum(lease.level for lease in self._leases.values())

    # -- degraded-mode fallback -----------------------------------------------

    def revert(
        self,
        entity_id: EntityId,
        value: float,
        reason: str = "",
        span: Optional[Any] = None,
    ) -> ActuationRecord:
        """Restore a knob to a declared baseline ``value`` (absolute set).

        The degradation contract of the fault domain: when a peer goes
        DOWN — or an epoch boundary is crossed — every entity it steered
        snaps back to its declared local baseline. Entities with an
        active boost lease are *deferred*, not forced: the lease's TTL
        expiry restores the true pre-trigger original (which is the
        baseline), and forcing the value now would corrupt the lease's
        captured original. A knob already at baseline is audited but not
        re-applied, so repeated reverts have no native side effects.
        """
        knob = self.get(entity_id)
        previous = knob.read()
        lease = self._leases.get(entity_id)
        if lease is not None and lease.level > 0:
            record = self._record(
                entity_id, knob.kind, "revert", "deferred",
                requested_value=value, previous_value=previous,
                applied_value=previous,
                reason="lease held; TTL expiry restores the original",
                span=span,
            )
            if self.tracer.wants("lease-revert-deferred"):
                self.tracer.emit(
                    self.island_name, "lease-revert-deferred",
                    entity=str(entity_id), level=lease.level,
                )
            return record
        target = knob.clamp(value)
        if target == previous:
            applied = previous
        else:
            applied = knob.apply(target)
            if applied is None:
                applied = knob.read()
            self.reverts_applied += 1
        record = self._record(
            entity_id, knob.kind, "revert", "applied",
            requested_value=value, previous_value=previous,
            applied_value=applied, reason=reason, span=span,
        )
        if target != previous and self.tracer.wants("baseline-reverted"):
            self.tracer.emit(
                self.island_name, "baseline-reverted", entity=str(entity_id),
                knob=knob.kind, previous=previous, baseline=applied,
            )
        return record

    def stats(self) -> dict[str, int]:
        """Actuation counters (mirrors channel ``stats()`` idiom)."""
        return {
            "knobs": len(self._knobs),
            "tunes_applied": self.tunes_applied,
            "tunes_clamped": self.tunes_clamped,
            "triggers_applied": self.triggers_applied,
            "unsupported_triggers": self.unsupported_triggers,
            "reverts_applied": self.reverts_applied,
            "actuations_failed": self.actuations_failed,
        }

    def __len__(self) -> int:
        return len(self._knobs)

    def __repr__(self) -> str:
        return (
            f"<KnobRegistry {self.island_name!r} knobs={len(self._knobs)} "
            f"tunes={self.tunes_applied} triggers={self.triggers_applied}>"
        )


# -- common knob constructors ---------------------------------------------


def weight_knob(
    kind: str,
    unit: str,
    read: Callable[[], float],
    apply: Callable[[float], float],
    minimum: float = 1,
    maximum: Optional[float] = None,
    trigger: Optional[TriggerSpec] = None,
) -> Knob:
    """A share/weight-style knob (floor of 1 unless stated otherwise)."""
    return Knob(
        kind=kind, unit=unit, read=read, apply=apply,
        minimum=minimum, maximum=maximum, trigger=trigger,
    )
