"""The scheduling-island abstraction.

An *island* is a set of resources under the control of a single resource
manager (paper §1). The coordination layer only ever talks to this
interface, so policies are written once and work against any island type —
the "standard mechanisms and interfaces" the paper argues for. An island's
coordination entities are the entities of its knob registry: registering
one means registering its typed knob.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..sim import Simulator, Tracer
from .identity import EntityId
from .knobs import ActuationRecord, Knob, KnobRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .directory import Directory


class Island:
    """A resource domain with its own manager and native control knobs.

    Concrete islands (x86/Xen, IXP) register a typed
    :class:`~repro.platform.knobs.Knob` per coordination entity; the two
    standard mechanisms — Tune and Trigger — dispatch over that registry
    into whatever the local scheduler understands: credit-weight
    adjustments for Xen, service weights and poll intervals for the IXP
    runtime (paper §3.3). Subclasses with
    non-knob semantics may still override :meth:`apply_tune` /
    :meth:`apply_trigger` directly.
    """

    def __init__(self, sim: Simulator, name: str, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.name = name
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._controller: Optional["Directory"] = None
        #: The typed actuator table every Tune/Trigger dispatches over.
        self.knobs = KnobRegistry(sim, name, tracer=self.tracer)

    # -- registration (paper §2.3) ----------------------------------------

    def attach_controller(self, controller: "Directory") -> None:
        """Called by the global controller when this island registers."""
        self._controller = controller

    @property
    def controller(self) -> Optional["Directory"]:
        """The global controller, once registered."""
        return self._controller

    def register_entity(self, entity_id: EntityId, knob: Knob) -> None:
        """Expose an entity (a VM, flow queue, ...) to coordination through
        its typed ``knob``, which Tunes and Triggers addressed to it
        dispatch over. A second registration of ``entity_id`` raises
        ``ValueError``."""
        self.knobs.register(entity_id, knob)
        if self._controller is not None:
            self._controller.note_entity(self, entity_id)

    def has_entity(self, entity_id: EntityId) -> bool:
        """Whether ``entity_id`` is registered on this island."""
        return self.knobs.has(entity_id)

    # -- the two standard coordination mechanisms -------------------------

    def apply_tune(
        self, entity_id: EntityId, delta: int, span: Optional[object] = None
    ) -> ActuationRecord:
        """Adjust the entity's resource share by ``delta`` (native units).

        This is the receive side of the paper's **Tune** mechanism: a
        ``(entity, +/- value)`` pair dispatched through the entity's typed
        knob, which scales, clamps and applies it in the local scheduler's
        native units. ``span`` is the remote decision's causal span (see
        :mod:`repro.obs`), forwarded to the actuation audit.
        """
        return self.knobs.tune(entity_id, delta, span=span)

    def apply_trigger(
        self, entity_id: EntityId, span: Optional[object] = None
    ) -> ActuationRecord:
        """Give the entity CPU (or equivalent) as soon as possible.

        Receive side of the paper's **Trigger** mechanism, with preemptive
        semantics: either a native pulse (e.g. a runqueue boost in the Xen
        credit scheduler) or a refcounted boost lease with deterministic
        expiry. Raises
        :class:`~repro.platform.knobs.UnsupportedTriggerError` when the
        entity's knob has no trigger capability.
        """
        return self.knobs.trigger(entity_id, span=span)

    def __repr__(self) -> str:
        return f"<{self.__class__.__name__} {self.name!r} entities={len(self.knobs)}>"
