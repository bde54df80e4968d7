"""The GPU scheduling island.

A third island type, proving the coordination interface's generality: the
paper's §1 names "an island with x86 vs. GPU cores" as an island boundary
and cites GViM-style co-scheduling gains as motivating evidence. The GPU's
resource manager is the device runlist; its Tune translation is context
weight, its Trigger translation is a runlist jump.
"""

from __future__ import annotations

from typing import Optional

from ..platform import EntityId, Island, TriggerSpec, weight_knob
from ..sim import Simulator, Tracer
from .device import GpuContext, GpuDevice


class GPUIsland(Island):
    """GPU cores under the device runlist scheduler.

    Tune dispatches through a runlist-weight knob; Trigger is a pulse —
    the context's next kernel jumps the runlist.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "gpu",
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(sim, name, tracer=tracer)
        self.device = GpuDevice(sim, name=f"{name}-dev", tracer=self.tracer)

    def create_context(self, vm_name: str, weight: int = 100) -> GpuContext:
        """Create a VM's context and register it for coordination."""
        context = self.device.create_context(vm_name, weight)
        self.register_entity(
            EntityId(self.name, vm_name),
            knob=weight_knob(
                kind="runlist-weight",
                unit="share",
                read=lambda context=context: context.weight,
                apply=lambda value, name=vm_name: self.device.set_weight(name, int(value)),
                trigger=TriggerSpec(
                    pulse=lambda name=vm_name: self.device.prioritize(name)
                ),
            ),
        )
        return context
