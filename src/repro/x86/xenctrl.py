"""XenCtrl: the Dom0 user-space tuning utility (paper §2.2).

"The controller domain hosts a user-space utility 'XenCtrl interface' to
tune the credit scheduler behavior and adjust processor allocation to
individual guest VMs." Applying an adjustment costs Dom0 a little system
CPU (the hypercall + tool overhead), which matters because coordination
actions compete with the packet-relay work Dom0 also performs.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator, Tracer, us
from .credit import CreditScheduler
from .vm import VirtualMachine

#: CPU cost charged to Dom0 per tuning operation (tool + hypercall).
TUNE_CPU_COST = us(30)

#: Weight clamp range; Xen accepts 1..65535 but sane configs stay narrower.
MIN_WEIGHT = 16
MAX_WEIGHT = 4096


class XenCtl:
    """Weight/cap/boost control interface running inside Dom0."""

    def __init__(
        self,
        sim: Simulator,
        scheduler: CreditScheduler,
        dom0: Optional[VirtualMachine] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.scheduler = scheduler
        self.dom0 = dom0
        self.tracer = tracer or Tracer(sim, enabled=False)

    def _charge_dom0(self) -> None:
        if self.dom0 is not None:
            self.dom0.submit(TUNE_CPU_COST, kind="sys")

    def set_weight(self, vm: VirtualMachine, weight: int) -> int:
        """Set a domain's weight (clamped); returns the applied value."""
        applied = max(MIN_WEIGHT, min(MAX_WEIGHT, weight))
        self._charge_dom0()
        self.scheduler.set_weight(vm, applied)
        self.tracer.emit("xenctl", "set-weight", vm=vm.name, weight=applied)
        return applied

    def set_cap(self, vm: VirtualMachine, cap_percent: int) -> None:
        """Set a domain's CPU cap in percent of one core (0 = uncapped)."""
        self._charge_dom0()
        self.scheduler.set_cap(vm, cap_percent)

    def boost(self, vm: VirtualMachine) -> None:
        """Runqueue-boost a domain (the Trigger translation)."""
        self._charge_dom0()
        self.scheduler.boost(vm)
