"""Virtual machines (Xen domains) on the x86 island.

A :class:`VirtualMachine` owns a guest kernel (its work queue and
accounting) and one or more VCPUs. Application models interact with a VM
exclusively through :meth:`execute` (burn CPU), :meth:`io_wait` (account
blocking on I/O), and the network interface attached by the island.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..sim import Event, Simulator
from .guest import GuestKernel, WorkItem
from .vcpu import VCPU, VCPUState

if TYPE_CHECKING:  # pragma: no cover
    from .credit import CreditScheduler


class VirtualMachine:
    """A Xen domain: guest kernel + VCPUs + scheduling weight."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        weight: int = 256,
        num_vcpus: int = 1,
    ):
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        if num_vcpus <= 0:
            raise ValueError(f"num_vcpus must be positive, got {num_vcpus}")
        self.sim = sim
        self.name = name
        self.weight = weight
        #: Optional utilisation cap in percent of one core (0 = uncapped),
        #: matching Xen's ``cap`` knob. Enforced by the scheduler.
        self.cap_percent = 0
        #: Optional hook returning a service-time multiplier applied to
        #: submitted CPU demands (installed by
        #: :class:`~repro.x86.llc.MemorySystem` to model cache and
        #: bandwidth contention).
        self.demand_inflation = None
        self.guest = GuestKernel(sim, name)
        self.vcpus = [VCPU(self, i) for i in range(num_vcpus)]
        self._scheduler: Optional["CreditScheduler"] = None

    # -- wiring ------------------------------------------------------------

    def attach_scheduler(self, scheduler: "CreditScheduler") -> None:
        """Called by the scheduler when the domain is admitted."""
        self._scheduler = scheduler
        self.guest.on_work_available = self._work_arrived

    def _work_arrived(self) -> None:
        if self._scheduler is None:
            raise RuntimeError(f"VM {self.name!r} received work before being scheduled")
        # Wake only as many VCPUs as there are unclaimed items: a single
        # serial workload (one kernel thread) must occupy one VCPU, not
        # keep every VCPU of the domain hot. The items are counted only
        # once a blocked VCPU turns up; most arrivals find none.
        needed = None
        for vcpu in self.vcpus:
            if vcpu.state is VCPUState.BLOCKED:
                if needed is None:
                    needed = sum(1 for item in self.guest._items if item.owner is None)
                if needed <= 0:
                    break
                self._scheduler.wake(vcpu)
                needed -= 1

    # -- API used by application models --------------------------------------

    def execute(self, demand: int, kind: str = "user") -> Event:
        """Queue ``demand`` ns of CPU work; the event fires when served."""
        return self.submit(demand, kind).done

    def submit(self, demand: int, kind: str = "user") -> WorkItem:
        """Like :meth:`execute` but returns the full work item."""
        if self.demand_inflation is not None:
            demand = round(demand * self.demand_inflation())
        return self.guest.submit(demand, kind)

    def io_wait(self, event: Event) -> Generator:
        """Wait for ``event`` while accounting the time as guest iowait.

        Use as ``result = yield from vm.io_wait(some_event)``.
        """
        self.guest.io_begin()
        try:
            result = yield event
        finally:
            self.guest.io_end()
        return result

    # -- metrics --------------------------------------------------------------

    @property
    def accounting(self):
        """Guest time accounting (user/sys/iowait/steal counters)."""
        return self.guest.accounting

    def cpu_time(self) -> int:
        """Total CPU time consumed across all VCPUs."""
        return sum(v.runtime for v in self.vcpus)

    def __repr__(self) -> str:
        return f"<VM {self.name} weight={self.weight} vcpus={len(self.vcpus)}>"
