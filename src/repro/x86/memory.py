"""Guest memory: working sets, paging pressure, and the balloon driver.

The paper's future work (§5) names memory among the resources whose
coordination policies it wants to explore. The model: each domain has a
*working set*; when its balloon-adjusted allocation falls below it, the
guest pages, inflating every CPU burst by a pressure factor (page-fault
handling and I/O stalls folded into service time — the standard queueing
abstraction of thrashing).

The balloon driver is the Tune translation target: a ``mem:<vm>`` entity
whose +/- delta moves megabytes between domains, subject to the host's
physical total.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import PeriodicTask, Simulator, Tracer
from .vm import VirtualMachine


@dataclass(frozen=True, slots=True)
class PagingModel:
    """How allocation deficits inflate CPU service times."""

    #: Service-time multiplier slope per unit of working-set deficit: at
    #: allocation = 50% of the working set, bursts take 1 + 0.5*slope
    #: times as long.
    slope: float = 4.0
    #: Upper bound on inflation (fully-thrashing guest).
    max_factor: float = 6.0

    def factor(self, working_set_mb: float, allocated_mb: float) -> float:
        """Service-time multiplier for the given allocation."""
        if working_set_mb <= 0:
            return 1.0
        if allocated_mb <= 0:
            return self.max_factor
        deficit = max(0.0, working_set_mb - allocated_mb) / working_set_mb
        return min(self.max_factor, 1.0 + self.slope * deficit)


class BalloonDriver:
    """Moves memory between domains under a fixed physical total."""

    def __init__(
        self,
        sim: Simulator,
        total_mb: int,
        paging: Optional[PagingModel] = None,
        min_allocation_mb: int = 64,
        tracer: Optional[Tracer] = None,
    ):
        if total_mb <= 0:
            raise ValueError("total memory must be positive")
        self.sim = sim
        self.total_mb = total_mb
        self.paging = paging or PagingModel()
        self.min_allocation_mb = min_allocation_mb
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._vms: dict[str, VirtualMachine] = {}
        self.adjustments = 0

    # -- membership -----------------------------------------------------------

    def manage(self, vm: VirtualMachine, working_set_mb: Optional[int] = None) -> None:
        """Put a domain under balloon management.

        Its current ``memory_mb`` becomes the starting allocation; the
        working set defaults to that value (no initial pressure).
        """
        if vm.name in self._vms:
            raise ValueError(f"domain {vm.name!r} already ballooned")
        if self.allocated_total() + vm.memory_mb > self.total_mb:
            raise ValueError("initial allocations exceed physical memory")
        self._vms[vm.name] = vm
        vm.working_set_mb = working_set_mb if working_set_mb is not None else vm.memory_mb
        vm.demand_inflation = self._make_inflation(vm)

    def _make_inflation(self, vm: VirtualMachine):
        def inflation() -> float:
            return self.paging.factor(vm.working_set_mb, vm.memory_mb)

        return inflation

    def allocated_total(self) -> int:
        """Megabytes currently allocated to managed domains."""
        return sum(vm.memory_mb for vm in self._vms.values())

    @property
    def free_mb(self) -> int:
        """Unallocated physical memory."""
        return self.total_mb - self.allocated_total()

    # -- the Tune translation ---------------------------------------------------

    def adjust(self, vm_name: str, delta_mb: int) -> int:
        """Grow (or shrink) a domain's allocation; returns the new size.

        Growth is limited by free memory; shrink by the floor. This is
        what a ``Tune(mem:<vm>, +/-N)`` lands on.
        """
        vm = self._vms[vm_name]
        if delta_mb > 0:
            delta_mb = min(delta_mb, self.free_mb)
        new_size = max(self.min_allocation_mb, vm.memory_mb + delta_mb)
        applied = new_size - vm.memory_mb
        vm.memory_mb = new_size
        self.adjustments += 1
        self.tracer.emit("balloon", "adjust", vm=vm_name, delta=applied, size=new_size)
        return new_size

    def pressure(self, vm_name: str) -> float:
        """Current service-time inflation factor of a domain."""
        vm = self._vms[vm_name]
        return self.paging.factor(vm.working_set_mb, vm.memory_mb)


class MemoryBalancerPolicy:
    """Coordinated ballooning: give memory to whoever is thrashing.

    Periodically compares managed domains' pressure; moves a chunk from
    the least- to the most-pressured domain when the spread is large. A
    static-split baseline simply never runs this.
    """

    def __init__(
        self,
        sim: Simulator,
        balloon: BalloonDriver,
        period: int,
        chunk_mb: int = 32,
        threshold: float = 0.3,
    ):
        self.sim = sim
        self.balloon = balloon
        self.chunk_mb = chunk_mb
        self.threshold = threshold
        self.moves = 0
        self._task = PeriodicTask(sim, period, self._rebalance, name="memory-balancer")

    def _rebalance(self) -> None:
        vms = list(self.balloon._vms.values())
        if len(vms) < 2:
            return
        ranked = sorted(vms, key=lambda vm: self.balloon.pressure(vm.name))
        donor, taker = ranked[0], ranked[-1]
        spread = self.balloon.pressure(taker.name) - self.balloon.pressure(donor.name)
        if spread < self.threshold:
            return
        before = donor.memory_mb
        after = self.balloon.adjust(donor.name, -self.chunk_mb)
        freed = before - after
        if freed > 0:
            self.balloon.adjust(taker.name, freed)
            self.moves += 1
