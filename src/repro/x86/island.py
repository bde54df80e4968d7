"""The x86 scheduling island: Xen hypervisor + Dom0 + guest domains.

This is one of the two islands of the paper's prototype (§2.2): a multicore
x86 host virtualised with Xen, its resources managed by the credit
scheduler and the privileged controller domain Dom0. The island registers
a typed knob per entity, so the standard coordination mechanisms dispatch
into its native controls:

* **Tune(vm, ±delta)**        -> XenCtrl credit-weight adjustment;
* **Trigger(vm)**             -> runqueue boost (pulse);
* **Tune(disk:vm, ±delta)**   -> disk DRR weight;
* **Tune(disk, ±delta µs)**   -> I/O dispatcher poll interval;
* **Tune(dvfs, ±steps)**      -> platform DVFS ladder level;
* **Tune(llc:vm, ±ways)**     -> exclusive LLC way partition;
* **Tune(bw:vm, ±share)**     -> memory-bandwidth share;
* **Tune(prefetch:vm, ±pct)** -> prefetcher throttle.
"""

from __future__ import annotations

from typing import Optional

from ..platform import EntityId, Island, Knob, TriggerSpec, weight_knob
from ..sim import Simulator, Tracer
from .credit import CreditScheduler
from .diskio import DiskInterface, WeightedIOScheduler
from .llc import MAX_BW_SHARE, MemoryProfile, MemorySystem
from .params import X86Params
from .vm import VirtualMachine
from .xenctrl import MAX_WEIGHT, MIN_WEIGHT, XenCtl

#: Conventional name of the privileged controller domain.
DOM0_NAME = "Domain-0"

#: The platform DVFS ladder, slowest first (fractions of nominal speed).
DVFS_LADDER = (0.55, 0.7, 0.85, 1.0)


class X86Island(Island):
    """x86 cores under the Xen credit scheduler."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[X86Params] = None,
        name: str = "x86",
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(sim, name, tracer=tracer)
        self.params = params or X86Params()
        self.scheduler = CreditScheduler(
            sim, num_cpus=self.params.num_cpus, params=self.params.credit, tracer=self.tracer
        )
        # Dom0: unpinned, one VCPU per physical core (paper §3.1: "Dom0 ...
        # has unpinned VCPUs and can execute on all CPUs").
        self.dom0 = VirtualMachine(
            sim,
            DOM0_NAME,
            weight=self.params.dom0_weight,
            num_vcpus=self.params.num_cpus,
        )
        self.scheduler.add_domain(self.dom0)
        self.xenctl = XenCtl(sim, self.scheduler, dom0=self.dom0, tracer=self.tracer)
        self._vms: dict[str, VirtualMachine] = {DOM0_NAME: self.dom0}
        #: Authoritative DVFS ladder index. The knob's read used to infer
        #: it by nearest-match on core 0's current speed, which drifted
        #: after out-of-band ``set_cpu_speed`` calls or mid-ladder speeds
        #: (an apply(read()) round-trip was not a no-op). The island now
        #: owns the index; ``apply`` is the only thing that moves it.
        self._dvfs_index = len(DVFS_LADDER) - 1
        # The all-core DVFS ladder is a platform knob from birth: power
        # governors Tune it (±1 = one ladder step) like any other actuator.
        self.register_entity(
            EntityId(self.name, "dvfs"),
            knob=Knob(
                kind="dvfs-level",
                unit="ladder-index",
                read=self._dvfs_level,
                apply=self._set_dvfs_level,
                minimum=0,
                maximum=len(DVFS_LADDER) - 1,
                trigger=TriggerSpec(pulse=self._dvfs_to_nominal),
            ),
        )

    # -- DVFS (all cores stepped together) ----------------------------------

    def _dvfs_level(self) -> int:
        """Current ladder index (authoritative; all cores step together)."""
        return self._dvfs_index

    def _set_dvfs_level(self, level: float) -> int:
        index = max(0, min(len(DVFS_LADDER) - 1, int(round(level))))
        speed = DVFS_LADDER[index]
        for cpu in self.scheduler.cpus:
            self.scheduler.set_cpu_speed(cpu.index, speed)
        self._dvfs_index = index
        return index

    def _dvfs_to_nominal(self) -> None:
        """Trigger translation: jump every core to nominal frequency."""
        self._set_dvfs_level(len(DVFS_LADDER) - 1)

    # -- domain lifecycle ---------------------------------------------------

    def create_vm(
        self, name: str, weight: Optional[int] = None, num_vcpus: int = 1
    ) -> VirtualMachine:
        """Boot a guest domain and register it for coordination."""
        if name in self._vms:
            raise ValueError(f"domain {name!r} already exists")
        vm = VirtualMachine(
            self.sim,
            name,
            weight=weight if weight is not None else self.params.credit.default_weight,
            num_vcpus=num_vcpus,
        )
        self.scheduler.add_domain(vm)
        self._vms[name] = vm
        self.register_entity(
            EntityId(self.name, name),
            knob=Knob(
                kind="credit-weight",
                unit="credits",
                read=lambda vm=vm: vm.weight,
                apply=lambda value, vm=vm: self.xenctl.set_weight(vm, int(value)),
                minimum=MIN_WEIGHT,
                maximum=MAX_WEIGHT,
                trigger=TriggerSpec(pulse=lambda vm=vm: self.xenctl.boost(vm)),
            ),
        )
        self.tracer.emit(self.name, "vm-created", vm=name, weight=vm.weight)
        return vm

    def vm(self, name: str) -> VirtualMachine:
        """Look up a domain by name (including Dom0)."""
        return self._vms[name]

    def vms(self) -> list[VirtualMachine]:
        """All domains, Dom0 first."""
        return list(self._vms.values())

    def guest_vms(self) -> list[VirtualMachine]:
        """All domains except Dom0."""
        return [vm for name, vm in self._vms.items() if name != DOM0_NAME]

    # -- optional shared disk ----------------------------------------------

    def attach_disk(self, scheduler: WeightedIOScheduler) -> None:
        """Attach a :class:`~repro.x86.diskio.WeightedIOScheduler`.

        Per-VM I/O queues created afterwards register as tunable entities
        (``disk:<vm>``); the scheduler itself registers as ``disk``, whose
        Tune delta adjusts the dispatcher's poll interval in microseconds
        — literally the paper's "poll time adjustments in an I/O
        scheduler" (§3.3).
        """
        self.disk = scheduler
        self.register_entity(
            EntityId(self.name, "disk"),
            knob=Knob(
                kind="io-poll-interval",
                unit="ns",
                read=lambda: scheduler.poll_interval,
                apply=self._apply_poll_interval,
                minimum=0,
                step=1000,  # Tune deltas are in microseconds
            ),
        )

    def _apply_poll_interval(self, value: float) -> int:
        interval = max(0, int(value))
        self.disk.set_poll_interval(interval)
        return interval

    def create_disk_interface(self, vm: VirtualMachine, weight: int = 100) -> DiskInterface:
        """Give a domain a queue on the shared disk (requires attach_disk)."""
        if getattr(self, "disk", None) is None:
            raise RuntimeError("no disk attached to this island")
        interface = DiskInterface(self.disk, vm, weight=weight)
        queue = interface.queue
        self.register_entity(
            EntityId(self.name, f"disk:{vm.name}"),
            knob=weight_knob(
                kind="io-weight",
                unit="share",
                read=lambda queue=queue: queue.weight,
                apply=lambda value, name=vm.name: self.disk.set_weight(name, int(value)),
            ),
        )
        return interface

    # -- optional shared LLC + memory bandwidth --------------------------------

    def attach_memory_system(self, system: MemorySystem) -> None:
        """Attach a :class:`~repro.x86.llc.MemorySystem` (shared LLC +
        bandwidth pipe). The system reads the island's DVFS speed so that
        memory stalls stay frequency-invariant in wall time."""
        self.memory_system = system
        system.bind_speed(lambda: self.scheduler.cpus[0].speed)

    def memory_manage(
        self,
        vm: VirtualMachine,
        profile: Optional[MemoryProfile] = None,
        ways: int = 4,
        bw_share: int = 100,
        prefetch_throttle: int = 0,
    ) -> None:
        """Put a domain under the shared memory model and expose its three
        uncore controls as typed knobs:

        * ``llc:<vm>``      — exclusive LLC way partition (``llc-ways``);
        * ``bw:<vm>``       — relative bandwidth share (``bw-share``);
        * ``prefetch:<vm>`` — prefetcher throttle percent
          (``prefetch-throttle``).
        """
        system = getattr(self, "memory_system", None)
        if system is None:
            raise RuntimeError("no memory system attached to this island")
        system.manage(
            vm,
            profile,
            ways=ways,
            bw_share=bw_share,
            prefetch_throttle=prefetch_throttle,
        )
        name = vm.name
        self.register_entity(
            EntityId(self.name, f"llc:{name}"),
            knob=Knob(
                kind="llc-ways",
                unit="ways",
                read=lambda name=name: system.ways(name),
                apply=lambda value, name=name: system.set_ways(name, int(value)),
                minimum=1,
                maximum=system.params.total_ways,
            ),
        )
        self.register_entity(
            EntityId(self.name, f"bw:{name}"),
            knob=Knob(
                kind="bw-share",
                unit="share",
                read=lambda name=name: system.bw_share(name),
                apply=lambda value, name=name: system.set_bw_share(name, int(value)),
                minimum=1,
                maximum=MAX_BW_SHARE,
            ),
        )
        self.register_entity(
            EntityId(self.name, f"prefetch:{name}"),
            knob=Knob(
                kind="prefetch-throttle",
                unit="percent",
                read=lambda name=name: system.prefetch_throttle(name),
                apply=lambda value, name=name: system.set_prefetch_throttle(
                    name, int(value)
                ),
                minimum=0,
                maximum=100,
            ),
        )
        self.tracer.emit(
            self.name, "memory-managed", vm=name,
            ways=system.ways(name), bw_share=system.bw_share(name),
        )
