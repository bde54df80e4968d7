"""The Xen credit scheduler (csched), reimplemented over the DES kernel.

This follows the algorithm of Xen 3.x as described by Cherkasova et al.
("Comparison of the three CPU schedulers in Xen") and the Xen source:

* each domain has a *weight*; every 30 ms accounting period a system-wide
  pool of credits (300 per physical CPU) is divided among active domains in
  proportion to weight;
* every 10 ms tick the running VCPU is debited 100 credits; VCPUs with
  non-negative credits are UNDER, others OVER, and run queues are served
  UNDER before OVER;
* a VCPU that wakes with credits enters the transient BOOST band and may
  preempt the running VCPU — this is the latency mechanism the paper's
  **Trigger** coordination piggybacks on;
* a VCPU runs for at most a 30 ms time slice, then returns to the tail of
  its priority band; idle cores steal runnable VCPUs from busy ones.

The scheduler exposes exactly the knobs Dom0's XenCtrl uses: per-domain
weight and cap, plus :meth:`boost` for trigger semantics.
"""

from __future__ import annotations

import math
from typing import Optional

from ..sim import Interrupt, PeriodicTask, Simulator, Tracer
from .cpu import PhysicalCPU
from .params import CreditParams
from .vcpu import VCPU, Priority, VCPUState
from .vm import VirtualMachine


class CreditScheduler:
    """SMP credit scheduler multiplexing domain VCPUs onto physical cores."""

    def __init__(
        self,
        sim: Simulator,
        num_cpus: int = 2,
        params: Optional[CreditParams] = None,
        tracer: Optional[Tracer] = None,
    ):
        if num_cpus <= 0:
            raise ValueError(f"num_cpus must be positive, got {num_cpus}")
        self.sim = sim
        self.params = params or CreditParams()
        self.tracer = tracer or Tracer(sim, enabled=False)
        self.cpus = [PhysicalCPU(sim, i) for i in range(num_cpus)]
        self.domains: list[VirtualMachine] = []
        self._cap_used: dict[str, int] = {}
        self._consumed_at_last_accounting: dict[str, int] = {}
        #: VCPUs currently *active* in Xen's sense: consuming their credit
        #: grants. Only active VCPUs take part in credit distribution, so
        #: mostly-idle domains (Dom0 off-peak, an idle tier) do not waste
        #: their weight share — the crucial work-conserving property of
        #: csched_acct.
        self._active_vcpus: set[VCPU] = set()
        for cpu in self.cpus:
            cpu.loop = sim.spawn(self._cpu_loop(cpu), name=f"cpu{cpu.index}-loop")
        self._tick_task = PeriodicTask(
            sim, self.params.tick_period, self._on_tick, name="csched-tick"
        )
        self._accounting_task = PeriodicTask(
            sim, self.params.accounting_period, self._do_accounting, name="csched-accounting"
        )

    # -- domain management ----------------------------------------------------

    def add_domain(self, vm: VirtualMachine) -> None:
        """Admit a domain; its VCPUs start blocked until work arrives."""
        if vm in self.domains:
            raise ValueError(f"domain {vm.name!r} already added")
        self.domains.append(vm)
        self._cap_used[vm.name] = 0
        self._consumed_at_last_accounting[vm.name] = 0
        vm.attach_scheduler(self)

    def set_weight(self, vm: VirtualMachine, weight: int) -> None:
        """Set a domain's weight (takes effect at the next accounting)."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.tracer.emit("csched", "set-weight", vm=vm.name, old=vm.weight, new=weight)
        vm.weight = weight

    def set_cap(self, vm: VirtualMachine, cap_percent: int) -> None:
        """Set a domain's utilisation cap in percent of one core (0 = none)."""
        if cap_percent < 0:
            raise ValueError(f"cap must be non-negative, got {cap_percent}")
        vm.cap_percent = cap_percent

    def set_cpu_speed(self, cpu_index: int, speed: float) -> None:
        """Change a core's DVFS speed factor (1.0 = nominal frequency).

        The running VCPU (if any) is preempted so its in-flight burst is
        re-timed at the new speed — the scheduling disturbance a real DVFS
        transition also causes.
        """
        if not 0.05 <= speed <= 1.0:
            raise ValueError(f"speed must be in [0.05, 1.0], got {speed}")
        cpu = self.cpus[cpu_index]
        if cpu.speed == speed:
            return
        cpu.speed = speed
        if cpu.current is not None:
            self._preempt(cpu)

    # -- the Trigger hook -------------------------------------------------------

    def boost(self, vm: VirtualMachine) -> None:
        """Move the domain's VCPUs to the BOOST band immediately.

        This realises the paper's **Trigger** mechanism: "boost the
        dequeuing guest VM's position in the runqueue". Blocked VCPUs are
        marked so their next wake boosts even if they are out of credits.
        """
        for vcpu in vm.vcpus:
            if vcpu.boosted:
                continue
            vcpu.boosted = True
            if vcpu.state is VCPUState.RUNNABLE:
                cpu = self._cpu_holding(vcpu)
                if cpu is not None:
                    cpu.run_queue.remove(vcpu)
                    self._enqueue(cpu, vcpu, at_head=True)
        self.tracer.emit("csched", "boost", vm=vm.name)

    # -- wake path ---------------------------------------------------------------

    def wake(self, vcpu: VCPU) -> None:
        """Make a blocked VCPU runnable (no-op otherwise)."""
        if vcpu.state is not VCPUState.BLOCKED:
            return
        if not vcpu.vm.guest.has_unclaimed_work:
            return
        vcpu.state = VCPUState.RUNNABLE
        vcpu.runnable_since = self.sim.now
        if self.params.boost_enabled and vcpu.credits >= 0:
            vcpu.boosted = True
        cpu = self._pick_cpu(vcpu)
        self._enqueue(cpu, vcpu, at_head=False)

    # -- run-queue mechanics -------------------------------------------------------

    def _cpu_holding(self, vcpu: VCPU) -> Optional[PhysicalCPU]:
        for cpu in self.cpus:
            if vcpu in cpu.run_queue:
                return cpu
        return None

    def _pick_cpu(self, vcpu: VCPU) -> PhysicalCPU:
        """Choose a core for a waking VCPU: its old core if idle, else an
        idle core nobody is queued on, else the shortest queue.

        The empty-queue condition matters for simultaneous wakes: a core
        whose loop has not yet picked up a queued VCPU still *looks* idle,
        and naive placement would pile everyone onto it.
        """
        if (
            vcpu.cpu is not None
            and vcpu.cpu.is_idle
            and not vcpu.cpu.run_queue
            and vcpu.allowed_on(vcpu.cpu)
        ):
            return vcpu.cpu
        for cpu in self.cpus:
            if cpu.is_idle and not cpu.run_queue and vcpu.allowed_on(cpu):
                return cpu
        candidates = [c for c in self.cpus if vcpu.allowed_on(c)]
        if not candidates:
            raise RuntimeError(f"VCPU {vcpu.name} has empty affinity")
        return min(candidates, key=lambda c: len(c.run_queue))

    def _enqueue(self, cpu: PhysicalCPU, vcpu: VCPU, at_head: bool) -> None:
        """Insert by priority band (head or tail of the band) and maybe
        wake/preempt the core."""
        band = vcpu.effective_priority()
        queue = cpu.run_queue
        index = len(queue)
        for i, other in enumerate(queue):
            other_band = other.effective_priority()
            if other_band > band or (at_head and other_band == band):
                index = i
                break
        queue.insert(index, vcpu)

        if cpu.is_idle:
            cpu.kick()
        else:
            running = cpu.current
            if running is not None and band < running.effective_priority():
                self._preempt(cpu)
            else:
                # Runqueue tickling (csched_runq_tickle): a runnable VCPU
                # queued behind a busy core wakes any idle peer, which
                # will steal it.
                for other in self.cpus:
                    if other is not cpu and other.is_idle and vcpu.allowed_on(other):
                        other.kick()
                        break

    def _preempt(self, cpu: PhysicalCPU) -> None:
        if cpu.loop is not None and cpu.loop.is_alive:
            cpu.loop.interrupt("preempt")

    def _cap_budget(self, vm: VirtualMachine) -> Optional[int]:
        """Remaining cap budget this period, or None when uncapped."""
        if vm.cap_percent <= 0:
            return None
        budget = self.params.accounting_period * vm.cap_percent // 100
        return budget - self._cap_used[vm.name]

    def _runnable_now(self, vcpu: VCPU) -> bool:
        budget = self._cap_budget(vcpu.vm)
        return budget is None or budget > 0

    def _pick_next(self, cpu: PhysicalCPU) -> Optional[VCPU]:
        """Next VCPU for ``cpu``.

        Like csched_schedule: take the best local candidate, but first peek
        at peers — if another core queues a strictly higher-priority VCPU
        (e.g. an UNDER while we only have OVER), steal it. This is what
        makes weights hold across cores, not just within one.
        """
        local: Optional[tuple[Priority, int]] = None
        for i, vcpu in enumerate(cpu.run_queue):
            if self._runnable_now(vcpu):
                local = (vcpu.effective_priority(), i)
                break

        best_remote: Optional[tuple[Priority, PhysicalCPU, int]] = None
        for other in self.cpus:
            if other is cpu:
                continue
            for i, vcpu in enumerate(other.run_queue):
                if not vcpu.allowed_on(cpu) or not self._runnable_now(vcpu):
                    continue
                band = vcpu.effective_priority()
                if best_remote is None or band < best_remote[0]:
                    best_remote = (band, other, i)
                break  # queues are priority-ordered: first eligible is best

        if best_remote is not None and (local is None or best_remote[0] < local[0]):
            _band, other, i = best_remote
            vcpu = other.run_queue[i]
            del other.run_queue[i]
            return vcpu
        if local is not None:
            _band, i = local
            vcpu = cpu.run_queue[i]
            del cpu.run_queue[i]
            return vcpu
        return None

    # -- core loop ----------------------------------------------------------------

    def _cpu_loop(self, cpu: PhysicalCPU):
        while True:
            vcpu = self._pick_next(cpu)
            if vcpu is None:
                cpu.idle_event = self.sim.event(name=f"cpu{cpu.index}-idle")
                cpu.note_idle_start()
                yield cpu.idle_event
                cpu.idle_event = None
                cpu.note_idle_end()
                continue
            yield from self._run(cpu, vcpu)

    def _run(self, cpu: PhysicalCPU, vcpu: VCPU):
        vcpu.state = VCPUState.RUNNING
        vcpu.cpu = cpu
        cpu.current = vcpu
        if self.tracer.wants("ctxsw-in"):
            self.tracer.emit("csched", "ctxsw-in", cpu=cpu.index, vcpu=vcpu.name,
                             vm=vcpu.vm.name)
        if vcpu.runnable_since is not None:
            vcpu.vm.accounting.steal += self.sim.now - vcpu.runnable_since
            vcpu.runnable_since = None
        slice_end = self.sim.now + self.params.time_slice
        guest = vcpu.vm.guest

        while True:
            item = guest.acquire_work(vcpu.name)
            if item is None:
                # Give same-instant submissions (handler continuations) a
                # chance to land before blocking, like a real guest that
                # has not executed HLT yet.
                try:
                    yield 0
                except Interrupt:
                    pass
                if guest.acquire_work(vcpu.name) is not None:
                    continue
                vcpu.state = VCPUState.BLOCKED
                break

            remaining_slice = slice_end - self.sim.now
            if remaining_slice <= 0:
                self._yield_cpu(cpu, vcpu)
                break

            # Wall time needed to retire the item at this core's DVFS
            # speed (demand is expressed at nominal frequency).
            speed = cpu.speed
            if speed == 1.0:
                item_wall = item.remaining
            else:
                item_wall = int(math.ceil(item.remaining / speed))
            segment = min(item_wall, remaining_slice)
            cap_budget = self._cap_budget(vcpu.vm)
            if cap_budget is not None:
                if cap_budget <= 0:
                    self._yield_cpu(cpu, vcpu)  # parked until cap refills
                    break
                segment = min(segment, cap_budget)

            started = self.sim.now
            try:
                # Slice burst as a pure integer delay (fast path); the
                # preemption Interrupt semantics are unchanged.
                yield segment
            except Interrupt:
                ran = self.sim.now - started
                self._charge(vcpu, item, ran, self._consumed(ran, item, speed), speed)
                self._yield_cpu(cpu, vcpu)
                break
            self._charge(vcpu, item, segment, self._consumed(segment, item, speed), speed)

        cpu.current = None
        if self.tracer.wants("ctxsw-out"):
            self.tracer.emit("csched", "ctxsw-out", cpu=cpu.index, vcpu=vcpu.name,
                             vm=vcpu.vm.name)

    @staticmethod
    def _consumed(wall: int, item, speed: float) -> int:
        """Demand retired by ``wall`` ns of execution at ``speed``."""
        if speed == 1.0:
            return wall
        return min(item.remaining, round(wall * speed))

    def _yield_cpu(self, cpu: PhysicalCPU, vcpu: VCPU) -> None:
        """Return a still-runnable VCPU to the tail of its priority band."""
        vcpu.state = VCPUState.RUNNABLE
        vcpu.runnable_since = self.sim.now
        self._enqueue(cpu, vcpu, at_head=False)

    def _charge(
        self,
        vcpu: VCPU,
        item,
        ran: int,
        consumed: Optional[int] = None,
        speed: Optional[float] = None,
    ) -> None:
        """Account ``ran`` wall-ns (retiring ``consumed`` demand-ns).

        ``speed`` is the DVFS speed the burst actually ran at (the core's
        current speed may already have changed when a DVFS transition
        preempted this very burst); it feeds the per-speed busy split the
        power meter integrates energy from.
        """
        if ran <= 0 and item.remaining > 0:
            return
        if consumed is None:
            consumed = ran
        if vcpu.cpu is not None:
            vcpu.cpu.note_busy(ran, speed if speed is not None else vcpu.cpu.speed)
        vcpu.runtime += ran
        # Continuous debit: ran * (100 credits / 10 ms). Xen's tick
        # point-samples the running VCPU instead; with this simulator's
        # deterministic arrival grids that sampling aliases badly (a VCPU
        # whose bursts straddle tick boundaries pays for time it never
        # ran), so we charge exactly what was consumed.
        vcpu.credits -= ran * self.params.credits_per_tick / self.params.tick_period
        if vcpu.vm.cap_percent > 0:
            self._cap_used[vcpu.vm.name] += ran
        vcpu.vm.guest.charge(item, ran, consumed)

    # -- periodic machinery -----------------------------------------------------------

    def _on_tick(self) -> None:
        """Every 10 ms: expire boosts, activate runners, re-evaluate.

        (Credit debiting happens continuously in :meth:`_charge`; the
        tick retains its scheduling roles.)
        """
        for cpu in self.cpus:
            running = cpu.current
            if running is None:
                continue
            running.boosted = False
            # A VCPU caught consuming CPU joins the active set
            # (csched_vcpu_acct does exactly this on the tick).
            self._active_vcpus.add(running)
            # If the debit dropped the runner below a queued VCPU's
            # band, reschedule (Xen re-evaluates on the tick timer).
            head = cpu.run_queue[0] if cpu.run_queue else None
            if head is not None and head.effective_priority() < running.effective_priority():
                self._preempt(cpu)

    def _do_accounting(self) -> None:
        """Distribute credits among *active* VCPUs by domain weight.

        Following csched_acct: only VCPUs that are consuming CPU receive
        credit grants; a VCPU whose balance saturates at the cap is
        demoted back to inactive (its credits reset to zero), so the
        weight denominator always reflects the domains actually competing
        and no share of the machine is reserved for the idle.
        """
        pool = self.params.credits_per_period_per_cpu * len(self.cpus)
        active = [v for v in self._active_vcpus]
        total_weight = sum(v.vm.weight for v in active)

        for vm in self.domains:
            self._consumed_at_last_accounting[vm.name] = vm.cpu_time()
            self._cap_used[vm.name] = 0

        if total_weight > 0:
            # Weight is per-domain; a multi-VCPU domain splits its share
            # across its active VCPUs.
            active_count: dict[str, int] = {}
            for vcpu in active:
                active_count[vcpu.vm.name] = active_count.get(vcpu.vm.name, 0) + 1
            for vcpu in active:
                share = pool * vcpu.vm.weight / total_weight / active_count[vcpu.vm.name]
                vcpu.credits += share
                if vcpu.credits < -self.params.credit_cap:
                    # csched bounds the debt at one slice's worth so a
                    # briefly-starved VCPU is not punished indefinitely.
                    vcpu.credits = float(-self.params.credit_cap)
                if vcpu.credits >= self.params.credit_cap:
                    if vcpu.state is VCPUState.BLOCKED:
                        # Genuinely idle: park it inactive at zero so its
                        # weight leaves the distribution denominator.
                        vcpu.credits = 0.0
                        self._active_vcpus.discard(vcpu)
                    else:
                        # Runnable but outpaced by its grant (it is being
                        # starved, not idle): keep it active, clamp the bank.
                        vcpu.credits = float(self.params.credit_cap)

        # Priorities may have changed band: re-sort queues, wake idle cores
        # (capped VCPUs may have been unparked), and preempt where needed.
        for cpu in self.cpus:
            if cpu.run_queue:
                ordered = sorted(cpu.run_queue, key=lambda v: v.effective_priority())
                cpu.run_queue.clear()
                cpu.run_queue.extend(ordered)
                if cpu.is_idle:
                    cpu.kick()
                else:
                    head = cpu.run_queue[0]
                    running = cpu.current
                    if (
                        running is not None
                        and head.effective_priority() < running.effective_priority()
                    ):
                        self._preempt(cpu)
