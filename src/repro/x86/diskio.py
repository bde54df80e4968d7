"""Disk and weighted I/O scheduler for the x86 island.

The paper's Tune mechanism is deliberately scheduler-agnostic: a +/- value
"will get translated into corresponding weight or priority adjustments,
depending on the remote island's scheduling algorithm (e.g., credit
adjustments in Xen scheduler or **poll time adjustments in an I/O
scheduler**)" (§3.3). This module provides that second translation target:
a shared disk whose scheduler serves per-VM queues by weight, with a
tunable dispatch poll interval.

The disk model is 2008-era SATA: a seek penalty per non-sequential request
plus transfer at sustained bandwidth, one request in service at a time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from ..sim import Event, Simulator, Tracer, ms
from .vm import VirtualMachine


@dataclass(frozen=True, slots=True)
class DiskParams:
    """Physical characteristics of the disk."""

    #: Average positioning time for a non-sequential request.
    seek_time: int = ms(8)
    #: Sustained media bandwidth, bytes per nanosecond (80 MB/s).
    bandwidth_bytes_per_ns: float = 0.08
    #: Requests issued at consecutive offsets skip the seek.
    sequential_window: int = 4


@dataclass
class IORequest:
    """One disk request from a guest."""

    vm_name: str
    size: int
    sequential: bool
    done: Event
    enqueued_at: int


class IOQueue:
    """Per-VM disk queue with a scheduler weight (the Tune target)."""

    def __init__(self, vm_name: str, weight: int = 100):
        self.vm_name = vm_name
        self.weight = max(1, weight)
        self.pending: deque[IORequest] = deque()
        self.completed = 0
        self.total_wait = 0
        #: Deficit counter for weighted round-robin service.
        self.deficit = 0.0

    def __len__(self) -> int:
        return len(self.pending)


class WeightedIOScheduler:
    """Deficit-weighted round-robin over per-VM queues, one disk server.

    ``poll_interval`` is the idle re-check period: a strictly polling
    dispatcher (interval > 0) adds up to that much latency to a request
    arriving at an idle disk — the knob the paper's quote refers to.
    With interval 0 the dispatcher is event-driven.
    """

    def __init__(
        self,
        sim: Simulator,
        params: Optional[DiskParams] = None,
        poll_interval: int = 0,
        quantum_bytes: int = 64 * 1024,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.params = params or DiskParams()
        self.poll_interval = poll_interval
        self.quantum_bytes = quantum_bytes
        self.tracer = tracer or Tracer(sim, enabled=False)
        self.queues: dict[str, IOQueue] = {}
        self._dispatch_wakeup: Optional[Event] = None
        self.requests_served = 0
        sim.spawn(self._dispatch_loop(), name="io-scheduler")

    # -- registration and tuning -------------------------------------------

    def register_vm(self, vm_name: str, weight: int = 100) -> IOQueue:
        """Create the VM's disk queue."""
        if vm_name in self.queues:
            raise ValueError(f"VM {vm_name!r} already has an I/O queue")
        queue = IOQueue(vm_name, weight)
        self.queues[vm_name] = queue
        return queue

    def set_weight(self, vm_name: str, weight: int) -> int:
        """Set a VM's I/O weight absolutely (floor 1); returns the result."""
        queue = self.queues[vm_name]
        queue.weight = max(1, weight)
        self.tracer.emit("io-sched", "weight", vm=vm_name, weight=queue.weight)
        return queue.weight

    def set_poll_interval(self, interval: int) -> None:
        """Tune translation: adjust the dispatcher's poll time."""
        if interval < 0:
            raise ValueError("poll interval must be non-negative")
        self.poll_interval = interval

    # -- submission -----------------------------------------------------------

    def submit(self, vm_name: str, size: int, sequential: bool = False) -> Event:
        """Queue a request; the returned event fires at completion."""
        if size <= 0:
            raise ValueError(f"request size must be positive, got {size}")
        queue = self.queues[vm_name]
        request = IORequest(
            vm_name=vm_name,
            size=size,
            sequential=sequential,
            done=self.sim.event(name=f"io-{vm_name}"),
            enqueued_at=self.sim.now,
        )
        queue.pending.append(request)
        if self.poll_interval == 0 and self._dispatch_wakeup is not None:
            wakeup, self._dispatch_wakeup = self._dispatch_wakeup, None
            if not wakeup.triggered:
                wakeup.succeed()
        return request.done

    # -- dispatch -----------------------------------------------------------------

    def _backlogged(self) -> list[IOQueue]:
        return [q for q in self.queues.values() if q.pending]

    def _pick(self) -> Optional[IOQueue]:
        """Deficit round robin: replenish by weight, serve queues whose
        deficit covers their head request."""
        backlogged = self._backlogged()
        if not backlogged:
            return None
        total_weight = sum(q.weight for q in backlogged)
        # Replenish until someone can afford their head-of-line request.
        for _ in range(64):
            affordable = [q for q in backlogged if q.deficit >= q.pending[0].size]
            if affordable:
                # Among queues that can afford their head request, weight
                # decides dispatch order (latency priority); the deficit
                # accounting still bounds long-run throughput per weight.
                return max(affordable, key=lambda q: (q.weight, q.deficit))
            for queue in backlogged:
                queue.deficit += self.quantum_bytes * queue.weight / total_weight
        return backlogged[0]  # pathological sizes: just serve someone

    def _dispatch_loop(self):
        while True:
            queue = self._pick()
            if queue is None:
                if self.poll_interval > 0:
                    yield self.sim.timeout(self.poll_interval)
                else:
                    self._dispatch_wakeup = self.sim.event(name="io-idle")
                    yield self._dispatch_wakeup
                continue
            request = queue.pending.popleft()
            queue.deficit = max(0.0, queue.deficit - request.size)
            service = round(request.size / self.params.bandwidth_bytes_per_ns)
            if not request.sequential:
                service += self.params.seek_time
            yield self.sim.timeout(service)
            queue.completed += 1
            queue.total_wait += self.sim.now - request.enqueued_at - service
            self.requests_served += 1
            request.done.succeed(request)


class DiskInterface:
    """Guest-side handle: issue reads/writes and wait in iowait."""

    def __init__(self, scheduler: WeightedIOScheduler, vm: VirtualMachine,
                 weight: int = 100):
        self.scheduler = scheduler
        self.vm = vm
        self.queue = scheduler.register_vm(vm.name, weight)

    def read(self, size: int, sequential: bool = False):
        """Blocking read: ``yield from interface.read(n)`` inside a guest
        process; time waiting is attributed to guest iowait."""
        done = self.scheduler.submit(self.vm.name, size, sequential)
        result = yield from self.vm.io_wait(done)
        return result
