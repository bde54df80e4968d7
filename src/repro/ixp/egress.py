"""Egress-side classification and weighted transmit scheduling.

The paper's Figure 3 shows a *Tx classifier* and *Tx scheduler* mirroring
the receive side: traffic leaving the host is classified (per source VM)
into egress queues that transmit threads serve by weight — "we can control
the ingress **and egress** network bandwidth seen by the VM" (§2.1).

The egress scheduler slots between the host TX ring and the wire: PCI-Rx
threads still DMA packets out of host memory, but instead of transmitting
directly they enqueue per-flow; Tx threads drain the queues weighted-
round-robin with an optional per-queue rate cap.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from ..sim import Event, Simulator, Tracer
from ..net import Packet

#: Resolves the egress flow of a host-originated packet (the source VM).
EgressClassifier = Callable[[Packet], str]


def classify_by_source(packet: Packet) -> str:
    """Default egress rule: flow = source VM name."""
    return packet.src


class EgressQueue:
    """One egress flow's transmit queue."""

    def __init__(self, name: str, weight: int = 1, rate_bytes_per_s: int = 0,
                 capacity_packets: int = 512):
        self.name = name
        self.weight = max(1, weight)
        #: Token-bucket rate cap in bytes/second (0 = unlimited).
        self.rate_bytes_per_s = rate_bytes_per_s
        self.capacity_packets = capacity_packets
        self.pending: deque[Packet] = deque()
        self.sent = 0
        self.dropped = 0
        self.bytes_sent = 0
        self._tokens = 0.0
        self._last_refill = 0

    def __len__(self) -> int:
        return len(self.pending)

    def _refill(self, now: int) -> None:
        if self.rate_bytes_per_s <= 0:
            return
        elapsed_s = (now - self._last_refill) / 1e9
        self._last_refill = now
        burst_cap = self.rate_bytes_per_s  # one second of burst
        self._tokens = min(burst_cap, self._tokens + elapsed_s * self.rate_bytes_per_s)

    def eligible(self, now: int) -> bool:
        """Whether the head packet may transmit under the rate cap."""
        if not self.pending:
            return False
        if self.rate_bytes_per_s <= 0:
            return True
        self._refill(now)
        return self._tokens >= self.pending[0].size

    def consume(self, size: int) -> None:
        if self.rate_bytes_per_s > 0:
            self._tokens -= size


class EgressScheduler:
    """Weighted round-robin over egress queues, feeding the wire."""

    def __init__(
        self,
        sim: Simulator,
        transmit: Callable[[Packet], None],
        classifier: EgressClassifier = classify_by_source,
        tracer: Optional[Tracer] = None,
    ):
        """``transmit`` puts a packet on the wire (the Tx pipeline's port
        resolution + link send)."""
        self.sim = sim
        self.transmit = transmit
        self.classifier = classifier
        self.tracer = tracer or Tracer(sim, enabled=False)
        self.queues: dict[str, EgressQueue] = {}
        self._default_queue = EgressQueue("default")
        self._wakeup: Optional[Event] = None
        self._credits: dict[str, float] = {}
        sim.spawn(self._loop(), name="egress-scheduler")

    # -- configuration ------------------------------------------------------

    def register_flow(self, name: str, weight: int = 1,
                      rate_bytes_per_s: int = 0) -> EgressQueue:
        """Create an egress queue for a VM's outbound traffic."""
        if name in self.queues:
            raise ValueError(f"egress flow {name!r} already registered")
        queue = EgressQueue(name, weight=weight, rate_bytes_per_s=rate_bytes_per_s)
        self.queues[name] = queue
        return queue

    def set_weight(self, name: str, weight: int) -> None:
        """Tune translation for egress service shares."""
        self.queues[name].weight = max(1, weight)

    # -- data path ---------------------------------------------------------------

    def submit(self, packet: Packet) -> bool:
        """Classify and enqueue an outbound packet; False on tail drop."""
        flow = self.classifier(packet)
        queue = self.queues.get(flow, self._default_queue)
        if len(queue.pending) >= queue.capacity_packets:
            queue.dropped += 1
            self.tracer.emit("egress", "drop", flow=queue.name, pid=packet.pid)
            return False
        queue.pending.append(packet)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return True

    def _all_queues(self):
        yield from self.queues.values()
        yield self._default_queue

    def _pick(self) -> Optional[EgressQueue]:
        """Weighted selection among rate-eligible backlogged queues."""
        now = self.sim.now
        candidates = [q for q in self._all_queues() if q.eligible(now)]
        if not candidates:
            return None
        # Smooth weighted round robin via accumulated credits.
        for queue in candidates:
            self._credits[queue.name] = self._credits.get(queue.name, 0.0) + queue.weight
        chosen = max(candidates, key=lambda q: self._credits[q.name])
        total = sum(q.weight for q in candidates)
        self._credits[chosen.name] -= total
        return chosen

    def _loop(self):
        while True:
            queue = self._pick()
            if queue is None:
                if any(len(q) for q in self._all_queues()):
                    # Backlogged but rate-capped: wait for tokens.
                    yield self.sim.timeout(1_000_000)  # 1 ms
                    continue
                self._wakeup = self.sim.event(name="egress-idle")
                yield self._wakeup
                self._wakeup = None
                continue
            packet = queue.pending.popleft()
            queue.consume(packet.size)
            queue.sent += 1
            queue.bytes_sent += packet.size
            self.transmit(packet)
            # Wire pacing is handled by the link; a small inter-packet gap
            # models the Tx thread's per-packet work.
            yield self.sim.timeout(2_000)  # 2 us
