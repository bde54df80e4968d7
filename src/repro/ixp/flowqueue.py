"""Per-VM classified flow queues in IXP DRAM.

The Rx classifier sorts incoming packets into per-guest-VM flow queues
(paper §2.1: "if the classification engine classifies incoming packets into
per VM flow queues, then by tuning the number of dequeuing threads per
queue and their polling intervals, we can control the ingress and egress
network bandwidth seen by the VM"). Occupancy in bytes is what the Figure 7
buffer monitor watches.
"""

from __future__ import annotations

from typing import Optional

from ..sim import Simulator, Store, Tracer
from ..net import Packet
from .memory import BufferPool


class FlowQueue:
    """A packet ring for one classified flow, backed by the DRAM pool."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        pool: BufferPool,
        capacity_bytes: int,
        service_weight: int = 1,
        poll_interval: int = 0,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.name = name
        self.pool = pool
        self.capacity_bytes = capacity_bytes
        #: Relative share of dequeue threads this queue receives; the
        #: island's Tune handler adjusts this.
        self.service_weight = max(1, service_weight)
        #: Extra delay between dequeue operations (the poll-interval knob).
        self.poll_interval = poll_interval
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._store: Store[Packet] = Store(sim, name=f"flowq-{name}")
        self.bytes_queued = 0
        self.bytes_high_watermark = 0
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0

    def enqueue(self, packet: Packet) -> bool:
        """Add a packet; drops (tail-drop) when queue or pool is full."""
        if self.bytes_queued + packet.size > self.capacity_bytes:
            self.dropped += 1
            self.tracer.emit(self.name, "flowq-drop", pid=packet.pid, reason="queue-full")
            return False
        if not self.pool.allocate(packet.size):
            self.dropped += 1
            self.tracer.emit(self.name, "flowq-drop", pid=packet.pid, reason="pool-full")
            return False
        self.bytes_queued += packet.size
        if self.bytes_queued > self.bytes_high_watermark:
            self.bytes_high_watermark = self.bytes_queued
        self.enqueued += 1
        self._store.try_put(packet)
        return True

    def get(self):
        """Event that fires with the next packet (blocking dequeue).

        Byte/pool accounting is released here, when the dequeuing engine
        claims the packet for DMA.
        """
        event = self._store.get()
        event.callbacks.append(self._on_dequeue)
        return event

    def cancel_get(self, event) -> bool:
        """Withdraw a pending blocking dequeue (thread reassignment)."""
        return self._store.cancel_get(event)

    def _on_dequeue(self, event) -> None:
        packet: Packet = event.value
        self.bytes_queued -= packet.size
        self.pool.free(packet.size)
        self.dequeued += 1

    def __len__(self) -> int:
        return len(self._store)

    @property
    def occupancy_bytes(self) -> int:
        """Bytes currently waiting in the queue (Figure 7's signal)."""
        return self.bytes_queued

    def __repr__(self) -> str:
        return f"<FlowQueue {self.name} {len(self)}pkts {self.bytes_queued}B w={self.service_weight}>"
