"""The IXP transmit pipeline: host TX ring -> DMA -> wire.

PCI-Rx threads pull descriptors the host posted, DMA the payload out of
host memory, and hand packets to Tx threads that put them on the wire
toward the destination's port. Port resolution is a pluggable callable so
the island decides the wiring.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator, Tracer
from ..interconnect import MessageRing, PCIeBus
from ..net import Link, Packet
from .microengine import HardwareThread
from .params import IXPParams

#: Resolves the wire link a packet should leave through (None = no route).
PortResolver = Callable[[Packet], Optional[Link]]


class TxPipeline:
    """Threads moving host-posted packets onto the wire."""

    def __init__(
        self,
        sim: Simulator,
        host_tx_ring: MessageRing,
        pcie: PCIeBus,
        port_resolver: PortResolver,
        threads: list[HardwareThread],
        params: IXPParams,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.host_tx_ring = host_tx_ring
        self.pcie = pcie
        self.port_resolver = port_resolver
        self.params = params
        self.tracer = tracer or Tracer(sim, enabled=False)
        self.transmitted = 0
        self.unroutable = 0
        for thread in threads:
            sim.spawn(self._thread_loop(thread), name=f"tx-{thread.name}")

    def send_to_wire(self, packet: Packet) -> None:
        """Resolve the port and transmit (the final pipeline stage)."""
        link = self.port_resolver(packet)
        if link is None:
            self.unroutable += 1
            self.tracer.emit("ixp-tx", "unroutable", pid=packet.pid, dst=packet.dst)
            return
        link.send(packet)
        self.transmitted += 1

    def _thread_loop(self, thread: HardwareThread):
        while True:
            packet: Packet = yield self.host_tx_ring.get()
            yield from self.pcie.dma(packet.size)
            yield from thread.compute(self.params.tx_cycles)
            yield from thread.mem("dram")
            packet.stamp("ixp-tx", self.sim.now)
            self.send_to_wire(packet)
