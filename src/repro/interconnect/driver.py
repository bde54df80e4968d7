"""The Dom0 messaging driver and IXP virtual interface (ViF).

Receive path (paper §2): the IXP interrupts the host at a configurable
frequency (or the driver strictly polls); on service, outstanding
descriptors are dequeued from the host-IXP message ring, converted to
socket buffers (Dom0 system CPU), and handed to the network stack — in our
platform, the Xen bridge. Transmit converts back and posts descriptors to
the TX ring for the IXP's PCI engine to pull.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from ..sim import Simulator, Tracer, us
from ..net import Packet
from ..x86.vm import VirtualMachine
from .msgq import MessageRing

#: Dom0 CPU cost to service one interrupt / poll pass (IRQ entry, ring scan).
SERVICE_COST = us(8)
#: Dom0 CPU cost per received descriptor (skb conversion + stack entry).
PER_PACKET_RX_COST = us(6)
#: Dom0 CPU cost per transmitted packet (skb -> packet buffer conversion).
PER_PACKET_TX_COST = us(5)


class MessagingDriver:
    """Host side of the IXP messaging interface, living in the Dom0 kernel."""

    def __init__(
        self,
        sim: Simulator,
        dom0: VirtualMachine,
        rx_ring: MessageRing,
        tx_ring: MessageRing,
        interrupt_delay: int = us(50),
        poll_period: Optional[int] = None,
        rx_batch_limit: int = 64,
        poll_burn_duty: float = 0.0,
        tracer: Optional[Tracer] = None,
    ):
        """``interrupt_delay`` is the IXP's interrupt-moderation latency:
        how long after a descriptor lands before the host gets poked. Pass
        ``poll_period`` to instead model the strict periodic polling the
        paper's driver also supports (costlier in idle CPU, similar
        latency ~ period/2).

        ``poll_burn_duty`` models the CPU appetite of an aggressive
        polling driver ("the messaging driver handles packet-receive by
        periodic polling", §2.1): the given fraction of one Dom0 VCPU is
        burned spinning on the rings regardless of traffic. Because Dom0
        competes under the same credit scheduler, this burn shrinks
        automatically when guest weights rise — one of the cross-island
        couplings coordination exploits.
        """
        self.sim = sim
        self.dom0 = dom0
        self.rx_ring = rx_ring
        self.tx_ring = tx_ring
        self.interrupt_delay = interrupt_delay
        self.poll_period = poll_period
        self.rx_batch_limit = rx_batch_limit
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._deliver: Optional[Callable[[Packet], None]] = None
        self._service_pending = False
        self.rx_delivered = 0
        self.tx_posted = 0
        self.tx_dropped = 0

        if poll_period is not None:
            sim.spawn(self._poll_loop(), name="msgdriver-poll")
        else:
            rx_ring.on_first_descriptor = self._raise_interrupt
        self.poll_burn_duty = poll_burn_duty
        if poll_burn_duty > 0:
            if not 0 < poll_burn_duty <= 1:
                raise ValueError(f"poll_burn_duty must be in (0, 1], got {poll_burn_duty}")
            sim.spawn(self._poll_burn_loop(), name="msgdriver-poll-burn")

    # -- wiring -----------------------------------------------------------

    def connect_stack(self, deliver: Callable[[Packet], None]) -> None:
        """Attach the ViF's hand-off into the host network stack (bridge)."""
        self._deliver = deliver

    # -- receive path --------------------------------------------------------

    def _raise_interrupt(self) -> None:
        if self._service_pending:
            return
        self._service_pending = True
        self.sim.call_in(self.interrupt_delay, self._start_service)

    def _start_service(self) -> None:
        self.sim.spawn(self._service_rx(), name="msgdriver-rx-service")

    def _service_rx(self):
        """One interrupt service pass: drain the ring in batches."""
        yield self.dom0.execute(SERVICE_COST, kind="sys")
        drained = 0
        while drained < self.rx_batch_limit:
            packet = self.rx_ring.pop()
            if packet is None:
                break
            yield self.dom0.execute(PER_PACKET_RX_COST, kind="sys")
            packet.stamp("vif-rx", self.sim.now)
            self.rx_delivered += 1
            if self._deliver is None:
                raise RuntimeError("messaging driver has no stack attached")
            self._deliver(packet)
            drained += 1
        self._service_pending = False
        # Work may have arrived while we were draining (or the batch limit
        # stopped us): rearm immediately instead of losing the edge.
        if len(self.rx_ring) > 0:
            self._raise_interrupt()

    def _poll_loop(self):
        """Strict polling mode: check the ring every ``poll_period``."""
        while True:
            yield self.poll_period
            yield self.dom0.execute(SERVICE_COST, kind="sys")
            drained = 0
            while drained < self.rx_batch_limit:
                packet = self.rx_ring.pop()
                if packet is None:
                    break
                yield self.dom0.execute(PER_PACKET_RX_COST, kind="sys")
                packet.stamp("vif-rx", self.sim.now)
                self.rx_delivered += 1
                if self._deliver is None:
                    raise RuntimeError("messaging driver has no stack attached")
                self._deliver(packet)
                drained += 1

    def _poll_burn_loop(self):
        """Duty-cycled ring-spinning burn of the polling driver.

        Submitted as ordinary Dom0 system work so the credit scheduler
        arbitrates it against guest domains; when Dom0's share shrinks the
        poll loop simply runs less often (higher ring latency, no loss).
        """
        period = us(3000)
        burst = round(period * self.poll_burn_duty)
        gap = period - burst
        while True:
            yield self.dom0.execute(burst, kind="sys")
            if gap > 0:
                yield gap

    def transmit(self, packet: Packet) -> None:
        """ViF TX entry point: queue a packet toward the IXP (async).

        A zero-delay callback, not a process: nothing joins a transmit,
        so it files no finish entry. The callback takes the sequence
        number a process start would, and the ring sees the same pushes
        in the same order.
        """
        self.sim.call_in(0, partial(self._convert_tx, packet))

    def _convert_tx(self, packet: Packet) -> None:
        """Charge Dom0 the skb conversion; post the packet when it is done."""
        done = self.dom0.execute(PER_PACKET_TX_COST, kind="sys")
        done.callbacks.append(partial(self._post_tx, packet))

    def _post_tx(self, packet: Packet, _done) -> None:
        packet.stamp("vif-tx", self.sim.now)
        if self.tx_ring.push(packet):
            self.tx_posted += 1
        else:
            self.tx_dropped += 1
            self.tracer.emit("msgdriver", "tx-ring-drop", pid=packet.pid)
