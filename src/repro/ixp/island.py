"""The IXP scheduling island: chip, pipelines, flow queues and control core.

Mirrors the paper's §2.1 execution model (Figure 3): Rx threads classify
wire traffic into per-VM flow queues; PCI-Tx threads dequeue them — with
tunable per-queue thread counts — and DMA descriptors into the host RX
ring; PCI-Rx/Tx threads move host-posted packets back onto the wire. The
island's native Tune knob is the flow-queue service weight; its Trigger is
a transient service boost, held as a refcounted lease so overlapping
triggers stack and expire back to the true original weight.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..platform import EntityId, Island, TriggerSpec, weight_knob
from ..sim import Simulator, Store, Tracer
from ..interconnect import ChannelEndpoint, MessageRing, PCIeBus
from ..net import Link, Packet
from .classifier import Classifier
from .dequeue import WeightedDequeuer
from .flowqueue import FlowQueue
from .memory import BufferPool, MemoryHierarchy
from .microengine import Microengine
from .params import IXPParams
from .rx import ClassifiedHook, RxPipeline
from .tx import TxPipeline
from .xscale import XScaleCore

#: Default microengine task layout (paper: "IXP microengine threads ...
#: execute one of: packet receipt (Rx), packet transmission (Tx), or
#: classification", plus the two PCI engines).
RX_MICROENGINE = 0
CLASSIFIER_MICROENGINE = 1
PCI_TX_MICROENGINE = 2
PCI_RX_MICROENGINE = 3

DEFAULT_RX_THREADS = 8
DEFAULT_TX_THREADS = 4


class IXPIsland(Island):
    """The IXP2850 island and its runtime."""

    def __init__(
        self,
        sim: Simulator,
        params: Optional[IXPParams] = None,
        name: str = "ixp",
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(sim, name, tracer=tracer)
        self.params = params or IXPParams()
        self.memory = MemoryHierarchy(self.params.memory)
        self.buffer_pool = BufferPool(sim, self.params.buffer_pool_bytes, tracer=self.tracer)
        self.microengines = [
            Microengine(sim, i, self.memory, self.params.threads_per_microengine)
            for i in range(self.params.num_microengines)
        ]
        self.classifier = Classifier()
        self.xscale = XScaleCore(sim, tracer=self.tracer)
        #: Wire-side ingress shared by Rx threads.
        self.ingress: Store[Packet] = Store(sim, name="ixp-wire-ingress")
        self.flow_queues: dict[str, FlowQueue] = {}
        self._wire_routes: dict[str, Link] = {}
        self._default_route: Optional[Link] = None

        rx_threads = [
            self.microengines[RX_MICROENGINE].allocate_thread("rx")
            for _ in range(DEFAULT_RX_THREADS)
        ]
        if self.params.two_stage_rx:
            from .rx import TwoStageRxPipeline  # noqa: PLC0415 — feature-gated, avoids cycle
            from .scratch import ScratchRing  # noqa: PLC0415 — feature-gated, avoids cycle

            classify_threads = [
                self.microengines[CLASSIFIER_MICROENGINE].allocate_thread("classify")
                for _ in range(DEFAULT_RX_THREADS)
            ]
            self.rx_ring = ScratchRing(
                sim, self.memory, capacity=self.params.rx_ring_depth, name="rx-cls-ring"
            )
            self.rx = TwoStageRxPipeline(
                sim,
                self.ingress,
                self.classifier,
                self._queue_for_packet,
                rx_threads,
                classify_threads,
                self.params,
                self.rx_ring,
                tracer=self.tracer,
            )
        else:
            self.rx = RxPipeline(
                sim,
                self.ingress,
                self.classifier,
                self._queue_for_packet,
                rx_threads,
                self.params,
                tracer=self.tracer,
            )
        # Host-facing pipelines are created by attach_host().
        self.dequeuer: Optional[WeightedDequeuer] = None
        self.tx: Optional[TxPipeline] = None

    # -- host attachment ---------------------------------------------------

    def attach_host(self, pcie: PCIeBus, rx_ring: MessageRing, tx_ring: MessageRing) -> None:
        """Connect the PCIe DMA engines and host message rings."""
        if self.dequeuer is not None:
            raise RuntimeError("host already attached")
        dequeue_threads = [
            self.microengines[PCI_TX_MICROENGINE].allocate_thread("pci-tx")
            for _ in range(self.params.dequeue_threads)
        ]
        self.dequeuer = WeightedDequeuer(
            self.sim, dequeue_threads, pcie, rx_ring, self.params, tracer=self.tracer
        )
        for queue in self.flow_queues.values():
            self.dequeuer.add_queue(queue)
        tx_threads = [
            self.microengines[PCI_RX_MICROENGINE].allocate_thread("pci-rx")
            for _ in range(DEFAULT_TX_THREADS)
        ]
        self.tx = TxPipeline(
            self.sim, tx_ring, pcie, self._route_for_packet, tx_threads, self.params,
            tracer=self.tracer,
        )

    def attach_channel(self, endpoint: ChannelEndpoint) -> None:
        """Connect the coordination channel (runs on the XScale)."""
        self.xscale.attach_channel(endpoint)

    # -- wire side ------------------------------------------------------------

    def wire_sink(self) -> Callable[[Packet], None]:
        """Sink callable for client-side links delivering into the IXP."""

        def sink(packet: Packet) -> None:
            self.ingress.try_put(packet)  # unbounded: the MAC FIFO never
            # backpressures in our workloads; flow queues do the dropping.

        return sink

    def connect_peer(self, host_name: str, link: Link) -> None:
        """Route packets destined to ``host_name`` out through ``link``."""
        self._wire_routes[host_name] = link
        if self._default_route is None:
            self._default_route = link

    def _route_for_packet(self, packet: Packet) -> Optional[Link]:
        return self._wire_routes.get(packet.dst, self._default_route)

    # -- flow queues / VM registration ----------------------------------------

    def register_vm_flow(self, vm_name: str, service_weight: int = 1) -> FlowQueue:
        """Create the per-VM flow queue (paper §2.3's VM registration).

        Called when a guest VM that uses the IXP as its network interface
        registers with the global controller; the identifier information
        reaches the IXP through its driver interface in Dom0.
        """
        if vm_name in self.flow_queues:
            raise ValueError(f"flow queue for {vm_name!r} already registered")
        queue = FlowQueue(
            self.sim,
            name=vm_name,
            pool=self.buffer_pool,
            capacity_bytes=self.params.flow_queue_bytes,
            service_weight=service_weight,
            poll_interval=self.params.default_poll_interval,
            tracer=self.tracer,
        )
        self.flow_queues[vm_name] = queue
        self.register_entity(
            EntityId(self.name, vm_name),
            knob=weight_knob(
                kind="flow-service-weight",
                unit="threads-share",
                read=lambda queue=queue: queue.service_weight,
                apply=lambda value, queue=queue: self._set_service_weight(queue, value),
                trigger=TriggerSpec(
                    # The transient boost of the paper's §3.3: doubled
                    # weight plus one, held for four monitor periods. Held
                    # as a lease: a second trigger before the first expiry
                    # stacks another level instead of capturing the boosted
                    # weight as "original" (the old restore bug).
                    boost=lambda weight: weight * 2 + 1,
                    hold=self.params.monitor_period * 4,
                ),
            ),
        )
        if self.dequeuer is not None:
            self.dequeuer.add_queue(queue)
        return queue

    def _set_service_weight(self, queue: FlowQueue, value: float) -> int:
        """Absolute service-weight setter; re-runs the thread division."""
        queue.service_weight = max(1, int(value))
        if self.dequeuer is not None:
            self.dequeuer.rebalance()
        return queue.service_weight

    def _queue_for_packet(self, packet: Packet) -> Optional[FlowQueue]:
        return self.flow_queues.get(packet.dst)

    def add_classified_hook(self, hook: ClassifiedHook) -> None:
        """Observe every classified packet (IXP-side policy tap)."""
        self.rx.add_classified_hook(hook)
