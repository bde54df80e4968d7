"""The x86-IXP prototype testbed (paper Figure 3), assembled in one call.

A :class:`Testbed` wires together everything the paper's prototype had: the
Xen-managed x86 island, the IXP island, the PCIe DMA path with its host
message rings and Dom0 messaging driver, the Xen bridge, the coordination
channel with an agent on each side, and the global controller. Application
models then only need :meth:`create_guest_vm` and :meth:`add_client_host`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .coordination import MESSAGE_HANDLING_COST, CoordinationAgent
from .faults import FailureDetector, FaultConfig, FaultInjector
from .interconnect import (
    DEFAULT_CHANNEL_LATENCY,
    CoordinationChannel,
    MessageRing,
    MessagingDriver,
    PCIeBus,
    ReliableChannel,
    ReliableConfig,
)
from .ixp import IXPIsland, IXPParams
from .net import DuplexLink, VirtualNIC, XenBridge
from .obs import ControlLoopCollector, SpanMinter
from .platform import DIRECTORY_KINDS, CentralDirectory, EntityId, FabricTopology, build_directory
from .platform.mesh import CoordinationMesh
from .sim import RandomStreams, Simulator, Tracer, us
from .x86 import VirtualMachine, X86Island, X86Params


@dataclass(frozen=True, slots=True)
class ChannelConfig:
    """Shape of the PCI-config-space coordination channel.

    Grouped out of :class:`TestbedConfig` so channel experiments (latency
    sweeps, loss injection, the reliability ablation) vary one sub-config
    instead of a handful of flat knobs.
    """

    #: One-way delivery latency of the mailbox.
    latency: int = DEFAULT_CHANNEL_LATENCY
    #: Drop probability of the raw coordination mailbox (failure
    #: injection; the paper's prototype channel is unacknowledged).
    loss_probability: float = 0.0
    #: Wrap the mailbox in the reliable delivery layer (acks, retransmit
    #: with backoff, Tune coalescing). Off by default: the paper's figures
    #: are measured over the raw channel.
    reliable: bool = False
    #: Retry budget per frame when ``reliable`` is on; exhausted frames
    #: are dead-lettered, never raised.
    reliable_max_retries: int = 8
    #: Model the paper's §3.3 hardware-assisted coordination: fast on-chip
    #: signalling (1 us channel) delivered by hardware queues, with no
    #: Dom0 software handling cost per message. Overrides ``latency``.
    hardware: bool = False

    def __post_init__(self) -> None:
        # Validate at config construction so a bad experiment sweep fails
        # at the call site with the offending value, not deep inside
        # CoordinationChannel once the testbed is half-built.
        if self.latency < 0:
            raise ValueError(
                f"ChannelConfig.latency must be non-negative, got {self.latency}"
            )
        if not 0.0 <= self.loss_probability < 1.0:
            raise ValueError(
                "ChannelConfig.loss_probability must be a probability in "
                f"[0, 1), got {self.loss_probability} (the testbed wires the "
                "loss RNG stream automatically when it is non-zero)"
            )
        if self.reliable_max_retries < 0:
            raise ValueError(
                "ChannelConfig.reliable_max_retries must be non-negative, "
                f"got {self.reliable_max_retries}"
            )

    @property
    def effective_latency(self) -> int:
        """The one-way latency the platform actually wires up."""
        return us(1) if self.hardware else self.latency


#: :class:`TestbedConfig` fields only the two-island :class:`Testbed`
#: reads; a fabric config must leave them at their defaults.
_PROTOTYPE_ONLY_FIELDS = (
    "ixp", "channel", "interrupt_delay", "driver_poll_burn_duty",
    "wire_latency", "wire_bandwidth", "ring_capacity",
)


@dataclass(frozen=True, slots=True)
class TestbedConfig:
    """Shape and timing of the whole platform — prototype *or* fabric.

    One config drives both testbed flavours through
    :func:`build_testbed`: with the default ``topology=None`` it shapes
    the two-island :class:`Testbed`; with a
    :class:`~repro.platform.FabricTopology` it shapes a K-island
    :class:`FabricTestbed` (``directory`` picks the control plane).
    Channel knobs live in :attr:`channel`. A field the chosen testbed
    would not read raises ``ValueError`` at construction.
    """

    seed: int = 1
    x86: X86Params = X86Params()
    ixp: IXPParams = IXPParams()
    #: The coordination-channel sub-config (latency, loss, reliability,
    #: hardware assistance).
    channel: ChannelConfig = ChannelConfig()
    #: IXP -> host interrupt moderation delay.
    interrupt_delay: int = us(50)
    #: Fraction of one Dom0 VCPU the polling messaging driver burns
    #: spinning on the rings (0 = pure interrupt mode, free).
    driver_poll_burn_duty: float = 0.0
    #: Wire link latency between client hosts and the IXP ports.
    wire_latency: int = us(100)
    #: Wire bandwidth in bytes/ns (default: 1 GbE).
    wire_bandwidth: float = 0.125
    #: Host message ring sizes, in descriptors.
    ring_capacity: int = 1024
    #: Enable structured tracing (off by default: it costs time). Also
    #: arms the control-loop observatory: the testbed attaches a
    #: :class:`~repro.obs.ControlLoopCollector` so causal spans are minted
    #: and assembled.
    tracing: bool = False
    #: Arm the fault domain: heartbeats + failure detectors on both
    #: agents, declared baselines for created VMs/flows, and the scripted
    #: :class:`~repro.faults.FaultPlan` injected at its simulation times.
    #: None (the default) constructs nothing — runs are bit-identical to
    #: an unarmed build.
    faults: Optional[FaultConfig] = None
    #: Build a K-island fabric instead of the two-island prototype.
    topology: Optional[FabricTopology] = None
    #: Directory flavour of a fabric build: ``"central"``,
    #: ``"hierarchical"`` or ``"gossip"``. The two-island prototype's
    #: controller is central, so without a topology only ``"central"``
    #: is accepted.
    directory: str = "central"

    def __post_init__(self) -> None:
        if self.directory not in DIRECTORY_KINDS:
            raise ValueError(
                f"TestbedConfig.directory must be one of {DIRECTORY_KINDS}, "
                f"got {self.directory!r}"
            )
        if self.topology is None:
            if self.directory != "central":
                raise ValueError(
                    f"TestbedConfig.directory={self.directory!r} needs a "
                    "topology; the two-island Testbed's controller is central"
                )
            return
        defaults = {f.name: f.default for f in fields(self)}
        for name in _PROTOTYPE_ONLY_FIELDS:
            if getattr(self, name) != defaults[name]:
                raise ValueError(
                    f"TestbedConfig.{name} shapes the two-island Testbed; "
                    "a fabric build (topology=...) does not read it"
                )
        if self.faults is not None and self.faults.plan.events:
            raise ValueError(
                "TestbedConfig.faults: a fabric build arms the failure "
                "detectors but injects no plan; inject link faults with "
                "CoordinationMesh.inject_link_fault"
            )


class ClientHost:
    """An external client machine: a NIC on the wire, no CPU model.

    The paper's clients ran on a separate dual-core box that was never the
    bottleneck, so client application logic executes untimed; only its
    traffic is real.
    """

    def __init__(self, sim: Simulator, name: str, nic: VirtualNIC):
        self.sim = sim
        self.name = name
        self.nic = nic

    def __repr__(self) -> str:
        return f"<ClientHost {self.name}>"


class Testbed:
    """The fully-wired two-island platform."""

    def __init__(self, config: Optional[TestbedConfig] = None):
        self.config = config or TestbedConfig()
        if self.config.topology is not None:
            raise ValueError(
                "this config declares a fabric topology; build it with "
                "build_testbed(config) (or FabricTestbed(config=config))"
            )
        self.sim = Simulator()
        self.rng = RandomStreams(self.config.seed)
        self.tracer = Tracer(self.sim, enabled=self.config.tracing)

        # Islands.
        self.x86 = X86Island(self.sim, self.config.x86, tracer=self.tracer)
        self.ixp = IXPIsland(self.sim, self.config.ixp, tracer=self.tracer)
        self.dom0 = self.x86.dom0

        # Host <-> IXP data path.
        self.pcie = PCIeBus(self.sim)
        self.rx_ring = MessageRing(self.sim, "ixp-to-host", capacity=self.config.ring_capacity)
        self.tx_ring = MessageRing(self.sim, "host-to-ixp", capacity=self.config.ring_capacity)
        self.driver = MessagingDriver(
            self.sim,
            self.dom0,
            self.rx_ring,
            self.tx_ring,
            interrupt_delay=self.config.interrupt_delay,
            poll_burn_duty=self.config.driver_poll_burn_duty,
            tracer=self.tracer,
        )
        self.bridge = XenBridge(self.sim, self.dom0, tracer=self.tracer)
        self.driver.connect_stack(self.bridge.submit)
        self.bridge.set_uplink(self.driver.transmit)
        self.ixp.attach_host(self.pcie, self.rx_ring, self.tx_ring)

        # Coordination channel + per-island agents.
        channel_config = self.config.channel
        loss = channel_config.loss_probability
        self.channel = CoordinationChannel(
            self.sim,
            latency=channel_config.effective_latency,
            loss_probability=loss,
            rng=self.rng.stream("channel-loss") if loss > 0 else None,
            tracer=self.tracer,
        )
        #: The reliable wrapper, when the experiment opted in; agents and
        #: the XScale then talk to its endpoints instead of the raw ones.
        self.reliable_channel: Optional[ReliableChannel] = None
        if channel_config.reliable:
            self.reliable_channel = ReliableChannel(
                self.channel,
                ReliableConfig(max_retries=channel_config.reliable_max_retries),
                tracer=self.tracer,
            )
            coord = self.reliable_channel
        else:
            coord = self.channel
        self.ixp.attach_channel(coord.endpoint("ixp"))
        self.ixp_agent = CoordinationAgent(
            self.sim, self.ixp, coord.endpoint("ixp"), tracer=self.tracer
        )
        self.x86_agent = CoordinationAgent(
            self.sim,
            self.x86,
            coord.endpoint("x86"),
            handler_vm=self.dom0,
            handling_cost=0 if channel_config.hardware else MESSAGE_HANDLING_COST,
            tracer=self.tracer,
        )

        # Global controller (a Dom0 function in the prototype, §2.3).
        self.controller = CentralDirectory(self.sim, tracer=self.tracer)
        self.controller.register_island(self.x86)
        self.controller.register_island(self.ixp)

        # The fault domain, when armed: a failure detector per agent
        # (heartbeats + miss thresholds + dead-letter feed) and the
        # scripted injector. With faults=None nothing below runs and the
        # platform is bit-identical to an unarmed build.
        self.detectors: dict[str, FailureDetector] = {}
        self.fault_injector: Optional[FaultInjector] = None
        if self.config.faults is not None:
            faults = self.config.faults
            self.detectors = {
                "ixp": FailureDetector(self.sim, self.ixp_agent, faults,
                                       tracer=self.tracer),
                "x86": FailureDetector(self.sim, self.x86_agent, faults,
                                       tracer=self.tracer),
            }
            self.fault_injector = FaultInjector(
                self.sim,
                faults.plan,
                channel=self.channel,
                agents={"ixp": self.ixp_agent, "x86": self.x86_agent},
                islands={"ixp": self.ixp, "x86": self.x86},
                tracer=self.tracer,
            )
            self.fault_injector.arm()

        # The control-loop observatory: constructing the collector is what
        # arms span minting platform-wide (the producers' Tracer.wants
        # gates open); with tracing off nothing is built and every span
        # guard stays a memoized False.
        self.observatory: Optional[ControlLoopCollector] = None
        if self.config.tracing:
            self.observatory = ControlLoopCollector(self.sim, self.tracer)
        #: The platform-wide span minter (shared with every policy).
        self.span_minter = SpanMinter.shared(self.tracer)

        self._clients: dict[str, ClientHost] = {}

    # -- deployment -----------------------------------------------------------

    def create_guest_vm(
        self,
        name: str,
        weight: Optional[int] = None,
        uses_ixp: bool = True,
        nic_rx_capacity: int = 2048,
    ) -> tuple[VirtualMachine, VirtualNIC]:
        """Boot a guest domain with a bridged NIC; optionally give it an
        IXP flow queue (VMs whose traffic transits the IXP).

        ``nic_rx_capacity`` is the netfront ring depth in packets; a slow
        guest overflows it and loses packets, like the real I/O path.
        """
        vm = self.x86.create_vm(name, weight=weight)
        nic = VirtualNIC(self.sim, name, rx_capacity=nic_rx_capacity)
        self.bridge.add_port(name, nic)
        queue = self.ixp.register_vm_flow(name) if uses_ixp else None
        if self.detectors:
            # Fault domain armed: the VM's boot-time knob values are its
            # declared local baselines — what each side falls back to on
            # peer-DOWN and the reference replayed deltas apply against.
            self.x86_agent.declare_baseline(EntityId(self.x86.name, name), vm.weight)
            if queue is not None:
                self.ixp_agent.declare_baseline(
                    EntityId(self.ixp.name, name), queue.service_weight
                )
        return vm, nic

    def add_client_host(self, name: str) -> ClientHost:
        """Attach an external client machine to the IXP's wire ports."""
        if name in self._clients:
            raise ValueError(f"client host {name!r} already attached")
        nic = VirtualNIC(self.sim, name)
        uplink = DuplexLink(
            self.sim,
            f"wire-{name}",
            bandwidth_bytes_per_ns=self.config.wire_bandwidth,
            latency=self.config.wire_latency,
            tracer=self.tracer,
        )
        # client -> IXP
        nic.attach_egress(uplink.forward.send)
        uplink.forward.connect(self.ixp.wire_sink())
        # IXP -> client
        uplink.backward.connect(nic.deliver)
        self.ixp.connect_peer(name, uplink.backward)
        client = ClientHost(self.sim, name, nic)
        self._clients[name] = client
        return client

    def vm_entity(self, vm_name: str) -> EntityId:
        """The coordination identity of a guest VM on the x86 island."""
        return EntityId(self.x86.name, vm_name)

    # -- convenience ---------------------------------------------------------------

    def run(self, until: int) -> None:
        """Advance the whole platform to time ``until``."""
        self.sim.run(until=until)


class FabricTestbed:
    """A K-island platform built from a declarative fabric spec.

    Where :class:`Testbed` hand-wires the paper's two-island prototype,
    a ``FabricTestbed`` consumes a :class:`~repro.platform.FabricTopology`:
    one x86 island per declared name, a :class:`~repro.platform.mesh.
    CoordinationMesh` carrying the spec's links at their declared
    latencies, and a :class:`~repro.platform.directory.Directory` of the
    requested flavour (``"central"``, ``"hierarchical"`` or ``"gossip"``)
    registered over all of it. Every mesh agent resolves remote entities
    through the directory, so changing the control plane's shape is a
    one-argument change here.

    Built from ``TestbedConfig(topology=..., directory=...)``, directly
    or through :func:`build_testbed`, so fabric runs are shaped by the
    same :class:`TestbedConfig` as prototype runs.
    """

    def __init__(self, config: TestbedConfig):
        if config.topology is None:
            raise ValueError("FabricTestbed needs TestbedConfig(topology=...)")
        self.config = config
        topology = config.topology
        self.topology = topology
        self.directory_kind = config.directory
        seed = config.seed
        self.sim = Simulator()
        self.rng = RandomStreams(seed)
        self.tracer = Tracer(self.sim, enabled=config.tracing)
        params = config.x86

        #: name -> island, in topology order.
        self.islands: dict[str, X86Island] = {}
        self.mesh = CoordinationMesh(
            self.sim, latency=topology.link_latency, tracer=self.tracer
        )
        for name in topology.islands:
            island = X86Island(self.sim, params, name=name, tracer=self.tracer)
            self.islands[name] = island
            self.mesh.add_island(island, handler_vm=island.dom0)
        self.mesh.apply_topology(topology)

        #: The pluggable control plane.
        self.directory = build_directory(
            config.directory, self.sim, topology=topology,
            tracer=self.tracer, seed=seed,
        )
        for island in self.islands.values():
            self.directory.register_island(island)
        self.mesh.attach_directory(self.directory)

        if config.faults is not None:
            self.mesh.arm_fault_domain(config.faults)

    def run(self, until: int) -> None:
        """Advance the whole fabric to time ``until``."""
        self.sim.run(until=until)

    def __repr__(self) -> str:
        return (
            f"<FabricTestbed islands={len(self.islands)} "
            f"directory={self.directory_kind!r}>"
        )


def build_testbed(config: Optional[TestbedConfig] = None):
    """The unified entry point: one config, the right platform.

    Returns a :class:`FabricTestbed` when ``config.topology`` declares a
    fabric, otherwise the classic two-island :class:`Testbed`. Every
    experiment and tool that builds a platform from a
    :class:`TestbedConfig` should come through here, so adding a fabric
    to a run is a config edit, not a call-site rewrite.
    """
    config = config or TestbedConfig()
    if config.topology is not None:
        return FabricTestbed(config=config)
    return Testbed(config)
