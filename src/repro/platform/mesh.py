"""Multi-island coordination meshes.

The paper's prototype has two islands and one channel; its future work
(§5) asks about "the scalability of such mechanisms to large-scale
multicore platforms, part of which involve the use of distributed
coordination algorithms across multiple island resource managers". A
:class:`CoordinationMesh` wires any number of islands with point-to-point
channels (each pair gets its own mailbox, as tiled hardware would), and
exposes per-link agents so both centralized (star) and distributed
(neighbour-gossip) coordination algorithms can be built on the same
Tune/Trigger vocabulary.

A mesh is the transport of a declared
:class:`~repro.platform.fabric.FabricTopology`: :meth:`apply_topology`
wires the spec's links at their declared latencies, :meth:`attach_directory`
binds every agent to a :class:`~repro.platform.directory.Directory` so
messages for non-local entities relay hop by hop along
:meth:`~repro.platform.fabric.FabricTopology.next_hop` routes, and the
PR-5 fault domain extends per link: :meth:`arm_fault_domain` hangs a
failure detector on every agent, :meth:`inject_link_fault` replays a
:class:`~repro.faults.FaultPlan` against one specific link.
"""

from __future__ import annotations

from typing import Optional

from ..coordination import CoordinationAgent
from ..faults import FailureDetector, FaultInjector
from ..interconnect import CoordinationChannel
from ..sim import Simulator, Tracer
from ..x86.vm import VirtualMachine
from .fabric import FabricTopology
from .island import Island


class CoordinationMesh:
    """Point-to-point coordination links among registered islands."""

    def __init__(self, sim: Simulator, latency: int, tracer: Optional[Tracer] = None):
        self.sim = sim
        #: Default one-way link latency; :meth:`connect` can override per
        #: link (and :meth:`apply_topology` does, from the spec).
        self.latency = latency
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._islands: dict[str, Island] = {}
        self._handler_vms: dict[str, Optional[VirtualMachine]] = {}
        #: (from, to) -> agent whose sends travel from -> to and whose
        #: receive side applies messages at `from`'s island... see link().
        self._agents: dict[tuple[str, str], CoordinationAgent] = {}
        #: {a, b} -> the raw channel carrying that link.
        self._channels: dict[frozenset, CoordinationChannel] = {}
        #: (from, to) -> failure detector, once the fault domain is armed.
        self._detectors: dict[tuple[str, str], FailureDetector] = {}
        self._injectors: list[FaultInjector] = []
        #: The declared fabric shape, once applied — used for next-hop
        #: routing of forwarded messages.
        self.topology: Optional[FabricTopology] = None
        #: The attached control-plane directory, once attached.
        self.directory = None

    def add_island(self, island: Island, handler_vm: Optional[VirtualMachine] = None) -> None:
        """Register an island (``handler_vm`` pays for message handling)."""
        if island.name in self._islands:
            raise ValueError(f"island {island.name!r} already in mesh")
        self._islands[island.name] = island
        self._handler_vms[island.name] = handler_vm

    def islands(self) -> list[Island]:
        """All islands, in registration order."""
        return list(self._islands.values())

    def connect(self, name_a: str, name_b: str, latency: Optional[int] = None) -> None:
        """Create the (bidirectional) link between two islands.

        ``latency`` overrides the mesh default for this one link — the
        knob a topology spec turns to make uplinks slower than
        intra-cluster hops.
        """
        if name_a == name_b:
            raise ValueError("cannot connect an island to itself")
        if (name_a, name_b) in self._agents:
            raise ValueError(f"link {name_a!r}<->{name_b!r} already exists")
        channel = CoordinationChannel(
            self.sim,
            latency=self.latency if latency is None else latency,
            a_name=name_a, b_name=name_b,
            tracer=self.tracer,
        )
        agent_a = CoordinationAgent(
            self.sim,
            self._islands[name_a],
            channel.endpoint(name_a),
            handler_vm=self._handler_vms[name_a],
            tracer=self.tracer,
        )
        agent_b = CoordinationAgent(
            self.sim,
            self._islands[name_b],
            channel.endpoint(name_b),
            handler_vm=self._handler_vms[name_b],
            tracer=self.tracer,
        )
        self._agents[(name_a, name_b)] = agent_a
        self._agents[(name_b, name_a)] = agent_b
        self._channels[frozenset((name_a, name_b))] = channel
        if self.directory is not None:
            agent_a.attach_directory(self.directory, self._forwarder(name_a))
            agent_b.attach_directory(self.directory, self._forwarder(name_b))

    # -- fabric wiring ------------------------------------------------------

    def apply_topology(self, topology: FabricTopology) -> None:
        """Wire every link of a declared fabric at its declared latency.

        Islands named by the topology must already be in the mesh
        (:meth:`add_island` decides handler VMs; the spec only decides
        shape). Links that already exist are left untouched.
        """
        missing = [name for name in topology.islands if name not in self._islands]
        if missing:
            raise ValueError(f"topology names islands not in the mesh: {missing}")
        self.topology = topology
        for name_a, name_b, latency in topology.links():
            if (name_a, name_b) not in self._agents:
                self.connect(name_a, name_b, latency=latency)

    def attach_directory(self, directory) -> None:
        """Bind every agent (current and future) to the control plane.

        Agents resolve non-local entities through ``directory`` and relay
        them along the topology's next-hop routes — a Tune addressed to
        any island can be dropped onto any link and find its way.
        """
        self.directory = directory
        for (frm, _to), agent in self._agents.items():
            agent.attach_directory(directory, self._forwarder(frm))

    def _forwarder(self, at: str):
        """The relay hook for agents at island ``at``: route one hop
        toward the owning island (topology route, or a direct link)."""

        def forward(owner: str, message) -> bool:
            if self.topology is not None:
                hop = self.topology.next_hop(at, owner)
            else:
                hop = owner if (at, owner) in self._agents else None
            if hop is None:
                return False
            relay = self._agents.get((at, hop))
            if relay is None or relay.crashed:
                return False
            relay.endpoint.send(message)
            return True

        return forward

    # -- fault domain -------------------------------------------------------

    def arm_fault_domain(self, config) -> None:
        """Hang a :class:`~repro.faults.FailureDetector` on every agent:
        heartbeats flow on every link, each side walks its peer
        UP -> SUSPECT -> DOWN independently. Arming twice is a no-op for
        already-covered links (new links from later ``connect`` calls are
        covered by calling this again)."""
        for key, agent in self._agents.items():
            if key not in self._detectors:
                self._detectors[key] = FailureDetector(
                    self.sim, agent, config, tracer=self.tracer
                )

    def detector(self, from_island: str, to_island: str):
        """The failure detector at ``from_island`` watching its peer over
        the link toward ``to_island`` (fault domain must be armed)."""
        return self._detectors[(from_island, to_island)]

    def inject_link_fault(self, plan, name_a: str, name_b: str):
        """Arm a :class:`~repro.faults.FaultPlan` against one link only.

        Blackouts block senders on this link's channel alone; crashes and
        stalls named ``name_a``/``name_b`` hit this link's agents alone —
        the rest of the mesh never sees the fault. Returns the armed
        :class:`~repro.faults.FaultInjector` (its ``log`` records fires).
        """
        channel = self.channel(name_a, name_b)
        injector = FaultInjector(
            self.sim, plan,
            channel=channel,
            agents={
                name_a: self._agents[(name_a, name_b)],
                name_b: self._agents[(name_b, name_a)],
            },
            islands={name: self._islands[name] for name in (name_a, name_b)},
            tracer=self.tracer,
        )
        injector.arm()
        self._injectors.append(injector)
        return injector

    # -- lookups ------------------------------------------------------------

    def agent(self, from_island: str, to_island: str) -> CoordinationAgent:
        """The agent at ``from_island`` on its link toward ``to_island``.

        Its ``send_*`` methods deliver to ``to_island``; its receive side
        applies messages arriving *from* ``to_island``.
        """
        return self._agents[(from_island, to_island)]

    def channel(self, name_a: str, name_b: str) -> CoordinationChannel:
        """The raw channel carrying the ``name_a`` <-> ``name_b`` link."""
        return self._channels[frozenset((name_a, name_b))]

    def neighbors(self, name: str) -> list[str]:
        """Islands this one has links to."""
        return [to for (frm, to) in self._agents if frm == name]

    def messages_handled_at(self, name: str) -> int:
        """Coordination messages handled at an island across all its
        links: Tunes+Triggers applied locally plus messages relayed
        onward for other islands (relays cost this island's manager a
        receive+dispatch too)."""
        total = 0
        for (frm, _to), agent in self._agents.items():
            if frm == name:
                total += (agent.tunes_applied + agent.triggers_applied
                          + agent.forwarded_messages)
        return total

    def dead_letters(self) -> int:
        """Messages lost for good across every link: the links are raw
        mailboxes with no retransmission, so every message a link dropped
        (lost or blacked out) is a dead letter."""
        return sum(channel.stats()["dropped"] for channel in self._channels.values())
