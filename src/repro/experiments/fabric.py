"""Extension experiment: control-plane fabrics at scale (paper §5).

"Also ongoing are evaluations of the scalability of such mechanisms to
large-scale multicore platforms, part of which involve the use of
distributed coordination algorithms across multiple island resource
managers."

Where :mod:`~repro.experiments.scalability` compares coordination
*algorithms* over star and ring meshes, this sweep compares
control-plane *fabrics* built from declarative topologies: K x86
islands, each a :class:`ProbeCell` (a latency-sensitive probe VM and two
duty-cycled CPU hogs) under the same local QoS policy — only the
directory changes shape:

* ``central``      — a star behind one hub
  (:class:`~repro.platform.CentralDirectory`): every load report and
  every discovery message lands on the hub, O(K) concentration;
* ``hierarchical`` — islands clustered behind aggregators
  (:class:`~repro.platform.HierarchicalDirectory`): raw reports stop at
  the local aggregator and coalesce into one upward summary per period,
  O(fanout) concentration;
* ``gossip``       — a ring with no rendezvous point
  (:class:`~repro.platform.GossipDirectory`): anti-entropy rounds spread
  ownership epidemically, O(1) messages per node per round.

Mid-run, one island is partitioned away from the control plane and a new
entity registers on it while isolated; after the heal, the sweep measures
*discovery convergence* — how long until the whole fabric can resolve
the new entity. QoS must hold across arms: the fabrics differ in where
control messages land, not in what the platform delivers.

The control loops live here once for every K-island experiment:
:func:`report_to_hub` is the central loop (this sweep's ``central`` arm
and ``scalability``'s ``centralized`` arm), and
:meth:`ProbeCell.tune_locally` is the one local policy step (the
per-island controllers here and in ``scalability``, and each cluster
agent of ``fabric_sharded``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..metrics import OnlineStats
from ..platform import EntityId, FabricTopology
from ..sim import ms, seconds
from ..testbed import FabricTestbed, TestbedConfig
from .report import render_table

ARMS = ("central", "hierarchical", "gossip")

#: Probe service: a latency-sensitive 15 ms task every 20 ms (75% of a
#: core) — heavy enough that an equal-weight island under hog pressure
#: pushes it into the OVER band, where it suffers.
PROBE_PERIOD = ms(20)
PROBE_DEMAND = ms(15)
LATENCY_HIGH = ms(3)
LATENCY_LOW = ms(1.5)
POLICY_PERIOD = ms(250)
#: Hog duty cycle: each island's hogs are hot one slot in four, phases
#: staggered by island index — aggregate pressure is K-independent, so a
#: K=8 and a K=128 fabric stress each island identically.
HOT_SLOT = ms(500)
DUTY_SLOTS = 4
#: Cluster fanout of the hierarchical arm.
FANOUT = 8
#: One hog burst: a hot hog executes this much, a cold one sleeps it.
HOG_BURST = ms(5)


@dataclass(frozen=True, slots=True)
class LoadReportMessage:
    """Island -> coordinator (or neighbour) load telemetry."""

    island: str
    probe_latency_ns: float


class ProbeCell:
    """One island's workload and its local QoS rule.

    A latency-sensitive ``probe`` VM runs :data:`PROBE_DEMAND` every
    :data:`PROBE_PERIOD`, first at an offset drawn from ``jitter``. Two
    hog VMs burn CPU while hot: in slot ``phase`` of every ``slots``
    slots of ``slot`` ns. Under that pressure an equal-weight probe's
    credit inflow (1/3 of the pool) drops below its 75% burn and it
    falls into the OVER band, where it suffers; :meth:`decide` is the
    ±128 weight rule that answers it, and :meth:`tune_locally` the one
    local policy step every K-island experiment's island manager takes.

    Its loops, like :func:`report_to_hub`'s, sleep with ``yield <int>``:
    the allocation-free twin of ``yield sim.timeout(<int>)``, with the
    same sequence number and a None resume value.
    """

    def __init__(self, island, jitter, slot: int, slots: int, phase: int):
        self.island = island
        self.probe = island.create_vm("probe")
        hogs = [island.create_vm(f"hog-{h}") for h in range(2)]
        #: Probe latency over the whole run, and since the last reset.
        self.overall = OnlineStats()
        self.recent = OnlineStats()
        #: Tunes :meth:`tune_locally` applied to the probe.
        self.tunes = 0
        sim = island.sim
        sim.spawn(self._probe_loop(sim, jitter), name=f"probe-{island.name}")
        for hog in hogs:
            sim.spawn(
                _hog_loop(sim, hog, slot, slots, phase), name=f"hog-{island.name}"
            )

    def _probe_loop(self, sim, jitter):
        yield jitter.randrange(0, PROBE_PERIOD)
        while True:
            start = sim.now
            yield self.probe.execute(PROBE_DEMAND, "user")
            latency = sim.now - start - PROBE_DEMAND
            self.overall.add(latency)
            self.recent.add(latency)
            yield PROBE_PERIOD

    def reset_recent(self) -> float:
        """Mean probe latency since the last reset (0 if none), then reset."""
        mean = self.recent.mean if self.recent.count else 0.0
        self.recent = OnlineStats()
        return mean

    def decide(self, mean: float) -> int:
        """The probe weight delta a ``mean`` latency calls for."""
        if mean > LATENCY_HIGH:
            return +128
        if mean < LATENCY_LOW and self.probe.weight > 256:
            return -128
        return 0

    def tune_locally(self) -> float:
        """One local policy step: decide on the mean probe latency since
        the last reset and Tune this island's own probe. Returns the mean."""
        mean = self.reset_recent()
        delta = self.decide(mean)
        if delta:
            self.island.apply_tune(EntityId(self.island.name, "probe"), delta)
            self.tunes += 1
        return mean


def _hog_loop(sim, vm, slot: int, slots: int, phase: int):
    while True:
        if (sim.now // slot) % slots == phase:
            yield vm.execute(HOG_BURST, "user")
        else:
            yield HOG_BURST


def report_to_hub(
    testbed: FabricTestbed, cells: dict[str, ProbeCell], counts: dict[str, int]
) -> None:
    """The central control loop: every other island streams a load report
    to the topology root each policy period, and the root's manager
    decides and Tunes the reporter's probe over the mesh, so every control
    message concentrates at the hub. ``counts`` tallies the reports the
    hub handles (the mesh counts only Tunes, Triggers and relays)."""
    mesh, hub = testbed.mesh, testbed.topology.root

    def on_report(message: LoadReportMessage) -> None:
        counts[hub] += 1
        delta = cells[message.island].decide(message.probe_latency_ns)
        if delta:
            mesh.agent(hub, message.island).send_tune(
                EntityId(message.island, "probe"), delta
            )

    for neighbor in mesh.neighbors(hub):
        mesh.agent(hub, neighbor).register_message_handler(LoadReportMessage, on_report)

    def reporter(name):
        while True:
            yield POLICY_PERIOD
            mesh.agent(name, hub).endpoint.send(LoadReportMessage(
                island=name, probe_latency_ns=cells[name].reset_recent()
            ))

    for name in cells:
        if name != hub:
            testbed.sim.spawn(reporter(name), name=f"report-{name}")


@dataclass
class FabricArmResult:
    """One (arm, K) measurement."""

    arm: str
    num_islands: int
    mean_probe_latency_ms: float
    worst_probe_latency_ms: float
    #: Control-plane + coordination messages at the busiest node.
    max_node_messages: int
    #: ... and the fabric-wide per-node mean.
    mean_node_messages: float
    #: Messages at the topology root (the hub in the central arm).
    root_messages: int
    total_messages: int
    #: Discovery convergence after the partition heals: how long until
    #: the entity registered *during* the partition is fabric-wide
    #: resolvable. None if it never converged before the run ended.
    convergence_ms: float | None
    #: Dead-lettered frames across the mesh (0 expected at 0% loss).
    dead_letters: int
    #: Kernel events the run processed.
    events: int


def _topology(arm: str, names: tuple[str, ...]) -> FabricTopology:
    if arm == "central":
        return FabricTopology.star(names)
    if arm == "hierarchical":
        return FabricTopology.clustered(names, fanout=FANOUT)
    if arm == "gossip":
        return FabricTopology.ring(names)
    raise ValueError(f"unknown arm {arm!r}")


def run_fabric_arm(
    arm: str, num_islands: int, duration: int = seconds(4), seed: int = 1
) -> FabricArmResult:
    """Run one fabric arm at one island count."""
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}; expected one of {ARMS}")
    names = tuple(f"isle-{i}" for i in range(num_islands))
    testbed = FabricTestbed(
        config=TestbedConfig(topology=_topology(arm, names), directory=arm, seed=seed)
    )
    sim, directory, mesh = testbed.sim, testbed.directory, testbed.mesh
    cells = {
        name: ProbeCell(
            testbed.islands[name], testbed.rng.stream(f"probe-{index}"),
            HOT_SLOT, DUTY_SLOTS, index % DUTY_SLOTS,
        )
        for index, name in enumerate(names)
    }
    #: Custom control messages (load reports) handled per node — the mesh
    #: only counts Tunes/Triggers/relays, so reports are tallied here.
    report_counts: dict[str, int] = {name: 0 for name in names}

    if arm == "central":
        report_to_hub(testbed, cells, report_counts)
    else:
        # Hierarchical and gossip arms: each island's own manager applies
        # the same policy locally. What differs is the control plane
        # around it — hierarchical islands stream raw reports to their
        # aggregator (coalesced upward once per period); gossip islands
        # rely on the directory's anti-entropy rounds alone.
        def local_controller(name):
            while True:
                yield POLICY_PERIOD
                cells[name].tune_locally()
                if arm == "hierarchical":
                    directory.report_load(name)
                    report_counts[name] += 1

        for name in names:
            sim.spawn(local_controller(name), name=f"ctrl-{name}")

    # Partition one non-root island away from the control plane mid-run;
    # while isolated, a new entity registers on it. Convergence is how
    # long after the heal the whole fabric can resolve that entity.
    target = names[-1]
    partition_at = duration // 2
    heal_at = (duration * 5) // 8
    spare_entity = EntityId(target, "spare")

    def _partition() -> None:
        directory.isolate(target)
        testbed.islands[target].create_vm("spare")

    sim.call_at(partition_at, _partition)
    sim.call_at(heal_at, lambda: directory.heal(target))

    sim.run(until=duration)

    latencies = {name: cells[name].overall.mean / 1e6 for name in names}
    node_messages = {
        name: (directory.messages_at(name) + mesh.messages_handled_at(name)
               + report_counts[name])
        for name in names
    }
    visible = directory.visible_at(spare_entity)
    convergence = (visible - heal_at) / 1e6 if visible is not None else None
    return FabricArmResult(
        arm=arm,
        num_islands=num_islands,
        mean_probe_latency_ms=sum(latencies.values()) / len(latencies),
        worst_probe_latency_ms=max(latencies.values()),
        max_node_messages=max(node_messages.values()),
        mean_node_messages=sum(node_messages.values()) / len(node_messages),
        root_messages=node_messages[testbed.topology.root],
        total_messages=sum(node_messages.values()),
        convergence_ms=convergence,
        dead_letters=mesh.dead_letters(),
        events=sim.events,
    )


def run_fabric(
    island_counts=(8, 32, 128), duration: int = seconds(4), seed: int = 1
) -> dict[tuple[str, int], FabricArmResult]:
    """The full arm x K sweep."""
    results = {}
    for count in island_counts:
        for arm in ARMS:
            results[(arm, count)] = run_fabric_arm(
                arm, count, duration=duration, seed=seed
            )
    return results


def render_fabric(results: dict[tuple[str, int], FabricArmResult]) -> str:
    """Tabulate QoS, concentration and convergence per arm and K."""
    rows = []
    for (arm, count), r in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        rows.append((
            str(count),
            arm,
            f"{r.mean_probe_latency_ms:.2f}",
            f"{r.worst_probe_latency_ms:.2f}",
            str(r.root_messages),
            str(r.max_node_messages),
            f"{r.mean_node_messages:.1f}",
            "-" if r.convergence_ms is None else f"{r.convergence_ms:.1f}",
        ))
    return render_table(
        ["K", "Fabric", "Mean probe (ms)", "Worst probe (ms)",
         "Root msgs", "Max node msgs", "Mean node msgs", "Converge (ms)"],
        rows,
        title="Extension: control-plane fabrics at scale "
              "(concentration and post-partition discovery convergence)",
    )
