"""Extension experiment: coordination-mechanism scalability (paper §5).

"Also ongoing are evaluations of the scalability of such mechanisms to
large-scale multicore platforms, part of which involve the use of
distributed coordination algorithms across multiple island resource
managers."

K x86 islands ("cells") each run the fabric sweep's
:class:`~repro.experiments.fabric.ProbeCell`: a latency-sensitive probe
VM and two CPU hogs whose hot phases rotate across cells. Three arms
per K:

* ``none``        — no coordination: probes suffer during their cell's
                    hot phase;
* ``centralized`` — a star mesh: every cell streams load reports to the
                    hub's Dom0, which Tunes remote probe weights. All
                    coordination messages concentrate at the hub (O(K));
* ``distributed`` — each cell's manager tunes locally and only exchanges
                    heartbeats with its two ring neighbours (O(1) per
                    cell, no concentration point).

Both coordinated arms should deliver comparable QoS; what scales
differently is where the messages land.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..platform import EntityId, FabricTopology
from ..platform.mesh import CoordinationMesh
from ..sim import RandomStreams, Simulator, seconds, us
from ..x86 import X86Island, X86Params
from .fabric import POLICY_PERIOD, LoadReportMessage, ProbeCell
from .report import render_table

ARMS = ("none", "centralized", "distributed")

#: Each cell's hogs are hot for one phase of this length in turn.
HOT_PHASE = seconds(2)
#: One-way latency of every mesh link.
LINK_LATENCY = us(150)


@dataclass
class ScalabilityArmResult:
    """One (arm, K) measurement."""

    arm: str
    num_cells: int
    mean_probe_latency_ms: float
    worst_cell_latency_ms: float
    hub_messages: int
    max_cell_messages: int
    total_messages: int
    #: Kernel events the run processed.
    events: int


def _build_cells(sim: Simulator, count: int) -> list[ProbeCell]:
    rng = RandomStreams(17)
    return [
        ProbeCell(
            X86Island(sim, X86Params(num_cpus=2), name=f"cell-{index}"),
            rng.stream(f"probe-{index}"), HOT_PHASE, count, index,
        )
        for index in range(count)
    ]


def run_scalability_arm(arm: str, num_cells: int, duration: int = seconds(12)) -> ScalabilityArmResult:
    """Run one arm at one cell count."""
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")
    sim = Simulator()
    cells = _build_cells(sim, num_cells)
    by_name = {cell.island.name: cell for cell in cells}
    names = tuple(by_name)
    mesh = CoordinationMesh(sim, latency=LINK_LATENCY)
    for cell in cells:
        mesh.add_island(cell.island, handler_vm=cell.island.dom0)

    heartbeat_counts = {name: 0 for name in names}

    if arm == "centralized":
        hub = names[0]
        mesh.apply_topology(FabricTopology.star(names, link_latency=LINK_LATENCY))

        def on_report(message: LoadReportMessage) -> None:
            heartbeat_counts[hub] += 1
            delta = by_name[message.island].decide(message.probe_latency_ns)
            if delta:
                mesh.agent(hub, message.island).send_tune(
                    EntityId(message.island, "probe"), delta
                )

        for name in mesh.neighbors(hub):
            mesh.agent(hub, name).register_message_handler(LoadReportMessage, on_report)

        def reporter(sim, name):
            while True:
                yield sim.timeout(POLICY_PERIOD)
                mesh.agent(name, hub).endpoint.send(LoadReportMessage(
                    island=name, probe_latency_ns=by_name[name].reset_recent()
                ))

        for name in names[1:]:
            sim.spawn(reporter(sim, name), name=f"report-{name}")

    elif arm == "distributed":
        mesh.apply_topology(FabricTopology.ring(names, link_latency=LINK_LATENCY))

        def on_heartbeat(message: LoadReportMessage, receiver: str) -> None:
            heartbeat_counts[receiver] += 1

        for name in names:
            for neighbor in mesh.neighbors(name):
                mesh.agent(name, neighbor).register_message_handler(
                    LoadReportMessage, lambda m, receiver=name: on_heartbeat(m, receiver)
                )

        def local_controller(sim, name):
            cell = by_name[name]
            while True:
                yield sim.timeout(POLICY_PERIOD)
                mean = cell.reset_recent()
                # Local decision: the cell's own manager tunes itself.
                delta = cell.decide(mean)
                if delta:
                    cell.island.apply_tune(EntityId(name, "probe"), delta)
                # Gossip a heartbeat to ring neighbours only.
                for neighbor in mesh.neighbors(name):
                    mesh.agent(name, neighbor).endpoint.send(
                        LoadReportMessage(island=name, probe_latency_ns=mean)
                    )

        for name in names:
            sim.spawn(local_controller(sim, name), name=f"ctrl-{name}")

    sim.run(until=duration)

    latencies = [cell.overall.mean / 1e6 for cell in cells]
    per_cell_messages = {
        name: heartbeat_counts[name] + mesh.messages_handled_at(name)
        for name in by_name
    }
    hub_messages = per_cell_messages.get(names[0], 0) if arm != "none" else 0
    return ScalabilityArmResult(
        arm=arm,
        num_cells=num_cells,
        mean_probe_latency_ms=sum(latencies) / len(latencies),
        worst_cell_latency_ms=max(latencies),
        hub_messages=hub_messages,
        max_cell_messages=max(per_cell_messages.values()) if arm != "none" else 0,
        total_messages=sum(per_cell_messages.values()),
        events=sim.events,
    )


def run_scalability(cell_counts=(2, 4, 8)) -> dict[tuple[str, int], ScalabilityArmResult]:
    """The full arm x K sweep."""
    results = {}
    for count in cell_counts:
        for arm in ARMS:
            results[(arm, count)] = run_scalability_arm(arm, count)
    return results


def render_scalability(results: dict[tuple[str, int], ScalabilityArmResult]) -> str:
    """Tabulate QoS and message concentration per arm and K."""
    rows = []
    for (arm, count), result in sorted(results.items(), key=lambda kv: (kv[0][1], kv[0][0])):
        rows.append(
            (
                str(count),
                arm,
                f"{result.mean_probe_latency_ms:.2f}",
                f"{result.worst_cell_latency_ms:.2f}",
                str(result.hub_messages),
                str(result.max_cell_messages),
            )
        )
    return render_table(
        ["Cells", "Arm", "Mean probe lat (ms)", "Worst cell (ms)",
         "Hub msgs", "Max per-cell msgs"],
        rows,
        title="Extension: coordination scalability across islands",
    )
