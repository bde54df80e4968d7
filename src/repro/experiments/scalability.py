"""Extension experiment: coordination-mechanism scalability (paper §5).

"Also ongoing are evaluations of the scalability of such mechanisms to
large-scale multicore platforms, part of which involve the use of
distributed coordination algorithms across multiple island resource
managers."

K x86 islands ("cells") form a :class:`~repro.testbed.FabricTestbed`
world, and each runs the fabric sweep's
:class:`~repro.experiments.fabric.ProbeCell`: a latency-sensitive probe
VM and two CPU hogs whose hot phases rotate across cells. Three arms
per K:

* ``none``        — no coordination over a star: probes suffer during
                    their cell's hot phase;
* ``centralized`` — a star running the fabric sweep's central loop
                    (:func:`~repro.experiments.fabric.report_to_hub`):
                    every cell streams load reports to the hub's Dom0,
                    which Tunes remote probe weights. All coordination
                    messages concentrate at the hub (O(K));
* ``distributed`` — a ring: each cell's manager takes the local policy
                    step (:meth:`~repro.experiments.fabric.ProbeCell.
                    tune_locally`) and only exchanges heartbeats with its
                    two ring neighbours (O(1) per cell, no concentration
                    point).

Both coordinated arms should deliver comparable QoS; what scales
differently is where the messages land. The workload is this module's
own — 2 s hot phases per cell, seed 17, 150 µs links, 12 s runs and no
partition — so it stays a separate experiment from the fabric sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..platform import FabricTopology
from ..sim import seconds, us
from ..testbed import FabricTestbed, TestbedConfig
from .fabric import POLICY_PERIOD, LoadReportMessage, ProbeCell, report_to_hub
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


def run_scalability_arm(arm: str, num_cells: int, duration: int = seconds(12)) -> ScalabilityArmResult:
    """Run one arm at one cell count."""
    if arm not in ARMS:
        raise ValueError(f"unknown arm {arm!r}")
    names = tuple(f"cell-{index}" for index in range(num_cells))
    shape = FabricTopology.ring if arm == "distributed" else FabricTopology.star
    testbed = FabricTestbed(config=TestbedConfig(
        topology=shape(names, link_latency=LINK_LATENCY), seed=17
    ))
    sim, mesh = testbed.sim, testbed.mesh
    cells = {
        name: ProbeCell(
            testbed.islands[name], testbed.rng.stream(f"probe-{index}"),
            HOT_PHASE, num_cells, index,
        )
        for index, name in enumerate(names)
    }
    heartbeat_counts = {name: 0 for name in names}

    if arm == "centralized":
        report_to_hub(testbed, cells, heartbeat_counts)

    elif arm == "distributed":
        def on_heartbeat(message: LoadReportMessage, receiver: str) -> None:
            heartbeat_counts[receiver] += 1

        for name in names:
            for neighbor in mesh.neighbors(name):
                mesh.agent(name, neighbor).register_message_handler(
                    LoadReportMessage, lambda m, receiver=name: on_heartbeat(m, receiver)
                )

        def local_controller(name):
            cell = cells[name]
            while True:
                yield POLICY_PERIOD
                # Local decision: the cell's own manager tunes itself,
                # then heartbeats its ring neighbours only.
                mean = cell.tune_locally()
                for neighbor in mesh.neighbors(name):
                    mesh.agent(name, neighbor).endpoint.send(
                        LoadReportMessage(island=name, probe_latency_ns=mean)
                    )

        for name in names:
            sim.spawn(local_controller(name), name=f"ctrl-{name}")

    sim.run(until=duration)

    latencies = [cell.overall.mean / 1e6 for cell in cells.values()]
    per_cell_messages = {
        name: heartbeat_counts[name] + mesh.messages_handled_at(name)
        for name in names
    }
    return ScalabilityArmResult(
        arm=arm,
        num_cells=num_cells,
        mean_probe_latency_ms=sum(latencies) / len(latencies),
        worst_cell_latency_ms=max(latencies),
        hub_messages=per_cell_messages[names[0]],
        max_cell_messages=max(per_cell_messages.values()),
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
