"""The benchmark's workloads: seeded, deterministic runs of the paper's
two-island scenarios and of the gossip fabric, driven through public
entry points only.

Each workload is one function ``run(seed, clock) -> Outcome``. It builds
its world, calls ``clock.ready()`` once the world is ready to run, then
advances simulated time in fixed slices, calling ``clock.lap()`` after
each one. The slices are the same on every repetition, which is what
lets the harness take a per-slice minimum across repetitions.
"""

from __future__ import annotations

import functools
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.apps.mplayer import DOM1, deploy_mplayer
from repro.apps.rubis import RubisConfig, deploy_rubis
from repro.experiments import fabric as fabric_experiment
from repro.experiments.mplayer import trigger_config
from repro.sim import Simulator, ms, seconds


class SetupDone(Exception):
    """Raised at world-ready by a clock that times set-up only."""


class Clock:
    """Host timestamps of one repetition: start, world ready, slice ends.

    A clock made with ``setup_only`` stops the repetition at world-ready
    by raising :class:`SetupDone`. A clock given a ``profiler`` runs it
    from world-ready to the last slice's end, so the trace covers exactly
    the simulation that ``host_s`` times.
    """

    def __init__(self, setup_only: bool = False, profiler=None):
        self.setup_only = setup_only
        self.profiler = profiler
        self.stamps = [time.perf_counter()]

    def ready(self) -> None:
        self.stamps.append(time.perf_counter())
        if self.setup_only:
            raise SetupDone
        if self.profiler is not None:
            self.profiler.enable()

    def lap(self) -> None:
        self.stamps.append(time.perf_counter())

    def done(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()

    @property
    def setup_s(self) -> float:
        return self.stamps[1] - self.stamps[0]

    @property
    def slice_s(self) -> list[float]:
        return [b - a for a, b in zip(self.stamps[1:], self.stamps[2:])]


@dataclass
class Outcome:
    """What one repetition produced, besides its timings."""

    #: The end-to-end simulated metrics (generic slots, see README.md).
    qos: dict[str, float]
    #: The scenario's own simulated results under their paper names.
    results: dict[str, float]
    #: Exact per-layer counts read from public counters after the run.
    counters: dict[str, float]
    #: Failed output checks; empty when the repetition is correct.
    problems: list[str] = field(default_factory=list)

    def signature(self) -> tuple:
        """Everything that must repeat exactly for a seed."""
        return tuple(sorted({**self.qos, **self.results, **self.counters}.items()))


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, Clock], Outcome]


#: Per-layer counters every workload reports (0 where a layer is absent),
#: with their units.
COUNTERS = {
    "sim.events": "count",
    "ixp.classified": "count",
    "ixp.flowq_enqueued": "count",
    "ixp.flowq_dropped": "count",
    "ixp.flowq_hwm_kb": "KiB",
    "ixp.ring_full_stalls": "count",
    "net.nic_rx_dropped": "count",
    "interconnect.driver_tx_dropped": "count",
    "coordination.tunes_applied": "count",
    "coordination.triggers_applied": "count",
    "coordination.apply_latency_p50_us": "us",
    "platform.gossip_exchanges": "count",
    "platform.gossip_rounds": "count",
    "platform.directory_msgs": "count",
    "platform.converge_ms": "ms",
}


def _advance(run_until: Callable[[int], None], clock: Clock, end: int, step: int) -> None:
    if end % step:
        raise ValueError(f"window {end} ns is not a whole number of {step} ns slices")
    for until in range(step, end + 1, step):
        run_until(until)
        clock.lap()
    clock.done()


def _handled(agent) -> int:
    """Coordination messages an agent handled (as the mesh counts them)."""
    return agent.tunes_applied + agent.triggers_applied + agent.forwarded_messages


def _coordination_counters(agents, directory) -> dict[str, float]:
    latencies = [lat for agent in agents for lat in agent.apply_latencies]
    return {
        "coordination.tunes_applied": sum(a.tunes_applied for a in agents),
        "coordination.triggers_applied": sum(a.triggers_applied for a in agents),
        "coordination.apply_latency_p50_us": (
            statistics.median(latencies) / 1e3 if latencies else 0
        ),
        "platform.directory_msgs": sum(directory.message_counts().values()),
    }


def _two_island_counters(testbed, nics) -> dict[str, float]:
    """Counters of the x86-IXP prototype testbed."""
    ixp = testbed.ixp
    queues = list(ixp.flow_queues.values())
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update({
        "sim.events": testbed.sim.events,
        "ixp.classified": ixp.classifier.classified,
        "ixp.flowq_enqueued": sum(q.enqueued for q in queues),
        "ixp.flowq_dropped": sum(q.dropped for q in queues),
        "ixp.flowq_hwm_kb": max(q.bytes_high_watermark for q in queues) / 1024,
        "ixp.ring_full_stalls": ixp.dequeuer.ring_full_stalls,
        "net.nic_rx_dropped": sum(nic.rx_dropped for nic in nics),
        "interconnect.driver_tx_dropped": testbed.driver.tx_dropped,
    })
    counters.update(_coordination_counters(
        (testbed.ixp_agent, testbed.x86_agent), testbed.controller
    ))
    return counters


def _busiest_island_msgs(testbed) -> int:
    """Directory plus coordination messages at the busiest island: the
    two-island form of the fabric's max-node-messages figure."""
    return max(
        testbed.controller.messages_at(agent.island.name) + _handled(agent)
        for agent in (testbed.ixp_agent, testbed.x86_agent)
    )


# -- rubis-coord ---------------------------------------------------------------

#: The paper's closed-loop population (90 sessions, 700 ms think time) with
#: a shortened warmup and window; the coordinated arm carries the Tunes.
RUBIS_WARMUP = seconds(3)
RUBIS_END = seconds(12)
RUBIS_SLICE = ms(250)
#: Independent worlds whose results are pooled, seeded from the input
#: seed. Near saturation the closed loop amplifies small load differences,
#: so one world's mean response time swings ~19% (IQR) from seed to seed;
#: the pooled mean of four swings ~8%.
RUBIS_WORLDS = 4


def _deploy_rubis_world(seed: int, world: int):
    base = RubisConfig()
    return deploy_rubis(RubisConfig(
        coordinated=True,
        warmup=RUBIS_WARMUP,
        testbed=replace(base.testbed, seed=RUBIS_WORLDS * seed + world),
    ))


def _rubis_figures(deployment) -> tuple[int, float, float, int]:
    """(responses, mean response ms, throughput req/s, busiest-island msgs)."""
    stats = deployment.client.stats
    summary = stats.responses.overall_summary_ms()
    return (summary.count, summary.mean, stats.throughput.rate_per_second(),
            _busiest_island_msgs(deployment.testbed))


@functools.lru_cache(maxsize=4)
def _companion_worlds(seed: int) -> tuple:
    """Figures of worlds 1.. of ``seed``, run once per process.

    Only world 0 is timed and repeated: a repetition of all four would
    take ~10 s, too few repetitions per run for the per-slice minimum
    (five runs spread 25% IQR in host_s that way).
    """
    figures = []
    for world in range(1, RUBIS_WORLDS):
        deployment = _deploy_rubis_world(seed, world)
        deployment.testbed.run(RUBIS_END)
        figures.append(_rubis_figures(deployment))
    return tuple(figures)


def run_rubis(seed: int, clock: Clock) -> Outcome:
    deployment = _deploy_rubis_world(seed, 0)
    clock.ready()
    testbed = deployment.testbed
    _advance(testbed.run, clock, RUBIS_END, RUBIS_SLICE)

    worlds = (_rubis_figures(deployment),) + _companion_worlds(seed)
    resp_mean_ms = sum(n * mean for n, mean, _, _ in worlds) / sum(n for n, *_ in worlds)
    throughput_rps = statistics.fmean(rate for _, _, rate, _ in worlds)
    nics = (deployment.web.nic, deployment.app.nic, deployment.db.nic,
            deployment.client.host.nic)
    outcome = Outcome(
        qos={
            "qos_latency_ms": resp_mean_ms,
            "qos_rate": throughput_rps,
            "ctrl_msgs_max": statistics.fmean(msgs for *_, msgs in worlds),
        },
        results={"resp_mean_ms": resp_mean_ms, "throughput_rps": throughput_rps},
        counters=_two_island_counters(testbed, nics),
    )
    if not testbed.x86_agent.tunes_applied:
        outcome.problems.append("no Tunes applied")
    return outcome


# -- mplayer-trigger -----------------------------------------------------------

#: Figure 7 / Table 3's buffer-trigger arm. The stream opens with a 3 s
#: UDP burst (burst phase 0 of the 20 s period), so the window sees the
#: flow queue fill and the Triggers fire, then the steady stream after it.
MPLAYER_FROM = seconds(1)
MPLAYER_END = seconds(10)
MPLAYER_SLICE = ms(250)


def run_mplayer(seed: int, clock: Clock) -> Outcome:
    deployment = deploy_mplayer(trigger_config(buffer_trigger=True, seed=seed))
    clock.ready()
    testbed = deployment.testbed
    _advance(testbed.run, clock, MPLAYER_END, MPLAYER_SLICE)

    dom1_fps = deployment.dom1_fps(MPLAYER_FROM, MPLAYER_END)
    dom2_fps = deployment.dom2_fps(MPLAYER_FROM, MPLAYER_END)
    nics = (deployment.dom1_player.nic, deployment.server.host.nic)
    outcome = Outcome(
        qos={
            # Dom2 is the disk player, a CPU-bound read+decode loop: its
            # mean time per frame is the latency its viewer sees.
            "qos_latency_ms": 1e3 / dom2_fps if dom2_fps else 0.0,
            "qos_rate": dom1_fps,
            "ctrl_msgs_max": _busiest_island_msgs(testbed),
        },
        results={"dom1_fps": dom1_fps, "dom2_fps": dom2_fps},
        counters=_two_island_counters(testbed, nics),
    )
    if not dom1_fps or not dom2_fps:
        outcome.problems.append("a player decoded no frames")
    if not outcome.counters["coordination.triggers_applied"]:
        outcome.problems.append("no Triggers applied")
    if testbed.ixp.flow_queues[DOM1].bytes_high_watermark == 0:
        outcome.problems.append("Dom1's flow queue never filled")
    return outcome


# -- fabric-gossip-k128 --------------------------------------------------------

#: 1.6 simulated seconds: partition at 0.8 s, heal at 1.0 s, and room for
#: discovery to converge before the end (it never does when the heal
#: falls at 0.5 s of a 0.8 s run).
FABRIC_ISLANDS = 128
FABRIC_END = seconds(1.6)
FABRIC_SLICE = ms(50)


@contextmanager
def _observed_fabric(clock: Clock, seen: list):
    """Make ``run_fabric_arm`` build a testbed whose single ``sim.run``
    call is cut into clocked slices, and hand the testbed back.

    ``run_fabric_arm`` builds and runs its world in one call, so this is
    the seam between set-up and run that needs no change to it.
    """
    base = fabric_experiment.FabricTestbed

    class ObservedFabricTestbed(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.append(self)
            sim = self.sim

            def sliced_run(until: Optional[int] = None) -> None:
                clock.ready()
                _advance(lambda t: Simulator.run(sim, until=t), clock, until, FABRIC_SLICE)

            sim.run = sliced_run

    fabric_experiment.FabricTestbed = ObservedFabricTestbed
    try:
        yield
    finally:
        fabric_experiment.FabricTestbed = base


def run_fabric(seed: int, clock: Clock) -> Outcome:
    seen: list = []
    with _observed_fabric(clock, seen):
        result = fabric_experiment.run_fabric_arm(
            "gossip", FABRIC_ISLANDS, duration=FABRIC_END, seed=seed
        )
    testbed = seen[0]
    directory, mesh = testbed.directory, testbed.mesh
    agents = [mesh.agent(a, b) for a in testbed.islands for b in mesh.neighbors(a)]
    # Every probe task executes exactly PROBE_DEMAND of user time, so
    # whole multiples of it count the completed tasks.
    probes = sum(
        island.vm("probe").accounting.user // fabric_experiment.PROBE_DEMAND
        for island in testbed.islands.values()
    )
    converge_ms = result.convergence_ms
    counters = dict.fromkeys(COUNTERS, 0)
    counters.update({
        "sim.events": testbed.sim.events,
        "platform.gossip_exchanges": directory.exchanges,
        "platform.gossip_rounds": directory.rounds,
        "platform.converge_ms": converge_ms if converge_ms is not None else 0,
    })
    counters.update(_coordination_counters(agents, directory))
    outcome = Outcome(
        qos={
            "qos_latency_ms": result.mean_probe_latency_ms,
            "qos_rate": probes / (FABRIC_END / 1e9),
            "ctrl_msgs_max": result.max_node_messages,
        },
        results={
            "probe_mean_ms": result.mean_probe_latency_ms,
            "converge_ms": counters["platform.converge_ms"],
            "max_node_msgs": result.max_node_messages,
        },
        counters=counters,
    )
    if converge_ms is None:
        outcome.problems.append("discovery never converged after the heal")
    if result.dead_letters:
        outcome.problems.append(f"{result.dead_letters} dead-lettered frames")
    return outcome


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rubis-coord",
            "the paper's headline RUBiS arm; request traffic crosses every "
            "two-island layer and carries the Tune stream",
            run_rubis,
        ),
        Workload(
            "mplayer-trigger",
            "same islands used differently: UDP bursts fill the IXP flow "
            "queue, Triggers replace Tunes, Dom2 runs on the disk path",
            run_mplayer,
        ),
        Workload(
            "fabric-gossip-k128",
            "128 x86 islands under the gossip directory: platform-heavy, "
            "no IXP, partition and heal",
            run_fabric,
        ),
    )
}
