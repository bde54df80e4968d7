"""Extension experiment: energy/QoS co-optimization across DVFS, LLC
partitioning and memory bandwidth (the paper's §5 coordinated-management
thesis applied to the uncore).

Three consolidated guest domains share the x86 island's cores, LLC and
memory pipe:

* ``web``   — latency-critical and cache-hungry (a big working set whose
  miss ratio collapses only with most of the LLC);
* ``db``    — bandwidth-heavy (streaming scans: modest cache benefit,
  lots of memory traffic);
* ``batch`` — compute-bound best-effort work with a loose deadline, the
  natural way donor.

All three arms run the identical workload from the identical seed; only
the governor differs:

* ``coordinated``    — the joint greedy search over (dvfs × ways × bw ×
  prefetch): fix stalls with partition moves, then convert the bought
  slack into downward DVFS steps;
* ``dvfs-only``      — frequency is the only lever (the classic
  per-resource governor); cache starvation looks like load, so it burns
  frequency without fixing the stalls;
* ``partition-only`` — ways/bandwidth/prefetch move but the ladder is
  pinned at nominal: QoS is met, energy is not recovered.

The expected artefact: coordinated meets every per-VM p95 target at
strictly lower platform energy than both ablations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coordination.energy_policy import ENERGY_QOS_MODES, EnergyQosGovernor, QosTarget
from ..metrics.energyqos import EnergyQosCollector, WindowedQosSource
from ..power import PowerMeter
from ..sim import ms, seconds, to_seconds
from ..testbed import Testbed, TestbedConfig
from ..x86 import MemoryProfile, MemorySystem, MemorySystemParams
from .report import render_table

#: Per-VM deployment shape: (memory profile, initial ways, per-request
#: CPU demand, closed-loop clients, think time, p95 target).
@dataclass(frozen=True, slots=True)
class GuestSpec:
    """One consolidated guest of the energy/QoS workload."""

    name: str
    profile: MemoryProfile
    ways: int
    demand: int
    clients: int
    think: int
    p95_target_ms: float
    #: Boot-time prefetcher throttle percent (a mis-set uncoordinated
    #: default the governors may re-aim).
    prefetch: int = 0


#: The consolidated three-guest scenario (16 LLC ways total).
GUEST_SPECS = (
    GuestSpec(
        name="web",
        profile=MemoryProfile(
            mem_fraction=0.6, ways_needed=12, base_miss=0.05, bw_demand_gbps=2.5
        ),
        ways=5,
        demand=ms(8),
        clients=3,
        think=ms(50),
        p95_target_ms=25.0,
        # Boot default has web's prefetcher off: re-aiming it is the
        # cheapest stall reduction available, but its waste traffic then
        # contends with the db's streams — the CBP trade-off.
        prefetch=100,
    ),
    GuestSpec(
        name="db",
        profile=MemoryProfile(
            mem_fraction=0.35, ways_needed=4, base_miss=0.3, bw_demand_gbps=7.0
        ),
        ways=5,
        demand=ms(6),
        clients=2,
        think=ms(60),
        p95_target_ms=25.0,
    ),
    GuestSpec(
        name="batch",
        profile=MemoryProfile(
            mem_fraction=0.1, ways_needed=2, base_miss=0.1, bw_demand_gbps=0.5
        ),
        ways=6,
        demand=ms(12),
        clients=1,
        think=ms(80),
        p95_target_ms=90.0,
    ),
)

#: Memory-pipe capacity: tight enough that the db's streaming traffic
#: (with aggressive prefetch) contends, so the bandwidth-share and
#: prefetch-throttle dimensions of the search actually matter.
PIPE_CAPACITY_GBPS = 5.0

#: Warm-up before QoS compliance and energy are scored — long enough for
#: the governors' first partition moves to show in the 4 s QoS window.
WARMUP = seconds(8)


@dataclass
class EnergyQosArmResult:
    """One arm of the energy/QoS experiment."""

    mode: str
    energy_j: float
    mean_power_w: float
    violations: int
    checks: int
    violations_by_vm: dict[str, int]
    p95_ms: dict[str, float]
    final_speed: float
    actuations: dict[str, int]
    governor: dict[str, int]
    #: Kernel events the run processed.
    events: int


@dataclass
class EnergyQosResult:
    """All three arms plus the targets they were scored against."""

    targets: dict[str, float]
    arms: dict[str, EnergyQosArmResult]

    def arm(self, mode: str) -> EnergyQosArmResult:
        """Result of one arm by mode name."""
        return self.arms[mode]


def _client_loop(sim, vm, source, rng, spec: GuestSpec):
    """One closed-loop client: think, submit, record response time."""
    while True:
        yield sim.timeout(max(1, int(rng.exponential(spec.think))))
        start = sim.now
        yield vm.execute(spec.demand)
        source.record(spec.name, sim.now - start)


def run_energy_qos_arm(
    mode: str,
    seed: int = 1,
    duration: int = seconds(40),
) -> EnergyQosArmResult:
    """Run one arm of the energy/QoS experiment."""
    if mode not in ENERGY_QOS_MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {ENERGY_QOS_MODES}")
    testbed = Testbed(TestbedConfig(seed=seed))

    memory = MemorySystem(
        MemorySystemParams(capacity_gbps=PIPE_CAPACITY_GBPS), tracer=testbed.tracer
    )
    testbed.x86.attach_memory_system(memory)
    source = WindowedQosSource(testbed.sim, window=seconds(4))
    targets = [QosTarget(vm=s.name, p95_ms=s.p95_target_ms) for s in GUEST_SPECS]
    for spec in GUEST_SPECS:
        vm, _nic = testbed.create_guest_vm(spec.name, uses_ixp=False)
        testbed.x86.memory_manage(
            vm, spec.profile, ways=spec.ways, prefetch_throttle=spec.prefetch
        )
        rng = testbed.rng.stream(f"energyqos-{spec.name}")
        for _ in range(spec.clients):
            testbed.sim.spawn(
                _client_loop(testbed.sim, vm, source, rng, spec),
                name=f"client-{spec.name}",
            )

    meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
    governor = EnergyQosGovernor(
        testbed.sim,
        testbed.x86,
        meter,
        source,
        targets,
        mode=mode,
        tracer=testbed.tracer,
    )
    collector = EnergyQosCollector(
        testbed.sim,
        {t.vm: t.p95_ms for t in targets},
        source,
        measure_from=WARMUP,
    )
    testbed.run(WARMUP + duration)

    measured = meter.samples[WARMUP // meter.window:]
    mean_w = sum(s.total_w for s in measured) / len(measured) if measured else 0.0
    energy_j = sum(s.total_w for s in measured) * to_seconds(meter.window)
    return EnergyQosArmResult(
        mode=mode,
        energy_j=energy_j,
        mean_power_w=mean_w,
        violations=collector.violations,
        checks=len(collector.checks),
        violations_by_vm=dict(collector.violations_by_vm),
        p95_ms={s.name: source.p95_ms(s.name) or 0.0 for s in GUEST_SPECS},
        final_speed=testbed.x86.scheduler.cpus[0].speed,
        actuations=collector.actuation_counts(testbed.x86.knobs),
        governor=governor.stats(),
        events=testbed.sim.events,
    )


def run_energy_qos(seed: int = 1, duration: int = seconds(40)) -> EnergyQosResult:
    """Run the coordinated mode and both ablations."""
    return EnergyQosResult(
        targets={s.name: s.p95_target_ms for s in GUEST_SPECS},
        arms={
            mode: run_energy_qos_arm(mode, seed=seed, duration=duration)
            for mode in ENERGY_QOS_MODES
        },
    )


def render_energy_qos(result: EnergyQosResult) -> str:
    """Tabulate energy, QoS compliance and actuations per mode."""
    rows = []
    for mode in ENERGY_QOS_MODES:
        arm = result.arm(mode)
        acts = arm.actuations
        rows.append((
            mode,
            f"{arm.energy_j:.0f}",
            f"{arm.mean_power_w:.1f}",
            f"{arm.violations}/{arm.checks}",
            " ".join(f"{vm}:{arm.p95_ms[vm]:.0f}" for vm in result.targets),
            f"{arm.final_speed:.2f}",
            f"{acts['dvfs-level']}",
            f"{acts['llc-ways']}+{acts['bw-share']}+{acts['prefetch-throttle']}",
        ))
    targets = " ".join(f"{vm}:{t:.0f}" for vm, t in result.targets.items())
    return render_table(
        ["Governor", "Energy (J)", "Mean power (W)", "QoS violations",
         "p95 (ms)", "Final DVFS", "DVFS tunes", "Uncore tunes"],
        rows,
        title=f"Extension: energy/QoS co-optimization (p95 targets ms — {targets})",
    )
