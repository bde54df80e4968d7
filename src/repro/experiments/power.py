"""Extension experiment: platform power capping with and without
cross-island coordination (the paper's §1 power use case, §5 future work).

Three arms run the RUBiS workload under the same platform conditions:

* ``none``  — no power cap (reference for QoS and for the uncapped draw);
* ``local`` — the x86 island enforces its share of the cap alone,
  reserving the IXP card's rated power;
* ``coord`` — the IXP reports measured draw over the coordination channel
  and the x86 governor budgets against actuals plus a guard band.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..apps.rubis import RubisConfig, deploy_rubis
from ..power import CoordinatedPowerCapGovernor, LocalPowerCapGovernor, PowerMeter
from ..sim import ms, seconds
from ..testbed import TestbedConfig
from .report import render_table

#: Default platform cap (watts): below the uncapped draw, above the floor.
DEFAULT_CAP_W = 48.0

ARMS = ("none", "local", "coord")


@dataclass
class PowerCapArmResult:
    """One arm of the power-cap experiment."""

    mode: str
    throughput: float
    mean_response_ms: float
    p95_response_ms: float
    mean_power_w: float
    peak_power_w: float
    final_speed: float
    #: Kernel events the run processed.
    events: int
    reports_received: int = 0


@dataclass
class PowerCapResult:
    """All three arms."""

    cap_w: float
    arms: dict[str, PowerCapArmResult]

    def arm(self, mode: str) -> PowerCapArmResult:
        """Result of one arm by mode name."""
        return self.arms[mode]


def _workload_config(seed: int) -> RubisConfig:
    return RubisConfig(
        num_sessions=60,
        think_time_mean=ms(600),
        warmup=seconds(5),
        testbed=TestbedConfig(seed=seed, driver_poll_burn_duty=0.5),
    )


def run_power_cap_arm(
    mode: str, cap_w: float = DEFAULT_CAP_W, seed: int = 1, duration: int = seconds(40)
) -> PowerCapArmResult:
    """Run one arm of the power-cap experiment."""
    if mode not in ARMS:
        raise ValueError(f"unknown mode {mode!r}; expected one of {ARMS}")
    deployment = deploy_rubis(_workload_config(seed))
    testbed = deployment.testbed
    meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp)
    governor = None
    if mode == "local":
        governor = LocalPowerCapGovernor(
            testbed.sim, meter, testbed.x86, platform_cap_w=cap_w
        )
    elif mode == "coord":
        governor = CoordinatedPowerCapGovernor(
            testbed.sim,
            meter,
            testbed.x86,
            testbed.x86_agent,
            testbed.ixp_agent,
            platform_cap_w=cap_w,
        )
    deployment.run(seconds(5) + duration)

    stats = deployment.client.stats
    overall = stats.responses.overall_summary_ms()
    return PowerCapArmResult(
        mode=mode,
        throughput=stats.throughput.rate_per_second(),
        mean_response_ms=overall.mean,
        p95_response_ms=overall.p95,
        mean_power_w=meter.mean_total_w(skip_first=5),
        peak_power_w=meter.peak_total_w(),
        final_speed=testbed.x86.scheduler.cpus[0].speed,
        events=testbed.sim.events,
        reports_received=(
            governor.reports_received
            if isinstance(governor, CoordinatedPowerCapGovernor)
            else 0
        ),
    )


def run_power_cap(cap_w: float = DEFAULT_CAP_W, seed: int = 1) -> PowerCapResult:
    """Run all three arms."""
    return PowerCapResult(
        cap_w=cap_w,
        arms={mode: run_power_cap_arm(mode, cap_w=cap_w, seed=seed) for mode in ARMS},
    )


def render_power_cap(result: PowerCapResult) -> str:
    """Tabulate QoS and power per arm."""
    rows = []
    for mode in ARMS:
        arm = result.arm(mode)
        rows.append(
            (
                mode,
                f"{arm.throughput:.1f}",
                f"{arm.mean_response_ms:.0f}",
                f"{arm.p95_response_ms:.0f}",
                f"{arm.mean_power_w:.1f}",
                f"{arm.final_speed:.2f}",
            )
        )
    return render_table(
        ["Governor", "Throughput (req/s)", "Mean resp (ms)", "p95 (ms)",
         "Mean power (W)", "Final DVFS"],
        rows,
        title=f"Extension: platform power cap at {result.cap_w:.0f} W",
    )
