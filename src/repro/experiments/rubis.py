"""RUBiS experiment drivers: Figures 2, 4, 5 and Tables 1, 2.

One paired run (baseline vs ``coord-ixp-dom0``) produces everything the
paper's §3.1 reports; each artefact then renders from the same
:class:`RubisPairResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from ..apps.rubis import REQUEST_TYPES, RubisConfig, deploy_rubis
from ..apps.rubis.setup import APP_VM, DB_VM, WEB_VM
from ..metrics import Summary, platform_efficiency
from ..parallel import Job, run_jobs
from ..sim import seconds
from ..x86.island import DOM0_NAME
from .report import percent_change, render_bars, render_minmax, render_table

#: Default measured duration of one arm (after its internal warmup).
DEFAULT_DURATION = seconds(80)


@dataclass
class RubisRunResult:
    """Everything measured from one RUBiS run."""

    coordinated: bool
    per_type: dict[str, Summary]
    overall: Summary
    throughput: float
    sessions_completed: int
    mean_session_time_s: float
    utilization: dict[str, float]
    iowait: dict[str, float] = field(default_factory=dict)
    tunes_applied: int = 0
    #: Reliability counters of the IXP-side (sending) endpoint; empty when
    #: the run used the raw, unacknowledged mailbox.
    channel_stats: dict[str, int] = field(default_factory=dict)

    @property
    def total_utilization(self) -> float:
        """Sum of all domains' CPU percent (100 = one core)."""
        return sum(self.utilization.values())

    @property
    def efficiency(self) -> float:
        """The paper's platform-efficiency metric."""
        return platform_efficiency(self.throughput, self.total_utilization)


@dataclass
class RubisPairResult:
    """Baseline and coordinated runs over the same workload seed."""

    base: RubisRunResult
    coord: RubisRunResult

    def common_types(self) -> list[str]:
        """Request types observed in both runs, in catalogue order."""
        return [
            rt.name
            for rt in REQUEST_TYPES
            if rt.name in self.base.per_type and rt.name in self.coord.per_type
        ]


def run_rubis(
    coordinated: bool,
    duration: int = DEFAULT_DURATION,
    seed: int = 1,
    config: Optional[RubisConfig] = None,
    reliable: Optional[bool] = None,
) -> RubisRunResult:
    """Run one RUBiS arm and collect its metrics.

    ``reliable`` opts the coordination channel into the ack/retransmit
    layer (overriding the testbed config); None keeps whatever the config
    says — the paper's figures use the raw mailbox.
    """
    base_config = config or RubisConfig()
    testbed_config = replace(base_config.testbed, seed=seed)
    if reliable is not None:
        testbed_config = replace(
            testbed_config,
            channel=replace(testbed_config.channel, reliable=reliable),
        )
    run_config = replace(
        base_config,
        coordinated=coordinated,
        testbed=testbed_config,
    )
    deployment = deploy_rubis(run_config)
    deployment.run(run_config.warmup + duration)

    stats = deployment.client.stats
    skip = max(1, run_config.warmup // run_config.cpu_sample_window)
    vms = [DOM0_NAME, WEB_VM, APP_VM, DB_VM]
    utilization = {vm: deployment.cpu_sampler.mean_total(vm, skip_first=skip) for vm in vms}
    iowait = {}
    for vm in vms:
        samples = deployment.cpu_sampler.series(vm)[skip:]
        iowait[vm] = sum(s.iowait for s in samples) / len(samples) if samples else 0.0

    return RubisRunResult(
        coordinated=coordinated,
        per_type=stats.responses.table_ms(),
        overall=stats.responses.overall_summary_ms(),
        throughput=stats.throughput.rate_per_second(),
        sessions_completed=stats.sessions_completed,
        mean_session_time_s=stats.mean_session_time_s(),
        utilization=utilization,
        iowait=iowait,
        tunes_applied=deployment.testbed.x86_agent.tunes_applied,
        channel_stats=deployment.testbed.ixp_agent.channel_stats(),
    )


def run_rubis_pair(
    duration: int = DEFAULT_DURATION,
    seed: int = 1,
    config: Optional[RubisConfig] = None,
) -> RubisPairResult:
    """Run both arms on the same seed, side by side on a multicore host.

    The arms are independent simulators, so the pair fans out through
    :mod:`repro.parallel` (``REPRO_PARALLEL=0`` forces the serial path;
    the results are identical either way).
    """
    shared = dict(duration=duration, seed=seed, config=config)
    base, coord = run_jobs(
        [
            Job(run_rubis, kwargs=dict(coordinated=False, **shared), label="rubis:base"),
            Job(run_rubis, kwargs=dict(coordinated=True, **shared), label="rubis:coord"),
        ]
    )
    return RubisPairResult(base=base, coord=coord)


# -- artefact renderers ---------------------------------------------------


def render_figure2(pair: RubisPairResult) -> str:
    """Figure 2: baseline min-max response-time variability."""
    items = [
        (name, pair.base.per_type[name].minimum, pair.base.per_type[name].maximum)
        for name in pair.common_types()
    ]
    return render_minmax(
        items, title="Figure 2: RUBiS min-max response latencies (no coordination)"
    )


def render_figure4(pair: RubisPairResult) -> str:
    """Figure 4: min-max with and without coordination."""
    lines = [
        "Figure 4: RUBiS min-max response times (base vs coord-ixp-dom0)",
        render_table(
            ["Request type", "base min", "coord min", "base max", "coord max",
             "base std", "coord std"],
            [
                (
                    name,
                    f"{pair.base.per_type[name].minimum:.1f}",
                    f"{pair.coord.per_type[name].minimum:.1f}",
                    f"{pair.base.per_type[name].maximum:.0f}",
                    f"{pair.coord.per_type[name].maximum:.0f}",
                    f"{pair.base.per_type[name].std:.0f}",
                    f"{pair.coord.per_type[name].std:.0f}",
                )
                for name in pair.common_types()
            ],
        ),
    ]
    return "\n".join(lines)


def render_table1(pair: RubisPairResult) -> str:
    """Table 1: average request response times."""
    return render_table(
        ["Request Type", "Base(ms)", "coord-ixp-dom0(ms)", "change"],
        [
            (
                name,
                f"{pair.base.per_type[name].mean:.0f}",
                f"{pair.coord.per_type[name].mean:.0f}",
                f"{percent_change(pair.base.per_type[name].mean, pair.coord.per_type[name].mean):+.0f}%",
            )
            for name in pair.common_types()
        ],
        title="Table 1: RUBiS - Average Request Response Times",
    )


def render_table2(pair: RubisPairResult) -> str:
    """Table 2: throughput, sessions, session time, platform efficiency."""
    rows = [
        ("Throughput (req/s)", f"{pair.base.throughput:.0f}", f"{pair.coord.throughput:.0f}"),
        (
            "Sessions completed",
            str(pair.base.sessions_completed),
            str(pair.coord.sessions_completed),
        ),
        (
            "Avg session time (s)",
            f"{pair.base.mean_session_time_s:.0f}",
            f"{pair.coord.mean_session_time_s:.0f}",
        ),
        (
            "Platform efficiency",
            f"{pair.base.efficiency:.2f}",
            f"{pair.coord.efficiency:.2f}",
        ),
    ]
    return render_table(
        ["Metric", "Base", "coord-ixp-dom0"], rows, title="Table 2: RUBiS - Throughput Results"
    )


def render_figure5(pair: RubisPairResult) -> str:
    """Figure 5: per-tier CPU utilisation."""
    items = []
    for vm in (WEB_VM, APP_VM, DB_VM):
        items.append((f"{vm} (base)", pair.base.utilization[vm]))
        items.append((f"{vm} (coord)", pair.coord.utilization[vm]))
    return render_bars(
        items, unit="%", title="Figure 5: RUBiS CPU utilization (percent of one core)"
    )


def render_rubis(pair: RubisPairResult) -> str:
    """Figures 2 and 4, Tables 1 and 2 and Figure 5, then the headline
    numbers of both arms on one ``[raw]`` line."""
    base, coord = pair.base, pair.coord
    raw = (
        f"[raw] thr {base.throughput:.1f}->{coord.throughput:.1f} "
        f"mean {base.overall.mean:.0f}->{coord.overall.mean:.0f} "
        f"std {base.overall.std:.0f}->{coord.overall.std:.0f} "
        f"max {base.overall.maximum:.0f}->{coord.overall.maximum:.0f} "
        f"min {base.overall.minimum:.1f}->{coord.overall.minimum:.1f} "
        f"util {base.total_utilization:.0f}->{coord.total_utilization:.0f} "
        f"eff {base.efficiency:.2f}->{coord.efficiency:.2f} "
        f"sessions {base.sessions_completed}->{coord.sessions_completed} "
        f"sesstime {base.mean_session_time_s:.0f}->{coord.mean_session_time_s:.0f}s"
    )
    return "\n\n".join((
        render_figure2(pair),
        render_figure4(pair),
        render_table1(pair),
        render_table2(pair),
        render_figure5(pair),
        raw,
    ))
