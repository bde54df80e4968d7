"""MPlayer experiment drivers: Figure 6, Figure 7 and Table 3."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..apps.mplayer import (
    BurstProfile,
    DOM1,
    HIGH_RATE_STREAM,
    MPlayerConfig,
    deploy_mplayer,
)
from ..coordination.mplayer_policy import STAGE_BITRATE, STAGE_FRAMERATE
from ..parallel import Job, run_jobs
from ..sim import ms, seconds
from ..testbed import TestbedConfig
from ..x86 import X86Params
from .report import percent_change, render_series, render_table

#: Per-stage measured window of the Figure 6 ladder.
QOS_STAGE_DURATION = seconds(25)
#: Warm-up before stage A is measured.
QOS_WARMUP = seconds(10)
#: Duration of the Figure 7 / Table 3 runs.
TRIGGER_DURATION = seconds(180)
TRIGGER_WARMUP = seconds(20)


@dataclass
class QoSLadderResult:
    """Per-stage frame rates of the Figure 6 evolving run."""

    stage_a: tuple[float, float]  # (dom1 fps, dom2 fps) at weights 256-256
    stage_b: tuple[float, float]  # 384-512 after bit-rate tunes
    stage_c: tuple[float, float]  # 384-640 + IXP threads
    weights: dict[str, int]
    ixp_threads: dict[str, int]


def run_qos_ladder(
    seed: int = 1,
    config: Optional[MPlayerConfig] = None,
    reliable: Optional[bool] = None,
) -> QoSLadderResult:
    """Figure 6: one evolving run, escalating the stream-QoS policy.

    Mirrors the paper's narrative: start both guests at default weights,
    then raise weights on high-bit-rate detection, then reward Domain-2's
    frame-rate requirement and add IXP dequeue threads in tandem.

    ``reliable`` opts the coordination channel into the ack/retransmit
    layer; None keeps the testbed config's (raw-mailbox) default.
    """
    base = config or MPlayerConfig()
    testbed_config = replace(base.testbed, seed=seed)
    if reliable is not None:
        testbed_config = replace(
            testbed_config,
            channel=replace(testbed_config.channel, reliable=reliable),
        )
    deployment = deploy_mplayer(replace(base, testbed=testbed_config))
    t0 = QOS_WARMUP
    t1 = t0 + QOS_STAGE_DURATION
    deployment.run(t1)
    stage_a = (deployment.dom1_fps(t0, t1), deployment.dom2_fps(t0, t1))

    deployment.qos_policy.advance_stage(STAGE_BITRATE)
    t2 = t1 + QOS_STAGE_DURATION
    deployment.run(QOS_STAGE_DURATION)
    stage_b = (deployment.dom1_fps(t1, t2), deployment.dom2_fps(t1, t2))

    deployment.qos_policy.advance_stage(STAGE_FRAMERATE)
    t3 = t2 + QOS_STAGE_DURATION
    deployment.run(QOS_STAGE_DURATION)
    stage_c = (deployment.dom1_fps(t2, t3), deployment.dom2_fps(t2, t3))

    ixp = deployment.testbed.ixp
    return QoSLadderResult(
        stage_a=stage_a,
        stage_b=stage_b,
        stage_c=stage_c,
        weights={vm.name: vm.weight for vm in deployment.testbed.x86.guest_vms()},
        ixp_threads={
            name: ixp.dequeuer.threads_for(queue) for name, queue in ixp.flow_queues.items()
        },
    )


def render_figure6(result: QoSLadderResult) -> str:
    """Figure 6: video-stream quality of service per weight stage."""
    rows = [
        ("256-256 (no coordination)", f"{result.stage_a[0]:.1f}", f"{result.stage_a[1]:.1f}"),
        ("384-512 (bit-rate tunes)", f"{result.stage_b[0]:.1f}", f"{result.stage_b[1]:.1f}"),
        ("384-640 (+frame-rate, +IXP threads)",
         f"{result.stage_c[0]:.1f}", f"{result.stage_c[1]:.1f}"),
    ]
    table = render_table(
        ["Weights (Dom1-Dom2)", "Dom1 frames/s", "Dom2 frames/s"],
        rows,
        title="Figure 6: MPlayer video-stream QoS (targets: Dom1 20 fps, Dom2 25 fps)",
    )
    threads = ", ".join(f"{k}={v}" for k, v in sorted(result.ixp_threads.items()))
    return f"{table}\nfinal IXP dequeue threads: {threads}"


# -- Figure 7 / Table 3 -----------------------------------------------------


def trigger_config(buffer_trigger: bool, seed: int = 1) -> MPlayerConfig:
    """The UDP-bulk + CPU-hog scenario configuration (Figure 7, Table 3).

    Dom1 plays the 1 Mbit 25 fps stream with no-flow-control bursts; Dom2
    decodes a clip from its local disk and touches no IXP resources. The
    polling driver runs at a moderate duty and Dom0 keeps the default
    weight; Dom1's flow queue is drained by a finite-rate (polled) thread
    set so bursts show up in DRAM occupancy.
    """
    return MPlayerConfig(
        testbed=TestbedConfig(
            seed=seed, driver_poll_burn_duty=0.3, x86=X86Params(dom0_weight=256)
        ),
        dom1_stream=HIGH_RATE_STREAM,
        dom2_disk=True,
        dom1_burst=BurstProfile(period_s=20.0, duration_s=3.0, factor=3.0),
        buffer_trigger=buffer_trigger,
        dom1_ixp_poll_interval=ms(57),
    )


@dataclass
class TriggerRunResult:
    """One arm of the buffer-monitoring experiment."""

    buffer_trigger: bool
    dom1_fps: float
    dom2_fps: float
    triggers_sent: int
    #: (time, cpu-percent) of Dom1 per sampling window.
    dom1_cpu_series: list[tuple[int, float]]
    #: (time, occupancy-bytes) of Dom1's IXP flow queue.
    buffer_series: list[tuple[int, int]]
    buffer_high_watermark: int


@dataclass
class TriggerPairResult:
    """Baseline vs trigger-coordinated runs (Figure 7 + Table 3)."""

    base: TriggerRunResult
    coord: TriggerRunResult

    @property
    def dom1_change_percent(self) -> float:
        """Dom1 frame-rate change from coordination."""
        return percent_change(self.base.dom1_fps, self.coord.dom1_fps)

    @property
    def dom2_change_percent(self) -> float:
        """Dom2 (victim) frame-rate change from coordination."""
        return percent_change(self.base.dom2_fps, self.coord.dom2_fps)


def run_trigger_arm(buffer_trigger: bool, seed: int = 1) -> TriggerRunResult:
    """Run one arm of the Figure 7 / Table 3 scenario."""
    deployment = deploy_mplayer(trigger_config(buffer_trigger, seed=seed))
    queue = deployment.testbed.ixp.flow_queues[DOM1]
    buffer_series: list[tuple[int, int]] = []

    def sample_buffer():
        while True:
            yield deployment.sim.timeout(seconds(1))
            buffer_series.append((deployment.sim.now, queue.occupancy_bytes))

    deployment.sim.spawn(sample_buffer(), name="buffer-series")
    deployment.run(TRIGGER_DURATION)

    cpu_series = [
        (s.time, s.total) for s in deployment.cpu_sampler.series(DOM1)
    ]
    return TriggerRunResult(
        buffer_trigger=buffer_trigger,
        dom1_fps=deployment.dom1_fps(TRIGGER_WARMUP, TRIGGER_DURATION),
        dom2_fps=deployment.dom2_fps(TRIGGER_WARMUP, TRIGGER_DURATION),
        triggers_sent=(
            deployment.trigger_policy.triggers_sent if deployment.trigger_policy else 0
        ),
        dom1_cpu_series=cpu_series,
        buffer_series=buffer_series,
        buffer_high_watermark=queue.bytes_high_watermark,
    )


def run_trigger_pair(seed: int = 1) -> TriggerPairResult:
    """Both arms of the buffer-monitoring experiment, fanned out in
    parallel on a multicore host (identical results either way)."""
    base, coord = run_jobs(
        [
            Job(run_trigger_arm, args=(False,), kwargs=dict(seed=seed), label="trigger:base"),
            Job(run_trigger_arm, args=(True,), kwargs=dict(seed=seed), label="trigger:coord"),
        ]
    )
    return TriggerPairResult(base=base, coord=coord)


def render_figure7(pair: TriggerPairResult) -> str:
    """Figure 7: Dom1 CPU utilisation and IXP buffer occupancy over time."""
    parts = [
        "Figure 7: MPlayer - tuning credit adjustments using IXP buffer monitoring",
        render_series(
            [(t, v) for t, v in pair.coord.dom1_cpu_series],
            title="Dom1 CPU utilization, coordinated (percent of one core)",
        ),
        render_series(
            [(t, float(v)) for t, v in pair.coord.buffer_series],
            title="Dom1 IXP flow-queue occupancy (bytes)",
        ),
        f"triggers sent: {pair.coord.triggers_sent}; "
        f"buffer high watermark: {pair.coord.buffer_high_watermark // 1024} KB; "
        f"Dom1 fps {pair.base.dom1_fps:.1f} -> {pair.coord.dom1_fps:.1f}",
    ]
    return "\n\n".join(parts)


def render_table3(pair: TriggerPairResult) -> str:
    """Table 3: trigger interference on the co-located disk player."""
    rows = [
        (
            "Domain-1 (network stream)",
            f"{pair.base.dom1_fps:.1f}",
            f"{pair.coord.dom1_fps:.1f}",
            f"{pair.dom1_change_percent:+.2f}%",
        ),
        (
            "Domain-2 (local disk)",
            f"{pair.base.dom2_fps:.1f}",
            f"{pair.coord.dom2_fps:.1f}",
            f"{pair.dom2_change_percent:+.2f}%",
        ),
    ]
    return render_table(
        ["Guest Domain", "Baseline Frames/s", "With Co-ord Frames/s", "% change"],
        rows,
        title="Table 3: MPlayer - Trigger Interference",
    )


def render_trigger(pair: TriggerPairResult) -> str:
    """Figure 7, then Table 3."""
    return f"{render_figure7(pair)}\n\n{render_table3(pair)}"
