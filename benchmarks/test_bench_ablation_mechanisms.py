"""Ablation A2: Tune-only vs Trigger-only vs both (streaming scenario).

The paper distills exactly two standard mechanisms. This ablation runs the
Figure 7 scenario under each, quantifying their different characters:

* **Tune** (sustained weight elevation) maximises the beneficiary's frame
  rate but taxes the co-located CPU-bound domain heavily;
* **Trigger** (transient runqueue boosts gated on buffer occupancy) buys a
  targeted improvement at a much smaller interference cost — the paper's
  Table 3 argument.
"""

from dataclasses import replace

from repro.apps.mplayer import deploy_mplayer
from repro.coordination.mplayer_policy import STAGE_BITRATE, STAGE_OFF
from repro.experiments import render_table
from repro.experiments.mplayer import TRIGGER_DURATION, TRIGGER_WARMUP, trigger_config
from repro.parallel import Job, run_jobs

from _shared import emit


def run_arm(qos_stage: str, buffer_trigger: bool):
    config = replace(trigger_config(buffer_trigger), qos_stage=qos_stage)
    deployment = deploy_mplayer(config)
    deployment.run(TRIGGER_DURATION)
    return (
        deployment.dom1_fps(TRIGGER_WARMUP, TRIGGER_DURATION),
        deployment.dom2_fps(TRIGGER_WARMUP, TRIGGER_DURATION),
    )


ARMS = (
    ("no coordination", STAGE_OFF, False),
    ("tune only", STAGE_BITRATE, False),
    ("trigger only", STAGE_OFF, True),
    ("tune + trigger", STAGE_BITRATE, True),
)


def run_all():
    arms = run_jobs([Job(run_arm, args=(stage, trig)) for _, stage, trig in ARMS])
    return {label: result for (label, _, _), result in zip(ARMS, arms)}


def test_bench_ablation_mechanisms(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    emit(render_table(
        ["Mechanisms", "Dom1 fps (stream)", "Dom2 fps (disk hog)"],
        [(label, f"{f1:.2f}", f"{f2:.2f}") for label, (f1, f2) in results.items()],
        title="Ablation A2: Tune-only vs Trigger-only vs both",
    ))

    off = results["no coordination"]
    tune = results["tune only"]
    trigger = results["trigger only"]
    both = results["tune + trigger"]

    # Each mechanism alone helps the streaming domain.
    assert tune[0] > off[0]
    assert trigger[0] > off[0]
    # Tune is the blunter instrument: bigger gain, bigger victim tax.
    assert tune[0] >= trigger[0]
    assert tune[1] < trigger[1]
    # Trigger's interference stays small (Table 3's point).
    assert trigger[1] > off[1] * 0.88
    # Combining is not worse for the beneficiary than trigger alone.
    assert both[0] >= trigger[0]
