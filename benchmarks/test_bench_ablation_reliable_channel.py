"""Ablation A5: reliable-channel sweep — loss probability x retry budget.

Mirrors the channel-latency ablation (A1) for the reliability layer built
over the raw PCI-config-space mailbox: every arm runs the coordinated
RUBiS scenario over a lossy channel with the ack/retransmit layer enabled
and a swept retry budget. Three findings are asserted:

* the retry budget buys delivery: the dead-letter fraction falls
  monotonically (weakly) as the budget grows, at every loss level;
* at 30% loss a budget of 8 retries delivers >= 99% of Tune frames
  (dead-letters < 1%) — the reliability layer's acceptance bar;
* coalescing bounds occupancy where it matters: under heavy loss,
  retransmission backoff keeps frames in flight long enough that the
  policy's per-request Tune bursts collapse into fewer wire frames.
"""

from repro.apps.rubis import RubisConfig
from repro.experiments import render_table, run_rubis
from repro.parallel import Job, run_jobs
from repro.sim import seconds
from repro.testbed import ChannelConfig, TestbedConfig

from _shared import emit

LOSS_LEVELS = (0.1, 0.3)
RETRY_BUDGETS = (0, 2, 8)


def run_arm(loss: float, budget: int):
    config = RubisConfig(
        testbed=TestbedConfig(
            driver_poll_burn_duty=0.5,
            channel=ChannelConfig(
                loss_probability=loss, reliable=True, reliable_max_retries=budget
            ),
        )
    )
    return run_rubis(True, duration=seconds(30), config=config)


def run_sweep():
    points = [(loss, budget) for loss in LOSS_LEVELS for budget in RETRY_BUDGETS]
    arms = run_jobs([Job(run_arm, args=point) for point in points])
    return dict(zip(points, arms))


def dead_letter_fraction(run) -> float:
    stats = run.channel_stats
    return stats["dead_lettered"] / max(1, stats["frames_sent"])


def test_bench_ablation_reliable_channel(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)

    rows = []
    for (loss, budget), run in results.items():
        stats = run.channel_stats
        rows.append(
            (
                f"{loss:.0%}",
                str(budget),
                str(stats["frames_sent"]),
                str(stats["retransmits"]),
                str(stats["coalesced"]),
                f"{dead_letter_fraction(run):.2%}",
                f"{run.throughput:.1f}",
                f"{run.overall.mean:.0f}",
            )
        )
    emit(render_table(
        ["Loss", "Retries", "Frames", "Rexmits", "Coalesced",
         "Dead-letter %", "Throughput (req/s)", "Mean response (ms)"],
        rows,
        title="Ablation A5: reliable channel, loss x retry budget",
    ))

    for run in results.values():
        assert run.throughput > 0
        stats = run.channel_stats
        assert 0 < stats["frames_sent"] <= stats["sent"]

    # More retries -> (weakly) fewer dead letters, at every loss level.
    for loss in LOSS_LEVELS:
        fractions = [
            dead_letter_fraction(results[(loss, budget)])
            for budget in RETRY_BUDGETS
        ]
        assert all(b <= a + 1e-9 for a, b in zip(fractions, fractions[1:]))

    # The acceptance bar: 30% loss, budget 8 -> >= 99% of frames land.
    heavy = results[(0.3, RETRY_BUDGETS[-1])]
    assert dead_letter_fraction(heavy) < 0.01
    # Retransmission backoff holds frames in flight long enough for the
    # per-request Tune bursts to coalesce: fewer frames than Tunes sent.
    heavy_stats = heavy.channel_stats
    assert heavy_stats["coalesced"] > 0
    assert heavy_stats["frames_sent"] < heavy_stats["sent"]
