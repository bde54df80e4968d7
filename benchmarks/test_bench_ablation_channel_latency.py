"""Ablation A1: coordination-channel latency sensitivity.

The paper singles out "the relatively large latency of the PCIe-based
messaging channel" as a source of misapplied coordination. This ablation
sweeps the one-way channel latency from the PCI-config-space value to
multi-second extremes. Two findings are asserted:

* the coordination benefit is robust to realistic latencies (most of the
  gain is sustained weight elevation, which a delivery delay only shifts);
* extreme latencies erode the *phase-tracking* component: mean response
  time is no better at 3 s than at 150 us, despite costing the same.
"""


from repro.apps.rubis import RubisConfig
from repro.experiments import render_table, run_rubis
from repro.parallel import Job, run_jobs
from repro.sim import ms, seconds, us
from repro.testbed import ChannelConfig, TestbedConfig

from _shared import emit, get_rubis_pair

LATENCIES = (us(150), ms(5), ms(50), seconds(3))


def run_arm(latency: int):
    config = RubisConfig(
        testbed=TestbedConfig(driver_poll_burn_duty=0.5, channel=ChannelConfig(latency=latency))
    )
    return run_rubis(True, duration=seconds(40), config=config)


def run_sweep():
    arms = run_jobs([Job(run_arm, args=(latency,)) for latency in LATENCIES])
    return dict(zip(LATENCIES, arms))


def test_bench_ablation_channel_latency(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    base = get_rubis_pair().base

    rows = [("uncoordinated", "-", f"{base.throughput:.1f}", f"{base.overall.mean:.0f}")]
    for latency, run in results.items():
        rows.append(
            ("coordinated", f"{latency / 1e6:.2f} ms",
             f"{run.throughput:.1f}", f"{run.overall.mean:.0f}")
        )
    emit(render_table(
        ["Arm", "Channel latency", "Throughput (req/s)", "Mean response (ms)"],
        rows,
        title="Ablation A1: coordination-channel latency sweep",
    ))

    fastest = results[LATENCIES[0]]
    slowest = results[LATENCIES[-1]]
    # Benefit survives every latency (vs. the uncoordinated baseline).
    for run in results.values():
        assert run.throughput > base.throughput
        assert run.overall.mean < base.overall.mean
    # Extreme delay gives up (some of) the phase-tracking gain: it is
    # never *better* than the fast channel.
    assert slowest.overall.mean >= fastest.overall.mean * 0.99
