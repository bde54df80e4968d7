"""End-to-end and per-layer benchmark of the coordinated-islands simulator.

Run from the repository root::

    python3 perfbench/run.py --workload rubis-coord --seed 1 --seconds 40 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``. Steadiness mode::

    python3 perfbench/run.py --steady 10 --seconds 40 [--workload NAME] [--seed 1]

runs each workload once per seed, each run in a fresh interpreter and one
after the other, and prints the median, quartiles and range of every
end-to-end metric against its bound in BENCHMARK.json. It exits non-zero
when a run fails or a spread exceeds its bound. README.md explains the
workloads, the metrics and the estimators.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: End-to-end metrics and their units, in report order.
END_TO_END = {
    "host_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "qos_latency_ms": "ms",
    "qos_rate": "1/s",
    "ctrl_msgs_max": "count",
}
#: Repetitions a run makes whatever its time budget: the agreement check
#: and the per-slice minimum need several.
MIN_REPETITIONS = 3
#: Set-up-only world builds after each repetition, for ``setup_s``.
EXTRA_SETUPS = 9
#: A steadiness-mode run that takes longer than this has failed.
RUN_TIMEOUT_S = 180


def calibrate(rounds: int = 5) -> list[float]:
    """Milliseconds a fixed pure-Python loop takes, ``rounds`` times.

    A diagnostic that makes a slow or swinging host visible in the
    report. It never scales a metric.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return times


def repeat(workload, seed: int, budget_s: float, min_reps: int, extra_setups: int):
    """Run ``workload`` until ``budget_s`` has passed, and at least
    ``min_reps`` times. Returns ``(clocks, outcomes, crashed, setups)``:
    the clocks and outcomes of the repetitions that finished, how many
    raised, and the set-up time of every build: each repetition's own
    and ``extra_setups`` set-up-only builds after it.
    """
    from workloads import Clock, SetupDone  # noqa: PLC0415 — imported once src/ is on the path

    clocks, outcomes, setups = [], [], []
    crashed = 0
    start = time.perf_counter()
    while len(clocks) + crashed < min_reps or time.perf_counter() - start < budget_s:
        gc.collect()
        clock = Clock()
        try:
            outcomes.append(workload.run(seed, clock))
        except Exception:  # a broken repetition is counted as failed, not fatal
            traceback.print_exc()
            crashed += 1
            continue
        clocks.append(clock)
        setups.append(clock.setup_s)
        for _ in range(extra_setups):
            only = Clock(setup_only=True)
            try:
                workload.run(seed, only)
            except SetupDone:
                setups.append(only.setup_s)
    return clocks, outcomes, crashed, setups


def check(outcomes: list) -> int:
    """Count repetitions that failed an output check or did not repeat
    the first repetition's simulated results exactly."""
    failed = 0
    reference = outcomes[0].signature() if outcomes else None
    for index, outcome in enumerate(outcomes):
        problems = list(outcome.problems)
        if outcome.signature() != reference:
            problems.append("simulated results differ from repetition 0")
        if problems:
            failed += 1
            print(f"repetition {index} failed: {'; '.join(problems)}")
    return failed


def end_to_end(workload, seed: int, budget_s: float) -> tuple[dict, int, int]:
    calibration = calibrate()
    clocks, outcomes, crashed, setups = repeat(
        workload, seed, budget_s, MIN_REPETITIONS, EXTRA_SETUPS
    )
    calibration += calibrate()
    failed = crashed + check(outcomes)
    if not clocks:
        sys.exit("no repetition finished")

    # Each slice's minimum across repetitions is its cost on the fastest
    # host moment that slice met; their sum is the workload's host cost.
    host_s = sum(min(times) for times in zip(*(c.slice_s for c in clocks)))
    wholes = sorted(sum(c.slice_s) for c in clocks)
    values = {
        "host_s": host_s,
        # Builds are spread over the run like the slices, so their
        # minimum, too, is the cost at the fastest host moment.
        "setup_s": min(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **outcomes[0].qos,
    }
    print(f"{len(clocks)} repetitions of {len(clocks[0].slice_s)} slices")
    print(f"host_s {host_s:.4f}: whole repetitions min {wholes[0]:.4f} "
          f"median {statistics.median(wholes):.4f} max {wholes[-1]:.4f}")
    print(f"setup_s {values['setup_s']:.5f}: {len(setups)} builds, "
          f"median {statistics.median(setups):.5f} max {max(setups):.5f}")
    print(f"calibration loop (diagnostic only): min {min(calibration):.2f} ms "
          f"median {statistics.median(calibration):.2f} ms "
          f"max {max(calibration):.2f} ms")
    print("results: " + ", ".join(f"{k}={v:.6g}" for k, v in outcomes[0].results.items()))
    return values, len(clocks) + crashed, failed


def per_layer(workload, seed: int, budget_s: float) -> tuple[dict, int, int]:
    import layers  # noqa: PLC0415 — imported once src/ is on the path
    from workloads import Clock  # noqa: PLC0415 — imported once src/ is on the path

    clocks, outcomes, crashed, _ = repeat(workload, seed, budget_s / 2, 2, 0)
    if not clocks:
        sys.exit("no repetition finished")
    profiler = cProfile.Profile()
    traced = Clock(profiler=profiler)
    try:
        outcomes.append(workload.run(seed, traced))
    finally:
        profiler.disable()
    failed = crashed + check(outcomes)

    shares, calls, coverage = layers.attribute(profiler, str(SRC / "repro"))
    untraced_s = min(sum(c.slice_s) for c in clocks)
    values = {}
    for layer in layers.LAYERS:
        values[f"{layer}.self_share"] = shares[layer]
        values[f"{layer}.calls"] = calls[layer]
    values["trace.coverage"] = coverage
    values["trace.overhead_x"] = sum(traced.slice_s) / untraced_s
    values.update(outcomes[0].counters)
    print("self time by layer: " + ", ".join(
        f"{layer} {share:.1%}" for layer, share
        in sorted(shares.items(), key=lambda item: -item[1]) if share
    ))
    print(f"coverage {coverage:.1%}, tracing overhead {values['trace.overhead_x']:.2f}x")
    return values, len(clocks) + crashed + 1, failed


def per_layer_units() -> dict:
    import layers  # noqa: PLC0415 — imported once src/ is on the path
    from workloads import COUNTERS  # noqa: PLC0415 — imported once src/ is on the path

    units = {}
    for layer in layers.LAYERS:
        units[f"{layer}.self_share"] = "share"
        units[f"{layer}.calls"] = "count"
    units["trace.coverage"] = "share"
    units["trace.overhead_x"] = "x"
    units.update(COUNTERS)
    return units


def measure(args) -> None:
    if not (SRC / "repro").is_dir():
        sys.exit(f"perfbench: no simulator sources at {SRC.relative_to(ROOT)}/repro; "
                 "run from a full checkout")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # noqa: PLC0415 — needs src/ on the path first

    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    print(f"workload {workload.name} ({workload.why}), seed {args.seed}")
    if args.trace:
        values, attempted, failed = per_layer(workload, args.seed, args.seconds)
        units = per_layer_units()
    else:
        values, attempted, failed = end_to_end(workload, args.seed, args.seconds)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def steady(args) -> int:
    """Run each workload ``args.steady`` times and judge the spreads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    bad = 0
    for name in names:
        values: dict[str, list[float]] = {}
        for offset in range(args.steady):
            command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
                       "--trace", "0"]
            run = subprocess.run(command, capture_output=True, text=True,
                                 timeout=RUN_TIMEOUT_S, check=False)
            lines = run.stdout.strip().splitlines()
            if run.returncode or not lines:
                print(f"{name} seed {args.seed + offset}: exit {run.returncode}\n{run.stderr}")
                bad += 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {args.seed + offset}: incorrect\n{run.stdout}")
                bad += 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"\n{name}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
        print(f"  {'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
        for metric, series in values.items():
            if len(series) < 2:
                continue
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            iqr = (q3 - q1) / median if median else 0.0
            spread = (max(series) - min(series)) / median if median else 0.0
            bound = bounds.get(metric)
            verdict = ""
            if bound is not None and iqr > bound:
                verdict = "  SPREAD EXCEEDS BOUND"
                bad += 1
            print(f"  {metric:<16}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{iqr:>9.1%}{spread:>10.1%}{bound if bound is not None else '-':>7}"
                  f"{verdict}")
    return 1 if bad else 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (steadiness mode: all if omitted)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time of one run (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--steady", type=int, default=0, metavar="N",
                        help="steadiness mode: N runs per workload, seeds seed..seed+N-1")
    args = parser.parse_args()
    if args.steady:
        sys.exit(steady(args))
    if args.workload is None:
        parser.error("--workload is required")
    measure(args)


if __name__ == "__main__":
    main()
