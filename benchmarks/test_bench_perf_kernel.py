"""Kernel throughput microbenchmarks: events/sec on fixed seeded workloads.

Two scenarios, both written to ``BENCH_kernel.json`` at the repo root:

* **mixed** — the original workload (pure delay loops, a resource-
  arbitration clique, a store producer/consumer pair) run twice over the
  same kernel: once sleeping via the integer fast path (``yield n``) and
  once via the allocating classic path (``yield sim.timeout(n)``).
* **periodic** — a periodic-tick-dominated workload (hundreds of fixed-
  period control loops: scheduler ticks, samplers, heartbeats) run three
  ways: the old generator idiom (``while True: yield period``), a
  :class:`PeriodicTask` fleet through the timer wheel, and the classic
  heap: a kernel whose every entry past the drained slot goes to the
  binary heap (:class:`_ClassicHeap`), driving tickers that re-arm
  through a real ``Timeout`` before each tick (:class:`_HeapTicker`).
  The wheel fleet is the production configuration; the generator run is
  what every periodic site cost before ``PeriodicTask`` existed.

Every variant pair must agree exactly on final virtual time and event
count — both optimisations are pure mechanics, asserted here and in
``tests/sim/test_fastpath.py`` / ``tests/sim/test_timerwheel.py``.

Each scenario runs ``ROUNDS`` interleaved rounds, one run of every variant
per round, alternating which variant runs first. Each ratio is the median
of its per-round ratios: a ratio taken from a single back-to-back pair
moves with whatever the host does during either run.

**Ratchet:** ``benchmarks/baseline_kernel.json`` commits the speedup
*ratios* (machine-independent, unlike raw events/sec) and each bench
fails if a median ratio drops below ``RATCHET_FRACTION`` of its
baseline — CI runs these jobs gating, so a kernel change that erodes
either fast path by >20% cannot merge unnoticed.
"""

from __future__ import annotations

import gc
import heapq
import json
import random
import statistics
import time
from pathlib import Path

from repro.sim import Resource, Simulator, Store, ms, seconds, us
from repro.sim.core import _WHEEL_SHIFT

#: Output artefact (uploaded by the CI perf-smoke job).
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
#: Committed speedup-ratio floors (the perf ratchet).
BASELINE_PATH = Path(__file__).resolve().parent / "baseline_kernel.json"
#: A measured ratio below this fraction of its committed baseline fails.
RATCHET_FRACTION = 0.8
#: Interleaved rounds per scenario; each ratio is the median over them.
ROUNDS = 9

NUM_SLEEPERS = 50
SLEEPS_PER_PROC = 4_000
NUM_WORKERS = 8
WORK_ITEMS = 2_000
SEED = 1

NUM_PERIODIC = 512
PERIODIC_DURATION = seconds(5)


def _check_ratchet(name: str, measured: float) -> None:
    """Fail when ``measured`` regresses >20% below the committed ratio."""
    baselines = json.loads(BASELINE_PATH.read_text())
    floor = baselines[name] * RATCHET_FRACTION
    assert measured >= floor, (
        f"perf ratchet: {name} = {measured:.2f}x fell below "
        f"{floor:.2f}x ({RATCHET_FRACTION:.0%} of committed {baselines[name]:.2f}x)"
    )


def _interleaved(measure, variants: tuple) -> list[dict]:
    """``ROUNDS`` rounds of ``{variant: measure(variant)}``, the run order
    reversed on every other round."""
    rounds = []
    for index in range(ROUNDS):
        order = variants if index % 2 == 0 else variants[::-1]
        runs = {}
        for variant in order:
            # Free the previous run's world first, so its cyclic garbage
            # is not collected inside this run's timed region.
            gc.collect()
            runs[variant] = measure(variant)
        rounds.append(runs)
    return rounds


def _median_run(runs: list[dict]) -> dict:
    return {
        "seconds": round(statistics.median(run["seconds"] for run in runs), 4),
        "events_per_sec": round(statistics.median(run["events_per_sec"] for run in runs)),
    }


def _merge_result(section: str, payload: dict) -> None:
    """Update one scenario's section of ``BENCH_kernel.json`` in place."""
    try:
        result = json.loads(RESULT_PATH.read_text())
    except (FileNotFoundError, json.JSONDecodeError):
        result = {}
    result[section] = payload
    RESULT_PATH.write_text(json.dumps(result, indent=2) + "\n")


def _build_workload(sim: Simulator, fastpath: bool, counters: dict) -> None:
    rng = random.Random(SEED)
    delay_plans = [
        [rng.randrange(1, 5_000) for _ in range(SLEEPS_PER_PROC)]
        for _ in range(NUM_SLEEPERS)
    ]

    def sleeper(plan):
        # `fastpath` picks the yield spelling (`yield n` or `yield
        # sim.timeout(n)`) on the same kernel, so the comparison isolates
        # allocation cost.
        if fastpath:
            for delay in plan:
                yield delay
                counters["events"] += 1
        else:
            for delay in plan:
                yield sim.timeout(delay)
                counters["events"] += 1

    pipeline = Resource(sim, capacity=2, name="bench-pipeline")

    def worker(offset):
        for i in range(WORK_ITEMS):
            request = pipeline.request()
            yield request
            try:
                if fastpath:
                    yield 40 + (offset + i) % 160
                else:
                    yield sim.timeout(40 + (offset + i) % 160)
            finally:
                pipeline.release(request)
            counters["events"] += 1

    queue = Store(sim, capacity=64, name="bench-store")

    def producer():
        for i in range(WORK_ITEMS):
            yield queue.put(i)
            if fastpath:
                yield 120
            else:
                yield sim.timeout(120)
            counters["events"] += 1

    def consumer():
        for _ in range(WORK_ITEMS):
            yield queue.get()
            if fastpath:
                yield 95
            else:
                yield sim.timeout(95)
            counters["events"] += 1

    for index, plan in enumerate(delay_plans):
        sim.spawn(sleeper(plan), name=f"sleeper-{index}")
    for index in range(NUM_WORKERS):
        sim.spawn(worker(index * 17), name=f"worker-{index}")
    sim.spawn(producer(), name="producer")
    sim.spawn(consumer(), name="consumer")


def _measure(fastpath: bool) -> dict:
    sim = Simulator()
    counters = {"events": 0}
    _build_workload(sim, fastpath, counters)
    started = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "events": counters["events"],
        "final_time": sim.now,
        "events_per_sec": counters["events"] / elapsed if elapsed > 0 else 0.0,
    }


def test_bench_perf_kernel():
    _measure(True)  # warm caches/allocator
    rounds = _interleaved(_measure, (False, True))
    for runs in rounds:
        classic, fast = runs[False], runs[True]
        # The fast path must be an *identical* simulation, only cheaper.
        assert fast["events"] == classic["events"]
        assert fast["final_time"] == classic["final_time"]

    ratios = [runs[True]["events_per_sec"] / runs[False]["events_per_sec"] for runs in rounds]
    speedup = statistics.median(ratios)
    fast = rounds[0][True]
    result = {
        "workload": {
            "sleepers": NUM_SLEEPERS,
            "sleeps_per_proc": SLEEPS_PER_PROC,
            "resource_workers": NUM_WORKERS,
            "store_items": WORK_ITEMS,
            "seed": SEED,
        },
        "events": fast["events"],
        "final_virtual_time_ns": fast["final_time"],
        "rounds": ROUNDS,
        "classic": _median_run([runs[False] for runs in rounds]),
        "fastpath": _median_run([runs[True] for runs in rounds]),
        "speedup": round(speedup, 3),
        "speedup_per_round": [round(ratio, 3) for ratio in ratios],
    }
    _merge_result("mixed", result)
    print(f"\nkernel bench [mixed]: {result['fastpath']['events_per_sec']} ev/s fast "
          f"vs {result['classic']['events_per_sec']} ev/s classic "
          f"({speedup:.2f}x) -> {RESULT_PATH.name}")

    _check_ratchet("mixed_fastpath_speedup", speedup)


# -- periodic-tick scenario --------------------------------------------------


class _ClassicHeap(Simulator):
    """The kernel with its timer wheel taken out: every entry past the slot
    being drained goes to the binary heap, as in a one-heap kernel."""

    def _push(self, time, obj):
        entry = (time, self._seq, obj)
        self._seq += 1
        if (time >> _WHEEL_SHIFT) <= self._cursor:
            heapq.heappush(self._ready, entry)
        else:
            heapq.heappush(self._heap, entry)


class _HeapTicker:
    """A periodic tick spelled with Timeouts: each tick counts itself,
    re-arms through a real ``Timeout`` and then calls ``fn`` — the per-tick
    work :class:`PeriodicTask` did on the classic heap."""

    __slots__ = ("sim", "period", "fn", "ticks")

    def __init__(self, sim: Simulator, period: int, fn):
        self.sim = sim
        self.period = period
        self.fn = fn
        self.ticks = 0
        self._arm()

    def _arm(self) -> None:
        self.sim.timeout(self.period).callbacks.append(self._fired)

    def _fired(self, _event) -> None:
        self.ticks += 1
        self._arm()
        self.fn()


def _build_periodic(sim: Simulator, idiom: str, counters: dict) -> None:
    """A control-plane-shaped fleet: fixed-period loops and nothing else.

    Periods span sub-slot (~0.1 ms) to multi-slot (~20 ms) — the range the
    real models use (credit ticks at 10 ms, accounting at 30 ms, samplers
    at 1 s, heartbeats at tens of ms) — so re-arming exercises both the
    ready heap and O(1) wheel appends.
    """
    rng = random.Random(SEED)
    periods = [rng.randrange(us(100), ms(20)) for _ in range(NUM_PERIODIC)]

    def tick():
        counters["events"] += 1

    if idiom == "task":
        for period in periods:
            sim.periodic(period, tick)
    elif idiom == "heap":
        for period in periods:
            _HeapTicker(sim, period, tick)
    else:
        def loop(period):
            while True:
                yield period
                counters["events"] += 1

        for index, period in enumerate(periods):
            sim.spawn(loop(period), name=f"ticker-{index}")


def _measure_periodic(idiom: str) -> dict:
    sim = _ClassicHeap() if idiom == "heap" else Simulator()
    counters = {"events": 0}
    _build_periodic(sim, idiom, counters)
    started = time.perf_counter()
    sim.run(until=PERIODIC_DURATION)
    elapsed = time.perf_counter() - started
    return {
        "seconds": elapsed,
        "events": counters["events"],
        "final_time": sim.now,
        "events_per_sec": counters["events"] / elapsed if elapsed > 0 else 0.0,
    }


def test_bench_perf_kernel_periodic():
    _measure_periodic("task")  # warm caches/allocator
    # The wheel runs between its two baselines, so each ratio it enters
    # divides two back-to-back runs.
    rounds = _interleaved(_measure_periodic, ("generator", "task", "heap"))
    for runs in rounds:
        generator, heap, wheel = runs["generator"], runs["heap"], runs["task"]
        # All three are the same simulation: identical tick counts, same end.
        assert wheel["events"] == generator["events"] == heap["events"]
        assert wheel["final_time"] == generator["final_time"] == heap["final_time"]

    def ratios(baseline):
        return [runs["task"]["events_per_sec"] / runs[baseline]["events_per_sec"]
                for runs in rounds]

    vs_generator_rounds, vs_heap_rounds = ratios("generator"), ratios("heap")
    vs_generator = statistics.median(vs_generator_rounds)
    vs_heap = statistics.median(vs_heap_rounds)
    result = {
        "workload": {
            "periodic_tasks": NUM_PERIODIC,
            "virtual_duration_ns": PERIODIC_DURATION,
            "seed": SEED,
        },
        "events": rounds[0]["task"]["events"],
        "rounds": ROUNDS,
        "generator_idiom": _median_run([runs["generator"] for runs in rounds]),
        "periodic_heap": _median_run([runs["heap"] for runs in rounds]),
        "periodic_wheel": _median_run([runs["task"] for runs in rounds]),
        "speedup_vs_generator": round(vs_generator, 3),
        "speedup_vs_heap": round(vs_heap, 3),
        "speedup_vs_generator_per_round": [round(ratio, 3) for ratio in vs_generator_rounds],
        "speedup_vs_heap_per_round": [round(ratio, 3) for ratio in vs_heap_rounds],
    }
    _merge_result("periodic", result)
    print(f"\nkernel bench [periodic]: {result['periodic_wheel']['events_per_sec']} ev/s wheel "
          f"vs {result['generator_idiom']['events_per_sec']} ev/s generator "
          f"({vs_generator:.2f}x) -> {RESULT_PATH.name}")

    _check_ratchet("periodic_wheel_vs_generator", vs_generator)
    _check_ratchet("periodic_wheel_vs_heap", vs_heap)
