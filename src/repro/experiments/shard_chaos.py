"""Robustness experiment: chaos drills against the shard supervisor.

The sharded fabric's headline guarantee — ``shards=N`` bit-identical to
``shards=1`` — is only worth anything if it survives the harness itself
misbehaving. This experiment runs the sharded fabric of
:mod:`~repro.experiments.fabric_sharded` under *scripted worker faults*
(a picklable :class:`~repro.shard.FaultScript` delivered into the worker
processes) and asserts, for every K and every scenario, that the merged
simulation outcome is bit-identical to an undisturbed single-process
reference:

* **none** — the clean supervised run (the recovery-overhead baseline);
* **crash** — one worker is killed (``os._exit``) mid-run; the
  supervisor respawns it and fast-forwards it by replaying the window
  journal;
* **hang** — one worker falls silent at a barrier; the deadline fires,
  the worker is killed and recovered the same way;
* **exhaust** — the fault fires on every respawn too, spending the
  budget; the whole run reruns inline from window 0.

Reported per row: engine, respawn/crash/hang counts, replayed windows,
recovery wall time (for ``exhaust``, the inline rerun's), and total
wall time next to the clean baseline (the honest cost of self-healing).
All of these come from ``ShardRunResult.supervision``, the harness
record; simulation metrics never include them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..shard import FaultScript, ShardConfig, ShardPlan, run_sharded
from ..sim import ms
from .fabric import FANOUT
from .fabric_sharded import (
    DEFAULT_SHARDS,
    FabricShardWorld,
    _merge_shard_results,
    sharded_topology,
)
from .report import render_table

#: Default Ks drilled (the fabric sweep's lower rungs; clusters = K/16).
ISLAND_COUNTS = (128, 512)
#: Simulated time per run (100 windows at the fabric's 5 ms lookahead).
DURATION = ms(500)
#: Longer than any barrier deadline: hung workers are killed, not waited.
HANG_S = 30.0
#: Supervision knobs for the drills: a tight barrier so hang detection
#: is visibly bounded, heartbeats on, fast respawn backoff.
CHAOS_KNOBS = dict(
    barrier_timeout_s=2.0,
    heartbeat_interval_s=0.1,
    probe_timeout_s=1.0,
    max_respawns=2,
    respawn_backoff_s=0.01,
)


def chaos_scenarios(
    windows: int, shards: int
) -> tuple[tuple[str, FaultScript | None, dict], ...]:
    """The scripted drills for a run of ``windows`` windows: (name,
    fault script, ShardConfig overrides) triples."""
    victim = 1 % shards
    mid = max(1, windows // 4)
    late = max(2, (windows * 3) // 4)
    return (
        ("none", None, {}),
        ("crash", FaultScript(kills=((victim, mid),)), {}),
        ("hang", FaultScript(hangs=((0, late, HANG_S),)), {}),
        (
            "exhaust",
            FaultScript(kills=((victim, mid),), persistent=True),
            {"max_respawns": 1},
        ),
    )


@dataclass
class ShardChaosArmResult:
    """One (K, scenario) drill: recovery accounting + execution cost."""

    num_islands: int
    scenario: str
    shards: int
    engine: str
    windows: int
    crashes: int
    hangs: int
    respawns: int
    replayed_windows: int
    degraded: int
    #: Wall time spent inside recovery (kill -> caught up, or the
    #: inline rerun).
    recovery_seconds: float
    wall_seconds: float
    #: Run survived every scripted fault bit-identical to the reference
    #: (asserted before this result exists; recorded for the table).
    bit_identical: bool


def run_shard_chaos_arm(
    plan: ShardPlan,
    scenario: str,
    script,
    overrides: dict,
    reference_metrics: dict,
    duration: int,
    seed: int,
    workers: int,
) -> ShardChaosArmResult:
    """One drill: run under the fault script, assert bit-equality."""
    config = ShardConfig(**{**CHAOS_KNOBS, **overrides})
    run = run_sharded(
        plan, FabricShardWorld, (seed, duration, False),
        duration=duration, workers=workers, config=config, fault_hook=script,
    )
    metrics = _merge_shard_results(run.results, run.counters)
    if metrics != reference_metrics:
        raise AssertionError(
            f"scenario {scenario!r} diverged from the undisturbed "
            f"single-process reference at K={len(plan.topology.islands)}, "
            f"shards={plan.shards}"
        )
    return ShardChaosArmResult(
        num_islands=len(plan.topology.islands),
        scenario=scenario,
        shards=plan.shards,
        engine=run.engine,
        windows=run.windows,
        crashes=run.supervision["crashes"],
        hangs=run.supervision["hangs"],
        respawns=run.supervision["respawns"],
        replayed_windows=run.supervision["replayed_windows"],
        degraded=run.supervision["degraded_inline"],
        recovery_seconds=run.supervision["recovery_seconds"],
        wall_seconds=run.wall_seconds,
        bit_identical=True,
    )


def run_shard_chaos(
    island_counts=ISLAND_COUNTS,
    shards: int = DEFAULT_SHARDS,
    duration: int = DURATION,
    seed: int = 1,
    workers: int = 2,
    fanout: int = FANOUT,
) -> dict[int, list[ShardChaosArmResult]]:
    """The sweep: per K, an undisturbed single-process reference, then
    every chaos scenario asserted bit-identical to it.

    ``workers`` is passed straight to :func:`~repro.shard.run_sharded`
    as an explicit budget, so the drills exercise real worker processes
    even on hosts whose CPU count would normally degrade them inline.
    """
    results: dict[int, list[ShardChaosArmResult]] = {}
    for count in island_counts:
        topology = sharded_topology(count, fanout=fanout)
        reference = run_sharded(
            ShardPlan(topology, shards=1), FabricShardWorld,
            (seed, duration, False), duration=duration,
        )
        reference_metrics = _merge_shard_results(
            reference.results, reference.counters
        )
        plan = ShardPlan(
            topology, shards=min(shards, len(topology.clusters))
        )
        results[count] = [
            run_shard_chaos_arm(
                plan, scenario, script, overrides,
                reference_metrics, duration, seed, workers,
            )
            for scenario, script, overrides in chaos_scenarios(
                reference.windows, plan.shards
            )
        ]
    return results


def render_shard_chaos(results: dict[int, list[ShardChaosArmResult]]) -> str:
    """Tabulate each drill's recovery accounting and wall-time cost."""
    rows = []
    for count in sorted(results):
        baseline = next(
            (arm for arm in results[count] if arm.scenario == "none"), None
        )
        for arm in results[count]:
            overhead = "-"
            if (
                baseline is not None
                and arm is not baseline
                and baseline.wall_seconds > 0
            ):
                overhead = (
                    f"{(arm.wall_seconds - baseline.wall_seconds):+.2f}s"
                )
            rows.append((
                str(arm.num_islands),
                arm.scenario,
                arm.engine,
                str(arm.crashes),
                str(arm.hangs),
                str(arm.respawns),
                str(arm.replayed_windows),
                str(arm.degraded),
                f"{arm.recovery_seconds:.2f}",
                f"{arm.wall_seconds:.2f}",
                overhead,
                "yes" if arm.bit_identical else "NO",
            ))
    return render_table(
        ["K", "Scenario", "Engine", "Crashes", "Hangs", "Respawns",
         "Replayed", "Degraded", "Recovery (s)", "Wall (s)", "Overhead",
         "Bit-identical"],
        rows,
        title="Robustness: self-healing sharded execution "
              "(every row bit-identical to its undisturbed reference)",
    )
