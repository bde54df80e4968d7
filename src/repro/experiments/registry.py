"""The experiment table: the CLI, ``RESULTS.txt`` and ``GOLDEN.txt`` run from it.

Each :class:`Experiment` row holds:

* ``run``, the experiment at full scale. Its keyword parameters are its
  CLI flags, durations in seconds, each defaulting to the runner's own
  constant; a flag it does not take is an argparse error;
* ``render(result)``, the text the CLI prints;
* ``golden``, the small-scale :class:`~repro.parallel.Job` s that
  ``tools/generate_golden.py`` pins, one set of rows per job label. Jobs
  that share a label must render identically, and the file keeps one copy;
* ``in_all``, set on the paper's experiments: ``python -m repro all``
  prints their renders, and that is ``RESULTS.txt``.

Rows are in ``GOLDEN.txt``'s order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from ..parallel import Job
from ..sim import ms, seconds, to_seconds
from . import chaos, energyqos, fabric, fabric_sharded, mplayer, power, rubis, scalability
from . import shard_chaos, trace


@dataclass(frozen=True, slots=True)
class Experiment:
    """One row of the experiment table (see the module docstring)."""

    name: str
    help: str
    run: Callable[..., Any]
    render: Callable[[Any], str]
    golden: tuple[Job, ...] = ()
    in_all: bool = False


EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        "rubis", "Tables 1-2, Figures 2/4/5 (paired RUBiS run)",
        run=lambda duration=to_seconds(rubis.DEFAULT_DURATION), seed=1: (
            rubis.run_rubis_pair(seconds(duration), seed)
        ),
        render=rubis.render_rubis,
        in_all=True,
    ),
    Experiment(
        "mplayer-qos", "Figure 6 (stream-QoS weight ladder)",
        run=lambda seed=1: mplayer.run_qos_ladder(seed),
        render=mplayer.render_figure6,
        in_all=True,
    ),
    Experiment(
        "buffer-trigger", "Figure 7 + Table 3 (buffer-monitor triggers)",
        run=mplayer.run_trigger_pair,
        render=mplayer.render_trigger,
        in_all=True,
    ),
    Experiment(
        "fabric",
        "Extension: control-plane fabrics at scale — central/hierarchical/gossip directories, "
        "K in {8,32,128}, concentration + post-partition discovery convergence",
        run=lambda seed=1: fabric.run_fabric(seed=seed),
        render=fabric.render_fabric,
        golden=tuple(
            Job(fabric.run_fabric_arm, (arm, count), dict(seed=seed),
                label=f"{arm},K={count},seed={seed}")
            for arm in fabric.ARMS for count in (8, 32) for seed in (1, 7)
        ),
    ),
    Experiment(
        "scalability",
        "Extension: coordination scalability — K-island meshes, "
        "centralized vs distributed message concentration",
        run=lambda: scalability.run_scalability(),
        render=scalability.render_scalability,
        golden=tuple(
            Job(scalability.run_scalability_arm, (arm, count), label=f"{arm},K={count}")
            for arm in scalability.ARMS for count in (2, 4, 8)
        ),
    ),
    Experiment(
        "chaos",
        "Robustness: blackout sweep — detection, fallback, recovery, reconvergence, "
        "lease hygiene",
        run=lambda seed=1: chaos.run_chaos_sweep(seed=seed),
        render=chaos.render_chaos,
        golden=tuple(
            Job(chaos.run_chaos_arm, (ms(blackout),), label=f"blackout={blackout}ms")
            for blackout in (200, 500, 1000)
        ),
    ),
    Experiment(
        "energyqos",
        "Extension: energy/QoS co-optimization across DVFS, LLC ways and memory bandwidth "
        "(vs both ablations)",
        run=lambda seed=1: energyqos.run_energy_qos(seed=seed),
        render=energyqos.render_energy_qos,
        golden=(Job(energyqos.run_energy_qos, kwargs=dict(seed=1), label="seed=1"),),
    ),
    Experiment(
        "power-cap", "Extension: coordinated platform power capping",
        run=lambda cap=power.DEFAULT_CAP_W, seed=1: power.run_power_cap(cap, seed),
        render=power.render_power_cap,
        golden=tuple(
            Job(power.run_power_cap_arm, (mode,), dict(duration=seconds(5)), label=f"{mode},5s")
            for mode in power.ARMS
        ),
    ),
    Experiment(
        "trace", "Causally-traced run -> chrome://tracing JSON + control-loop latency breakdown",
        run=lambda duration=to_seconds(trace.DEFAULT_TRACE_DURATION), seed=1, out="trace.json": (
            trace.run_traced_rubis(duration=seconds(duration), seed=seed, destination=out)
        ),
        render=trace.render_control_loops,
        golden=(Job(trace.run_traced_rubis, label="rubis,6s",
                    kwargs=dict(duration=seconds(6), destination=os.devnull)),),
    ),
    Experiment(
        "fabric-sharded",
        "Extension: sharded fabric execution — conservative multi-process time-sync over "
        "cluster boundaries, K in {128,512,2048}, bit-identical to single-process",
        run=lambda shards=fabric_sharded.DEFAULT_SHARDS, seed=1: (
            fabric_sharded.run_fabric_sharded(shards=shards, seed=seed)
        ),
        render=fabric_sharded.render_fabric_sharded,
        # K=128 with the blackout on and off (off is the shard-chaos
        # world), at shards 1 and 2.
        golden=tuple(
            Job(fabric_sharded.run_fabric_sharded_arm, (128,),
                dict(shards=shards, blackout=blackout),
                label=f"K=128,blackout={'on' if blackout else 'off'},shards=1|2")
            for blackout in (True, False) for shards in (1, 2)
        ),
    ),
    Experiment(
        "shard-chaos",
        "Robustness: self-healing sharded execution — scripted worker kills/hangs, "
        "journal-replay recovery, K in {128,512}, bit-identical to the undisturbed reference",
        run=lambda shards=fabric_sharded.DEFAULT_SHARDS, seed=1: (
            shard_chaos.run_shard_chaos(shards=shards, seed=seed)
        ),
        render=shard_chaos.render_shard_chaos,
    ),
)


def get(name: str) -> Experiment:
    """The experiment named ``name``; KeyError, naming the table, if none."""
    for exp in EXPERIMENTS:
        if exp.name == name:
            return exp
    raise KeyError(f"no experiment {name!r}; known: {', '.join(e.name for e in EXPERIMENTS)}")
