"""Command-line entry point: regenerate paper artefacts.

Usage::

    python -m repro list                 # what can be run
    python -m repro rubis                # Tables 1-2, Figures 2/4/5
    python -m repro mplayer-qos          # Figure 6
    python -m repro buffer-trigger       # Figure 7 + Table 3
    python -m repro power-cap [--cap W]  # extension experiment
    python -m repro energyqos            # energy/QoS co-optimization
    python -m repro chaos                # robustness blackout sweep
    python -m repro scalability          # K-island mesh coordination sweep
    python -m repro fabric               # control-plane fabric sweep (K<=128)
    python -m repro fabric-sharded       # sharded fabric execution (K<=2048)
    python -m repro shard-chaos          # self-healing shard chaos drills
    python -m repro trace [--out F]      # traced run -> chrome://tracing JSON
    python -m repro all                  # everything (several minutes)

Options::

    --seed N            experiment seed (default 1)
    --shards N          shard count for fabric-sharded (default 4)
    --duration S        measured seconds per RUBiS arm (default 80)
    --cap W             platform power cap for power-cap (default 48)
    --out F             Chrome-trace output path for trace (default trace.json)
    --trace-duration S  measured seconds of the traced arm (default 12)

Commands are looked up in the experiment registry
(:mod:`repro.experiments.registry`); adding an experiment is one
``@experiment(...)`` decoration, and ``list``/``all`` derive from it.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    all_experiments,
    experiment,
    get,
    names,
    render_chaos,
    render_control_loops,
    render_fabric,
    render_fabric_sharded,
    render_scalability,
    render_shard_chaos,
    render_figure2,
    render_figure4,
    render_figure5,
    render_figure6,
    render_energy_qos,
    render_figure7,
    render_power_cap,
    render_table1,
    render_table2,
    render_table3,
    run_chaos_sweep,
    run_energy_qos,
    run_fabric,
    run_fabric_sharded,
    run_scalability,
    run_shard_chaos,
    run_power_cap,
    run_qos_ladder,
    run_rubis_pair,
    run_traced_rubis,
    run_trigger_pair,
)
from .sim import seconds


def _emit(*artefacts: str) -> None:
    for artefact in artefacts:
        print()
        print(artefact)


@experiment("rubis", help="Tables 1-2, Figures 2/4/5 (paired RUBiS run)",
            artefacts=("figure2", "figure4", "table1", "table2", "figure5"))
def cmd_rubis(args) -> None:
    pair = run_rubis_pair(duration=seconds(args.duration), seed=args.seed)
    _emit(
        render_figure2(pair),
        render_figure4(pair),
        render_table1(pair),
        render_table2(pair),
        render_figure5(pair),
    )


@experiment("mplayer-qos", help="Figure 6 (stream-QoS weight ladder)",
            artefacts=("figure6",))
def cmd_mplayer_qos(args) -> None:
    _emit(render_figure6(run_qos_ladder(seed=args.seed)))


@experiment("buffer-trigger", help="Figure 7 + Table 3 (buffer-monitor triggers)",
            artefacts=("figure7", "table3"))
def cmd_buffer_trigger(args) -> None:
    pair = run_trigger_pair(seed=args.seed)
    _emit(render_figure7(pair), render_table3(pair))


@experiment("power-cap", help="Extension: coordinated platform power capping",
            artefacts=("power-cap",))
def cmd_power_cap(args) -> None:
    _emit(render_power_cap(run_power_cap(cap_w=args.cap, seed=args.seed)))


@experiment("energyqos", help="Extension: energy/QoS co-optimization across "
            "DVFS, LLC ways and memory bandwidth (vs both ablations)",
            artefacts=("energyqos",))
def cmd_energyqos(args) -> None:
    _emit(render_energy_qos(run_energy_qos(seed=args.seed)))


@experiment("chaos", help="Robustness: blackout sweep — detection, fallback, "
            "recovery, reconvergence, lease hygiene",
            artefacts=("chaos",), in_all=False)
def cmd_chaos(args) -> None:
    _emit(render_chaos(run_chaos_sweep(seed=args.seed)))


@experiment("scalability", help="Extension: coordination scalability — "
            "K-island meshes, centralized vs distributed message concentration",
            artefacts=("scalability",), in_all=False)
def cmd_scalability(args) -> None:
    _emit(render_scalability(run_scalability()))


@experiment("fabric", help="Extension: control-plane fabrics at scale — "
            "central/hierarchical/gossip directories, K in {8,32,128}, "
            "concentration + post-partition discovery convergence",
            artefacts=("fabric",), in_all=False)
def cmd_fabric(args) -> None:
    _emit(render_fabric(run_fabric(seed=args.seed)))


@experiment("fabric-sharded", help="Extension: sharded fabric execution — "
            "conservative multi-process time-sync over cluster boundaries, "
            "K in {128,512,2048}, bit-identical to single-process",
            artefacts=("fabric-sharded",), in_all=False)
def cmd_fabric_sharded(args) -> None:
    _emit(render_fabric_sharded(run_fabric_sharded(
        shards=args.shards, seed=args.seed,
    )))


@experiment("shard-chaos", help="Robustness: self-healing sharded execution — "
            "scripted worker kills/hangs, journal-replay recovery, "
            "K in {128,512}, bit-identical to the undisturbed reference",
            artefacts=("shard-chaos",), in_all=False)
def cmd_shard_chaos(args) -> None:
    _emit(render_shard_chaos(run_shard_chaos(
        shards=args.shards, seed=args.seed,
    )))


@experiment("trace", help="Causally-traced run -> chrome://tracing JSON + "
            "control-loop latency breakdown",
            artefacts=("control-loops",), in_all=False)
def cmd_trace(args) -> None:
    result = run_traced_rubis(
        duration=seconds(args.trace_duration),
        seed=args.seed,
        destination=args.out,
    )
    _emit(render_control_loops(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument("command", choices=[*names(), "all", "list"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--shards", type=int, default=4,
                        help="shard count for fabric-sharded")
    parser.add_argument("--duration", type=float, default=80.0,
                        help="measured seconds per RUBiS arm")
    parser.add_argument("--cap", type=float, default=48.0,
                        help="platform power cap in watts")
    parser.add_argument("--out", default="trace.json",
                        help="Chrome-trace output path (trace command)")
    parser.add_argument("--trace-duration", type=float, default=12.0,
                        help="measured seconds of the traced arm")
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(name) for name in names())
        for exp in all_experiments():
            print(f"{exp.name:<{width}}  {exp.help}")
        return 0
    if args.command == "all":
        for exp in all_experiments():
            if not exp.in_all:
                continue
            print(f"\n### {exp.name} " + "#" * max(0, 60 - len(exp.name)))
            exp.run(args)
        return 0
    get(args.command).run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
