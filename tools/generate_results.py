"""Regenerate every paper artefact at full experiment scale.

Run with::

    python tools/generate_results.py > RESULTS.txt

Used to populate EXPERIMENTS.md; also a convenient one-shot check that the
whole reproduction is healthy. All five independent runs (RUBiS base and
coord, the Figure 6 ladder, trigger base and coord) fan out across cores
through ``repro.parallel``; set ``REPRO_PARALLEL=0`` to force the
serial path (the artefacts are identical either way).
"""

from repro.experiments import (
    RubisPairResult,
    TriggerPairResult,
    render_figure2,
    render_figure4,
    render_figure5,
    render_figure6,
    render_figure7,
    render_table1,
    render_table2,
    render_table3,
    run_qos_ladder,
    run_rubis,
    run_trigger_arm,
)
from repro.parallel import Job, run_jobs
from repro.sim import seconds


def main():
    print("Reproduction results — all tables and figures")
    print("=" * 72)

    rubis_kwargs = dict(duration=seconds(80), seed=1)
    base, coord, ladder, trigger_base, trigger_coord = run_jobs([
        Job(run_rubis, kwargs=dict(coordinated=False, **rubis_kwargs), label="rubis:base"),
        Job(run_rubis, kwargs=dict(coordinated=True, **rubis_kwargs), label="rubis:coord"),
        Job(run_qos_ladder, label="qos-ladder"),
        Job(run_trigger_arm, args=(False,), label="trigger:base"),
        Job(run_trigger_arm, args=(True,), label="trigger:coord"),
    ])
    pair = RubisPairResult(base=base, coord=coord)
    trigger = TriggerPairResult(base=trigger_base, coord=trigger_coord)

    for artefact in (render_figure2(pair), render_figure4(pair), render_table1(pair),
                     render_table2(pair), render_figure5(pair)):
        print()
        print(artefact)
    base, coord = pair.base, pair.coord
    print(f"\n[raw] thr {base.throughput:.1f}->{coord.throughput:.1f} "
          f"mean {base.overall.mean:.0f}->{coord.overall.mean:.0f} "
          f"std {base.overall.std:.0f}->{coord.overall.std:.0f} "
          f"max {base.overall.maximum:.0f}->{coord.overall.maximum:.0f} "
          f"min {base.overall.minimum:.1f}->{coord.overall.minimum:.1f} "
          f"util {base.total_utilization:.0f}->{coord.total_utilization:.0f} "
          f"eff {base.efficiency:.2f}->{coord.efficiency:.2f} "
          f"sessions {base.sessions_completed}->{coord.sessions_completed} "
          f"sesstime {base.mean_session_time_s:.0f}->{coord.mean_session_time_s:.0f}s")

    print()
    print(render_figure6(ladder))

    print()
    print(render_figure7(trigger))
    print()
    print(render_table3(trigger))


if __name__ == "__main__":
    main()
