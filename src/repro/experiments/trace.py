"""Traced control-loop capture: one observed run, exported for Chrome.

Runs a short coordinated RUBiS arm with ``tracing=True`` — which arms the
testbed's :class:`~repro.obs.ControlLoopCollector` — and exports every
completed decision loop as Chrome-trace JSON (``chrome://tracing`` /
Perfetto), alongside a textual per-stage latency breakdown. This is the
observability counterpart of the paper's §3.1 experiment: the same
classified-packet -> Tune -> credit-weight loops, but rendered as spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..apps.rubis import RubisConfig, deploy_rubis
from ..metrics import Summary
from ..obs import export_chrome_trace
from ..sim import ms, seconds
from .report import render_table

#: Measured duration of the traced arm (after warmup) — short: the point
#: is a representative trace, not a statistics-grade run.
DEFAULT_TRACE_DURATION = seconds(12)


@dataclass
class TraceRunResult:
    """Everything a traced capture produced."""

    destination: str
    events_written: int
    loops_completed: int
    loops_coalesced: int
    spans_minted: int
    #: Fraction of applied coordination messages a decision span explains.
    link_fraction: float
    #: Kernel events the run processed.
    events: int
    #: The observatory's control-loop introspection blob.
    report: dict[str, Any] = field(default_factory=dict)


def run_traced_rubis(
    duration: int = DEFAULT_TRACE_DURATION,
    seed: int = 1,
    *,
    destination: str,
    config: Optional[RubisConfig] = None,
) -> TraceRunResult:
    """Run one coordinated RUBiS arm with causal tracing on and export
    its control loops as Chrome-trace JSON at ``destination``."""
    base = config or RubisConfig(
        num_sessions=40,
        requests_per_session=10,
        think_time_mean=ms(300),
        warmup=seconds(4),
    )
    run_config = replace(
        base,
        coordinated=True,
        testbed=replace(base.testbed, seed=seed, tracing=True),
    )
    deployment = deploy_rubis(run_config)
    deployment.run(run_config.warmup + duration)

    testbed = deployment.testbed
    collector = testbed.observatory
    assert collector is not None  # tracing=True wired it
    events = export_chrome_trace(
        collector.records,
        destination,
        metadata={"experiment": "rubis", "seed": seed, "duration_ns": duration},
    )
    agent = testbed.x86_agent
    applied = agent.tunes_applied + agent.triggers_applied
    stats = collector.stats()
    return TraceRunResult(
        destination=destination,
        events_written=events,
        loops_completed=stats.applied,
        loops_coalesced=stats.coalesced_applied,
        spans_minted=stats.minted,
        link_fraction=collector.link_fraction(applied),
        events=testbed.sim.events,
        report=collector.report(),
    )


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.3f}"


def render_control_loops(result: TraceRunResult) -> str:
    """Per-reason stage-latency table of a traced capture (milliseconds)."""
    rows = []
    for reason, stages in sorted(result.report.get("by_reason", {}).items()):
        total: Summary = stages["total"]
        rows.append((
            reason,
            str(total.count),
            *(_ms(stages[name].mean) for name in
              ("classify-send", "ring", "wire", "handle", "apply")),
            _ms(total.p50),
            _ms(total.p95),
        ))
    table = render_table(
        ["reason", "loops", "classify-send", "ring", "wire", "handle",
         "apply", "total p50", "total p95"],
        rows,
        title="Control-loop latency breakdown (mean per stage, ms)",
    )
    footer = (
        f"{result.loops_completed} loops ({result.loops_coalesced} coalesced) "
        f"from {result.spans_minted} decisions; "
        f"{result.link_fraction:.1%} of applied messages span-linked; "
        f"{result.events_written} Chrome events -> {result.destination}"
    )
    return f"{table}\n{footer}"
