"""The shard coordinator: window grants, barriers, boundary routing.

One run is a sequence of lockstep windows. For each window ``[T, T+W)``
(``W`` = the plan's lookahead-bounded width) the coordinator journals
the window's complete input (:class:`~repro.shard.journal.WindowJournal`),
grants every shard the window, barriers on their completion, collects
the boundary messages each produced, routes them to the shard owning
each destination island, and folds them into the next grant.
Conservative lookahead guarantees every routed message is due *at or
after* the next window's start, so no shard ever receives a message from
its past.

Two engines run the same protocol:

* **inline** — every :class:`~repro.shard.host.ShardHost` lives in this
  process (``shards=1``, serial degradation, and the reference arm of
  the bit-equality tests);
* **process** — one supervised worker process per shard
  (:class:`~repro.shard.supervisor.SupervisedEngine`) over seq-numbered
  framed pipes, with barrier deadlines, heartbeat liveness probes and
  crash/hang recovery by journal replay.

The engine choice follows the :func:`~repro.parallel.plan_execution`
rules (``REPRO_*`` knobs, nested-in-worker, single CPU); any spawn
failure — and any mid-run
:class:`~repro.shard.supervisor.SupervisionExhausted` (respawn budget
spent, journal truncated) — degrades to the inline engine, with
the cause recorded per run (:class:`DegradationLog`) and never with a
different simulation result: the inline engine is rebuilt from the
journal (or, when the journal is truncated, by deterministic
recomputation from scratch), so degraded runs stay bit-identical to
undisturbed ones.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from ..parallel import plan_execution
from .config import ShardConfig
from .host import ShardHost
from .journal import WindowJournal
from .plan import ShardPlan
from .ports import BoundaryMessage
from .supervisor import (
    ShardWorkerError,
    SupervisedEngine,
    SupervisionExhausted,
    SupervisionLog,
)

_log = logging.getLogger(__name__)
#: Degradation causes already *warned* about in this process — log-spam
#: control only (a 100-job sweep should not warn 100 times). Per-run
#: degradation *state* lives in :class:`DegradationLog`, on the result.
_warned_degradations: set[str] = set()


def reset_degradation_warnings() -> None:
    """Forget which degradation causes have already been warned about.

    The warn-once cache is process-wide (log-spam control across
    sweeps); tests that assert on the warning call this instead of
    reaching into module privates. Per-run degradation records
    (``ShardRunResult.supervision["degradations"]``) are unaffected —
    they were never global.
    """
    _warned_degradations.clear()


class DegradationLog:
    """Per-run record of why (if ever) the run left the process engine.

    Replaces the old module-global "logged degradations" set: causes are
    now state of the run they happened in, surfaced via
    ``ShardRunResult.supervision["degradations"]`` and the
    ``supervision.degraded_inline`` counter, while the process-wide
    :func:`reset_degradation_warnings` cache only dedups the *warning*.
    """

    def __init__(self) -> None:
        self.causes: list[str] = []

    def note(self, cause: str) -> None:
        self.causes.append(cause)
        if cause not in _warned_degradations:
            _warned_degradations.add(cause)
            _log.warning(
                "shard workers unavailable (%s); running shards inline", cause
            )


@dataclass
class ShardRunResult:
    """What one sharded run produced, plus how it ran.

    ``results`` holds each shard's ``collect()`` payload in shard order —
    the *simulation* outcome, bit-identical across engines and shard
    layouts. The remaining fields describe the *execution* (wall clock,
    engine, window count, recovery events) and are the only parts
    allowed to differ.

    ``counters`` merges the deterministic router counters (``sent`` /
    ``dropped`` / ``delivered``), the journal accounting and the
    ``supervision.*`` recovery counters. The supervision keys are zero
    on undisturbed runs under every engine; bit-equality checks against
    a disturbed run should compare only the non-``supervision.`` keys.
    """

    results: list
    shards: int
    engine: str
    windows: int
    events: int
    wall_seconds: float
    #: Boundary messages still in flight when the run ended (due at or
    #: after ``duration``; identical across engines).
    undelivered: int
    counters: dict = field(default_factory=dict)
    #: :meth:`~repro.shard.supervisor.SupervisionLog.summary` of the
    #: run's harness recovery events plus the per-run degradation causes
    #: — wall-clock data, never part of any bit-equality artefact.
    supervision: dict = field(default_factory=dict)

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


class _InlineEngine:
    """All shard hosts in this process, stepped in shard order."""

    name = "inline"

    def __init__(self, plan, build, build_args):
        self.hosts = [
            ShardHost(plan, index, build, build_args=build_args)
            for index in range(plan.shards)
        ]

    def step(self, until: int, batches: list) -> list:
        outbound = []
        for host, batch in zip(self.hosts, batches):
            host.enqueue(batch)
            outbound.append(host.advance(until))
        return outbound

    def finish(self) -> list:
        return [
            {
                "result": host.collect(),
                "events": host.events,
                "counters": host.router.counters(),
            }
            for host in self.hosts
        ]

    def close(self) -> None:
        pass


def _route(plan: ShardPlan, outbound: list) -> list[list[BoundaryMessage]]:
    """Route every drained message to the shard owning its destination."""
    batches: list[list[BoundaryMessage]] = [[] for _ in range(plan.shards)]
    for shard_out in outbound:
        for message in shard_out:
            batches[plan.shard_of(message.dst)].append(message)
    for batch in batches:
        batch.sort(key=BoundaryMessage.sort_key)
    return batches


def _degrade_to_inline(
    old_engine,
    cause: str,
    plan: ShardPlan,
    build,
    build_args: tuple,
    journal: WindowJournal,
    windows: int,
    window: int,
    duration: int,
    log: SupervisionLog,
    degradations: DegradationLog,
) -> _InlineEngine:
    """Swap the whole run onto a fresh inline engine, fast-forwarded to
    window ``windows``: from the journal when it is complete, otherwise
    by deterministic recomputation from scratch. Either way the inline
    hosts land bit-identical to a run that was never disturbed."""
    started = time.monotonic()
    degradations.note(cause)
    log.note("degraded-inline", cause=cause)
    old_engine.close()
    engine = _InlineEngine(plan, build, build_args)
    if windows:
        if journal.complete:
            for _index, until, batches in journal.replay(upto=windows):
                engine.step(until, batches)
            source = "journal"
        else:
            # The journal lost its oldest windows; recompute the prefix —
            # the same loop as the live run, so the result is identical.
            batches: list[list[BoundaryMessage]] = [[] for _ in range(plan.shards)]
            now = 0
            for _w in range(windows):
                until = min(now + window, duration)
                batches = _route(plan, engine.step(until, batches))
                now = until
            source = "recompute"
        log.note(
            "inline-replay", windows=windows, source=source,
            wall_s=round(time.monotonic() - started, 6),
        )
    return engine


def run_sharded(
    plan: ShardPlan,
    build,
    build_args: tuple = (),
    *,
    duration: int,
    workers: Optional[int] = None,
    config: Optional[ShardConfig] = None,
    fault_hook=None,
) -> ShardRunResult:
    """Run ``build``'s world over ``plan`` for ``duration`` ns.

    ``build(ctx, *build_args)`` is called once per shard (in a worker
    process when the engine is parallel), so it must be a module-level
    picklable callable; per-shard determinism must come from the plan
    and explicit seeds in ``build_args``, never from ambient state.

    ``workers`` caps the worker budget (None defers to ``REPRO_WORKERS``
    / the CPU count). ``config`` carries the supervision knobs (barrier
    deadline, heartbeat/probe intervals, respawn budget, journal bound).
    ``fault_hook`` (picklable; see :mod:`repro.shard.worker`) is
    delivered to worker processes only — the inline engine never runs
    hooks, which is what makes a degraded run equal to an undisturbed
    one even under a chaos script.
    """
    config = config or ShardConfig()
    window = plan.window_for(duration)
    if window <= 0:
        raise ValueError(
            "cannot run windows of non-positive width; a zero-latency "
            "cross-cluster link offers no lookahead"
        )
    journal = WindowJournal(plan.shards, limit=config.journal_limit)
    log = SupervisionLog()
    degradations = DegradationLog()
    engine: Any = None
    if plan.shards >= 2:
        exec_plan = plan_execution(plan.shards, max_workers=workers)
        if exec_plan.parallel:
            try:
                engine = SupervisedEngine(
                    plan, build, build_args,
                    config=config, journal=journal, log=log,
                    fault_hook=fault_hook,
                )
            except ShardWorkerError:
                raise  # the world itself failed to build; not a pool problem
            except SupervisionExhausted as exc:
                degradations.note(str(exc))
                log.note("degraded-inline", cause=str(exc))
            except Exception as exc:
                degradations.note(f"{type(exc).__name__}: {exc}")
        else:
            degradations.note(exec_plan.reason)
    if engine is None:
        engine = _InlineEngine(plan, build, build_args)
    start = time.perf_counter()
    batches: list[list[BoundaryMessage]] = [[] for _ in range(plan.shards)]
    now = 0
    windows = 0
    degrade_args = (plan, build, build_args, journal)
    try:
        while now < duration:
            until = min(now + window, duration)
            journal.record(windows, until, batches)
            try:
                outbound = engine.step(until, batches)
            except SupervisionExhausted as exc:
                engine = _degrade_to_inline(
                    engine, str(exc), *degrade_args,
                    windows, window, duration, log, degradations,
                )
                outbound = engine.step(until, batches)
            batches = _route(plan, outbound)
            now = until
            windows += 1
        try:
            shard_results = engine.finish()
        except SupervisionExhausted as exc:
            engine = _degrade_to_inline(
                engine, str(exc), *degrade_args,
                windows, window, duration, log, degradations,
            )
            shard_results = engine.finish()
    finally:
        engine.close()
    wall = time.perf_counter() - start
    counters: dict[str, int] = {}
    for entry in shard_results:
        for key, value in entry["counters"].items():
            counters[key] = counters.get(key, 0) + value
    counters.update(journal.counters())
    counters.update(log.counters())
    supervision = log.summary()
    supervision["degradations"] = list(degradations.causes)
    return ShardRunResult(
        results=[entry["result"] for entry in shard_results],
        shards=plan.shards,
        engine=engine.name,
        windows=windows,
        events=sum(entry["events"] for entry in shard_results),
        wall_seconds=wall,
        undelivered=sum(len(batch) for batch in batches),
        counters=counters,
        supervision=supervision,
    )
