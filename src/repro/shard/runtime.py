"""The shard coordinator: window grants, barriers, boundary routing.

One run is a sequence of lockstep windows. For each window ``[T, T+W)``
(``W`` = the plan's lookahead) the coordinator grants every shard the
window, barriers on their completion, collects the boundary messages
each produced, routes them to the shard owning each destination island,
and folds them into the next grant. Conservative lookahead guarantees
every routed message is due *at or after* the next window's start, so
no shard ever receives a message from its past.

Two engines run the same window loop:

* **inline** — every :class:`~repro.shard.host.ShardHost` lives in this
  process (``shards=1``, degraded runs, and the reference arm of the
  bit-equality tests);
* **process** — one supervised worker process per shard
  (:class:`~repro.shard.supervisor.SupervisedEngine`) over seq-numbered
  framed pipes, with barrier deadlines, heartbeat liveness probes and
  crash/hang recovery by journal replay.

The engine choice follows the :func:`~repro.parallel.plan_execution`
rules (``REPRO_*`` knobs, nested-in-worker, single CPU). A run that
cannot start its workers (a spawn failure) runs inline from the start;
a run whose supervisor gives up mid-run
(:class:`~repro.shard.supervisor.SupervisionExhausted`: respawn budget
spent, journal truncated) closes its workers and reruns inline from
window 0. Either way the cause is one ``degraded-inline`` event in the
run's :class:`~repro.shard.supervisor.SupervisionLog`, warned once per
cause through :func:`~repro.parallel.log_fallback`, and the simulation
result is the one an undisturbed run produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..parallel import log_fallback, plan_execution
from .config import ShardConfig
from .host import ShardHost
from .plan import ShardPlan
from .ports import BoundaryMessage
from .supervisor import (
    ShardWorkerError,
    SupervisedEngine,
    SupervisionExhausted,
    SupervisionLog,
)


@dataclass
class ShardRunResult:
    """What one sharded run produced, plus how it ran.

    ``results`` holds each shard's ``collect()`` payload in shard order
    and ``counters`` the routers' ``sent`` / ``dropped`` / ``delivered``
    summed over shards: the *simulation* outcome, bit-identical across
    engines and shard layouts. The remaining fields describe the
    *execution* (wall clock, engine, window count, the harness record)
    and are the only parts allowed to differ.
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
    counters: dict
    #: :meth:`~repro.shard.supervisor.SupervisionLog.summary` of the
    #: run's harness: recovery counts, journal volume, degradation
    #: causes and events — wall-clock data, never part of any
    #: bit-equality artefact.
    supervision: dict


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


def _run_windows(engine, plan: ShardPlan, window: int, duration: int):
    """The window loop: grant, barrier, route, from 0 to ``duration``.

    Returns ``(per-shard finish entries, windows run, batches still in
    flight)``.
    """
    batches: list[list[BoundaryMessage]] = [[] for _ in range(plan.shards)]
    now = 0
    windows = 0
    while now < duration:
        until = min(now + window, duration)
        batches = _route(plan, engine.step(until, batches))
        now = until
        windows += 1
    return engine.finish(), windows, batches


def _degrade(log: SupervisionLog, cause: str) -> None:
    """Record why a multi-shard run runs inline, warning once per cause."""
    log.note("degraded-inline", cause=cause)
    log_fallback(cause)


def _start_engine(plan, build, build_args, workers, config, fault_hook, log):
    """Supervised workers when the host allows them, else the inline engine."""
    if plan.shards >= 2:
        exec_plan = plan_execution(plan.shards, max_workers=workers)
        if not exec_plan.parallel:
            _degrade(log, exec_plan.reason)
        else:
            try:
                return SupervisedEngine(
                    plan, build, build_args, config, log, fault_hook
                )
            except ShardWorkerError:
                raise  # the world itself failed to build; not a pool problem
            except SupervisionExhausted as exc:
                _degrade(log, str(exc))
            except Exception as exc:
                _degrade(log, f"{type(exc).__name__}: {exc}")
    return _InlineEngine(plan, build, build_args)


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
    deadline, heartbeat/probe intervals, respawn budget). ``fault_hook``
    (picklable; see :mod:`repro.shard.worker`) is delivered to worker
    processes only — the inline engine never runs hooks, which is what
    makes a degraded run equal to an undisturbed one even under a chaos
    script.
    """
    window = plan.window_for(duration)
    if window <= 0:
        raise ValueError(
            "cannot run windows of non-positive width; a zero-latency "
            "cross-cluster link offers no lookahead"
        )
    log = SupervisionLog()
    engine = _start_engine(
        plan, build, build_args, workers, config or ShardConfig(),
        fault_hook, log,
    )
    start = time.perf_counter()
    try:
        shard_results, windows, batches = _run_windows(
            engine, plan, window, duration
        )
    except SupervisionExhausted as exc:
        engine.close()
        _degrade(log, str(exc))
        rerun = time.monotonic()
        engine = _InlineEngine(plan, build, build_args)
        shard_results, windows, batches = _run_windows(
            engine, plan, window, duration
        )
        log.note("inline-rerun", wall_s=round(time.monotonic() - rerun, 6))
    finally:
        engine.close()
    wall = time.perf_counter() - start
    counters: dict[str, int] = {}
    for entry in shard_results:
        for key, value in entry["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return ShardRunResult(
        results=[entry["result"] for entry in shard_results],
        shards=plan.shards,
        engine=engine.name,
        windows=windows,
        events=sum(entry["events"] for entry in shard_results),
        wall_seconds=wall,
        undelivered=sum(len(batch) for batch in batches),
        counters=counters,
        supervision=log.summary(),
    )
