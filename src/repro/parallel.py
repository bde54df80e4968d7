"""Process-parallel fan-out for independent simulation runs.

Every experiment arm is one isolated :class:`~repro.sim.core.Simulator` —
arms share no state, so a config sweep or a baseline/coordinated pair is
embarrassingly parallel. The unit of work is a :class:`Job` (a picklable
module-level callable, its arguments and a display label);
:func:`run_jobs` fans any iterable of jobs out over a
``ProcessPoolExecutor`` (one worker process per job, results in
submission order).

Both :func:`run_jobs` and the shard coordinator (:mod:`repro.shard.runtime`)
decide serial vs parallel up front with :func:`plan_execution`, so
``REPRO_PARALLEL=0`` tames every fan-out alike. This module has no
dependencies inside the package, so either side can import it without
dragging the other in. The environment contract:

* ``REPRO_PARALLEL=0`` forces serial execution everywhere;
* ``REPRO_WORKERS`` caps the worker budget (validated at parse time: it
  must be an integer >= 1);
* ``_REPRO_IN_WORKER`` is set inside worker processes, so nested
  fan-outs degrade to serial instead of spawning pools of pools.

A failure of the pool itself — unpicklable arguments, a broken worker, a
sandbox refusing to fork — falls back to re-running the batch serially,
with the reason logged once per distinct cause (logger
``repro.parallel``; the shard coordinator reports its inline fallbacks
through the same :func:`log_fallback`). Determinism is untouched by
construction: a job's result depends only on its callable and
arguments, never on which process executed it — asserted by
``tests/experiments/test_runner.py``, which compares serial and
parallel results bit-for-bit.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

#: Set to "0" to force serial execution regardless of core count.
PARALLEL_ENV = "REPRO_PARALLEL"
#: Overrides the worker count (useful to cap memory on wide machines).
WORKERS_ENV = "REPRO_WORKERS"
#: Present (any value) inside pool workers; nested fan-outs go serial.
_IN_WORKER_ENV = "_REPRO_IN_WORKER"

_log = logging.getLogger(__name__)
#: Fallback causes already reported; each distinct cause logs once.
_logged_fallbacks: set[str] = set()


@dataclass(frozen=True)
class ExecutionPlan:
    """The up-front parallel-or-serial decision for a batch of jobs."""

    parallel: bool
    workers: int
    reason: str

    def __bool__(self) -> bool:
        return self.parallel


def default_workers() -> int:
    """Worker budget: ``REPRO_WORKERS`` if set, else the CPU count.

    ``REPRO_WORKERS`` is validated here, at parse time: it must be an
    integer >= 1, otherwise the sweep would degrade (or die) much later
    inside pool construction with a far less helpful error.
    """
    env = os.environ.get(WORKERS_ENV)
    if env is None or env == "":
        return os.cpu_count() or 1
    try:
        workers = int(env)
    except ValueError:
        raise ValueError(
            f"{WORKERS_ENV}={env!r} is not an integer; "
            "set it to a worker count >= 1 or unset it"
        ) from None
    if workers < 1:
        raise ValueError(
            f"{WORKERS_ENV}={env!r} must be >= 1 (use {PARALLEL_ENV}=0 "
            "to force serial execution)"
        )
    return workers


def plan_execution(njobs: int, max_workers: Optional[int] = None) -> ExecutionPlan:
    """Decide serial vs parallel for ``njobs`` independent jobs.

    Shared by :func:`run_jobs` and the shard coordinator, so every fan-out
    in the repo degrades by the same rules and for inspectable reasons.
    """
    if max_workers is None:
        max_workers = default_workers()
    workers = min(max_workers, njobs)
    if njobs < 2:
        return ExecutionPlan(False, 1, "fewer than two jobs")
    if workers < 2:
        if os.environ.get(WORKERS_ENV) or max_workers != default_workers():
            return ExecutionPlan(False, 1, "worker budget capped at 1")
        return ExecutionPlan(False, 1, "single-CPU host")
    if os.environ.get(PARALLEL_ENV, "1") == "0":
        return ExecutionPlan(False, 1, f"{PARALLEL_ENV}=0")
    if _IN_WORKER_ENV in os.environ:
        return ExecutionPlan(False, 1, "nested inside a pool worker")
    return ExecutionPlan(True, workers, f"{workers} worker processes")


def mark_worker() -> None:
    """Flag this process as a pool worker (nested fan-outs go serial)."""
    os.environ[_IN_WORKER_ENV] = "1"


def log_fallback(cause: str) -> None:
    """Report a fallback from worker processes to serial execution in
    this process, once per distinct cause."""
    if cause not in _logged_fallbacks:
        _logged_fallbacks.add(cause)
        _log.warning("worker processes unavailable (%s); running serially", cause)


@dataclass(frozen=True)
class Job:
    """One unit of work: a picklable module-level callable plus arguments.

    ``label`` names the job in logs and progress output.
    """

    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    label: str = ""

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)

    def __repr__(self) -> str:
        name = self.label or getattr(self.fn, "__name__", repr(self.fn))
        return f"Job({name})"


def _run_job(job: Job) -> Any:
    return job.run()


def run_jobs(jobs: Iterable[Job], max_workers: Optional[int] = None) -> list[Any]:
    """Run a batch of independent jobs; results in submission order.

    ``jobs`` may be any iterable, a generator included. The batch fans
    out over a process pool when :func:`plan_execution` says it can help.
    """
    jobs = list(jobs)
    plan = plan_execution(len(jobs), max_workers=max_workers)
    if not plan.parallel:
        return [job.run() for job in jobs]
    try:
        with ProcessPoolExecutor(
            max_workers=plan.workers, initializer=mark_worker
        ) as pool:
            futures = [pool.submit(_run_job, job) for job in jobs]
            return [future.result() for future in futures]
    except Exception as exc:
        # Pool trouble (unpicklable job, broken worker, fork refused by
        # the sandbox): jobs are pure functions of their arguments, so a
        # serial re-run is always safe — a genuine experiment error
        # re-raises from here with an honest traceback.
        log_fallback(f"{type(exc).__name__}: {exc}")
        return [job.run() for job in jobs]
