"""Supervision for shard workers: deadlines, respawn, replay recovery.

:class:`SupervisedEngine` is the process engine of
:func:`~repro.shard.runtime.run_sharded`, wrapped in a supervise-and-
recover loop: every frame awaited from a worker carries a wall-clock
deadline (the per-window barrier budget of
:attr:`~repro.shard.config.ShardConfig.barrier_timeout_s`), every worker
proves liveness with heartbeat frames from a side thread, and a worker
that crashes (pipe EOF, process exit) or hangs (deadline or probe
expiry) is killed, respawned with exponential backoff under the run's
respawn budget, rebuilt from ``(build, build_args)`` and fast-forwarded
by replaying the engine's :class:`~repro.shard.journal.WindowJournal` —
the reborn shard is bit-identical to a never-crashed one because the
journal is its complete input. The engine journals each window in
:meth:`SupervisedEngine.step`, before granting it, and keeps the last
:data:`JOURNAL_LIMIT` windows.

Two failure classes are deliberately *not* respawned around:

* an ``error`` frame (a Python exception inside the worker) is
  deterministic — replay would reproduce it — so it re-raises as
  :class:`ShardWorkerError`;
* exhausting the respawn budget (or needing a replay the truncated
  journal cannot serve) raises :class:`SupervisionExhausted`, which the
  coordinator catches to rerun the *whole run* inline from window 0
  instead of failing a multi-hour sweep.

Recovery events are logged into a :class:`SupervisionLog`, the
harness-side counterpart of the simulated
:class:`~repro.faults.FailureDetector`'s transition timeline; its
:meth:`~SupervisionLog.summary` is ``ShardRunResult.supervision``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Optional

from ..interconnect import (
    HEARTBEAT,
    FramedConnection,
    ShardProtocolError,
)
from .config import ShardConfig
from .journal import WindowJournal
from .plan import ShardPlan
from .worker import shard_worker_main

#: Poll slice (wall seconds) between liveness checks while awaiting a frame.
_POLL_SLICE_S = 0.05
#: Hard cap on one exponential-backoff sleep before a respawn.
_MAX_BACKOFF_S = 2.0
#: Exit code of a scripted kill (diagnostic only).
_KILL_EXIT_CODE = 43
#: Windows the recovery journal retains. Once older windows are evicted
#: a reborn worker cannot be replayed from window 0, and recovery gives
#: up (the run reruns inline).
JOURNAL_LIMIT = 8192


class ShardWorkerError(RuntimeError):
    """A shard worker failed deterministically; carries its traceback."""


class SupervisionExhausted(RuntimeError):
    """Recovery is out of moves (budget spent, or journal truncated);
    the coordinator reruns the run inline from window 0."""


class _WorkerFailure(Exception):
    """Internal signal: worker ``index`` crashed or hung (``kind``)."""

    def __init__(self, index: int, kind: str, detail: str):
        super().__init__(f"shard {index} {kind}: {detail}")
        self.index = index
        self.kind = kind  # "crash" | "hang"
        self.detail = detail


@dataclass(frozen=True)
class FaultScript:
    """Picklable scripted worker faults for chaos drills.

    Fires inside the worker via the fault-hook protocol (see
    :mod:`repro.shard.worker`): kills are ``os._exit`` (no error frame —
    a real crash, not a Python exception), hangs are ``time.sleep``
    (the heartbeat thread keeps beating, so only the barrier deadline
    catches them). By default a script fires only on ``attempt == 0``,
    so a respawned worker replays clean; ``persistent=True`` keeps
    firing every attempt — the respawn-budget-exhaustion drill.
    """

    #: ``(shard, window)`` pairs to kill at; window may be
    #: :data:`~repro.shard.worker.BUILD_WINDOW` or
    #: :data:`~repro.shard.worker.FINISH_WINDOW`.
    kills: tuple[tuple[int, int], ...] = ()
    #: ``(shard, window, wall_seconds)`` triples to hang at.
    hangs: tuple[tuple[int, int, float], ...] = ()
    #: Fire on every respawn attempt, not just the first life.
    persistent: bool = False

    def __call__(self, shard: int, window: int, attempt: int) -> None:
        if attempt > 0 and not self.persistent:
            return
        for hang_shard, hang_window, sleep_s in self.hangs:
            if (hang_shard, hang_window) == (shard, window):
                time.sleep(sleep_s)
        if (shard, window) in self.kills:
            os._exit(_KILL_EXIT_CODE)


class SupervisionLog:
    """Wall-clock event log of one sharded run's harness.

    The harness-side counterpart of
    :attr:`~repro.faults.FailureDetector.transitions`: a detector watches
    a *simulated* peer; this log watches the real processes running the
    simulation. Event kinds:
    ``worker-crash``, ``worker-hang``, ``worker-respawned``,
    ``finish-timeout``, ``journal-truncated``, ``degraded-inline``,
    ``inline-rerun``.
    """

    def __init__(self) -> None:
        self._t0 = time.monotonic()
        #: kind -> cumulative count.
        self.counts: Counter[str] = Counter()
        #: (wall-offset seconds, kind, payload), ascending.
        self.events: list[tuple[float, str, dict]] = []
        #: Heartbeat frames observed (counted, never logged: volume).
        self.heartbeats = 0
        #: Windows re-granted to respawned workers (journal fast-forward).
        self.replayed_windows = 0
        #: The supervised engine's journal; None when no worker started.
        self.journal: Optional[WindowJournal] = None

    def note(self, kind: str, **payload: Any) -> None:
        self.counts[kind] += 1
        self.events.append((time.monotonic() - self._t0, kind, payload))

    @property
    def recovery_seconds(self) -> float:
        """Total wall time spent inside recovery (kill -> caught up)."""
        return sum(
            payload.get("wall_s", 0.0)
            for _when, kind, payload in self.events
            if kind in ("worker-respawned", "inline-rerun")
        )

    def summary(self) -> dict[str, Any]:
        """One picklable report. The count keys are always present, so a
        clean run reads zero recovery under every engine."""
        journal = self.journal
        return {
            "crashes": self.counts["worker-crash"],
            "hangs": self.counts["worker-hang"],
            "respawns": self.counts["worker-respawned"],
            "replayed_windows": self.replayed_windows,
            "finish_timeouts": self.counts["finish-timeout"],
            "degraded_inline": self.counts["degraded-inline"],
            "journal_windows": 0 if journal is None else journal.windows_recorded,
            "journal_messages": 0 if journal is None else journal.messages_recorded,
            "journal_evicted": 0 if journal is None else journal.evicted,
            "heartbeats": self.heartbeats,
            "recovery_seconds": self.recovery_seconds,
            "degradations": [
                payload["cause"]
                for _when, kind, payload in self.events
                if kind == "degraded-inline"
            ],
            "totals": dict(sorted(self.counts.items())),
            "events": [
                (round(when, 6), kind, dict(payload))
                for when, kind, payload in self.events
            ],
        }

    def __repr__(self) -> str:
        return f"<SupervisionLog events={len(self.events)} {dict(self.counts)}>"


class _WorkerHandle:
    """One supervised worker process and its framed pipe."""

    def __init__(self, proc, link: FramedConnection, index: int, attempt: int):
        self.proc = proc
        self.link = link
        self.index = index
        self.attempt = attempt
        #: monotonic() of the last frame seen from this worker (the
        #: liveness probe reference; heartbeats refresh it).
        self.last_frame = time.monotonic()

    def kill(self) -> None:
        """Tear the worker down unconditionally (SIGKILL, join, close)."""
        if self.proc.is_alive():
            self.proc.kill()
        self.proc.join(timeout=5)
        try:
            self.link.close()
        except OSError:
            pass


class SupervisedEngine:
    """One worker process per shard, supervised: barrier deadlines,
    heartbeat probes, kill/respawn/replay recovery."""

    name = "process"

    def __init__(
        self,
        plan: ShardPlan,
        build,
        build_args: tuple,
        config: ShardConfig,
        log: SupervisionLog,
        fault_hook,
    ):
        self.plan = plan
        self.build = build
        self.build_args = build_args
        self.config = config
        self.log = log
        self.fault_hook = fault_hook
        #: Every window's grant and routed batches: a reborn worker's input.
        self.journal = log.journal = WindowJournal(plan.shards, limit=JOURNAL_LIMIT)
        self.respawns_spent = 0
        #: Completed (barriered) windows — the replay horizon.
        self.windows = 0
        self._ctx = multiprocessing.get_context()
        self.workers: list[Optional[_WorkerHandle]] = [None] * plan.shards
        try:
            for index in range(plan.shards):
                self.workers[index] = self._spawn(index, attempt=0)
            for index in range(plan.shards):
                self._until_ready(index)
        except BaseException:
            self.close()
            raise

    # -- process management ---------------------------------------------------

    def _spawn(self, index: int, attempt: int) -> _WorkerHandle:
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(
                child, self.plan, index, self.build, self.build_args,
                attempt, self.config.heartbeat_interval_s, self.fault_hook,
            ),
            name=f"shard-{index}.{attempt}",
            daemon=True,
        )
        proc.start()
        child.close()
        return _WorkerHandle(proc, FramedConnection(parent), index, attempt)

    def _until_ready(self, index: int) -> None:
        """Await the ready frame, recovering build-time crashes/hangs."""
        try:
            self._await(self.workers[index], ("ready",))
        except _WorkerFailure as failure:
            self._recover(failure, regrant=None)  # awaits ready itself

    def _await(self, handle: _WorkerHandle, kinds: tuple) -> Any:
        """The supervised recv: skip heartbeats, enforce the barrier
        deadline and the liveness probe, detect process death.

        Returns the frame; raises :class:`_WorkerFailure` on crash/hang,
        :class:`ShardWorkerError` on a deterministic error frame.
        """
        barrier = self.config.barrier_timeout_s
        probe = self.config.probe_timeout_s
        deadline = time.monotonic() + barrier
        while True:
            now = time.monotonic()
            if now >= deadline:
                raise _WorkerFailure(
                    handle.index, "hang",
                    f"no {kinds} frame within the {barrier:.1f}s barrier deadline",
                )
            if handle.link.poll(min(_POLL_SLICE_S, deadline - now)):
                try:
                    frame = handle.link.recv()
                except (EOFError, OSError) as exc:
                    raise _WorkerFailure(
                        handle.index, "crash",
                        f"pipe closed mid-protocol ({type(exc).__name__})",
                    ) from None
                handle.last_frame = time.monotonic()
                if frame.kind == HEARTBEAT:
                    self.log.heartbeats += 1
                    continue
                if frame.kind == "error":
                    raise ShardWorkerError(
                        f"shard worker failed:\n{frame.payload}"
                    )
                if frame.kind not in kinds:
                    raise ShardProtocolError(
                        f"expected a frame of kind {kinds}, got {frame!r}"
                    )
                return frame
            # Nothing on the pipe this slice: is the process even there?
            if not handle.proc.is_alive() and not handle.link.poll(0):
                raise _WorkerFailure(
                    handle.index, "crash",
                    f"worker exited with code {handle.proc.exitcode}",
                )
            if time.monotonic() - handle.last_frame > probe:
                raise _WorkerFailure(
                    handle.index, "hang",
                    f"no frames (not even heartbeats) for {probe:.1f}s",
                )

    def _send(self, handle: _WorkerHandle, kind: str, payload=None) -> None:
        """Send, converting a torn pipe into a crash signal."""
        try:
            handle.link.send(kind, payload)
        except (OSError, ValueError, BrokenPipeError) as exc:
            raise _WorkerFailure(
                handle.index, "crash",
                f"send of {kind!r} failed ({type(exc).__name__})",
            ) from None

    # -- recovery -------------------------------------------------------------

    def _recover(
        self, failure: _WorkerFailure, regrant: Optional[tuple] = None
    ) -> None:
        """Kill the offender, respawn with backoff under the budget,
        rebuild its world, fast-forward it by replaying the journal, and
        (when ``regrant`` is given) re-grant the interrupted window.

        Raises :class:`SupervisionExhausted` when the budget is spent or
        the journal can no longer serve the replay.
        """
        index = failure.index
        started = time.monotonic()
        self.log.note(f"worker-{failure.kind}", shard=index, detail=failure.detail)
        self.workers[index].kill()
        if self.windows and not self.journal.complete:
            self.log.note("journal-truncated", shard=index,
                          oldest=self.journal.first_index)
            raise SupervisionExhausted(
                f"journal truncated (oldest retained window "
                f"{self.journal.first_index}); cannot replay shard {index} "
                f"after {failure}"
            )
        while True:
            if self.respawns_spent >= self.config.max_respawns:
                raise SupervisionExhausted(
                    f"respawn budget ({self.config.max_respawns}) exhausted; "
                    f"last failure: {failure}"
                )
            self.respawns_spent += 1
            attempt = self.workers[index].attempt + 1
            backoff = min(
                _MAX_BACKOFF_S,
                self.config.respawn_backoff_s * (2 ** (attempt - 1)),
            )
            if backoff > 0:
                time.sleep(backoff)
            handle = self._spawn(index, attempt)
            self.workers[index] = handle
            try:
                self._await(handle, ("ready",))
                replayed = 0
                for _w, until, batch in self.journal.replay(
                    shard=index, upto=self.windows
                ):
                    self._send(handle, "grant", (until, batch))
                    self._await(handle, ("done",))
                    replayed += 1
                if regrant is not None:
                    self._send(handle, "grant", regrant)
                self.log.replayed_windows += replayed
                self.log.note(
                    "worker-respawned", shard=index, attempt=attempt,
                    replayed=replayed,
                    wall_s=round(time.monotonic() - started, 6),
                )
                return
            except _WorkerFailure as again:
                self.log.note(f"worker-{again.kind}", shard=index,
                              detail=again.detail)
                handle.kill()
                failure = again

    # -- the engine contract --------------------------------------------------

    def step(self, until: int, batches: list) -> list:
        # Journal before granting, so the journal always covers the
        # window a failure interrupts.
        self.journal.record(self.windows, until, batches)
        for handle, batch in zip(self.workers, batches):
            try:
                self._send(handle, "grant", (until, batch))
            except _WorkerFailure as failure:
                self._recover(failure, regrant=(until, batches[failure.index]))
        outbound: list = [None] * self.plan.shards
        for index in range(self.plan.shards):
            while True:
                try:
                    frame = self._await(self.workers[index], ("done",))
                    outbound[index] = frame.payload[0]
                    break
                except _WorkerFailure as failure:
                    self._recover(failure, regrant=(until, batches[index]))
        self.windows += 1
        return outbound

    def finish(self) -> list:
        results: list = [None] * self.plan.shards
        for index in range(self.plan.shards):
            while True:
                try:
                    self._send(self.workers[index], "finish")
                    frame = self._await(self.workers[index], ("result",))
                    results[index] = frame.payload
                    break
                except _WorkerFailure as failure:
                    self._recover(failure, regrant=None)
        # Result in hand, the worker must actually exit: a still-alive
        # process after the grace period is detected, counted and killed
        # instead of being silently accepted.
        grace = min(30.0, self.config.barrier_timeout_s)
        for index, handle in enumerate(self.workers):
            handle.proc.join(timeout=grace)
            if handle.proc.is_alive():
                self.log.note(
                    "finish-timeout", shard=index,
                    detail=f"worker still alive {grace:.1f}s after its result",
                )
                handle.kill()
        return results

    def close(self) -> None:
        for handle in self.workers:
            if handle is not None:
                handle.kill()

    def __repr__(self) -> str:
        return (
            f"<SupervisedEngine shards={self.plan.shards} "
            f"windows={self.windows} respawns={self.respawns_spent}>"
        )
