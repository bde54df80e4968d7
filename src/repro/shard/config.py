"""ShardConfig: the supervision knobs of a sharded run.

One frozen dataclass grouping how the self-healing process engine
behaves, validated at construction: how long a window barrier may take
before a worker is declared hung (``barrier_timeout_s``), how often
workers prove liveness (``heartbeat_interval_s`` / ``probe_timeout_s``),
how many respawns a run may spend recovering crashed or hung workers
(``max_respawns`` with ``respawn_backoff_s`` exponential backoff), and
how many windows the recovery journal retains (``journal_limit``).

What to shard lives elsewhere: the shard count and window width in
:class:`~repro.shard.plan.ShardPlan`, the worker budget in
:func:`~repro.shard.runtime.run_sharded`'s ``workers`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ShardConfig:
    """How :func:`~repro.shard.runtime.run_sharded` supervises its workers.

    Each shard runs in its own worker process when the host allows it —
    supervised: a worker that crashes or hangs is killed, respawned and
    fast-forwarded by deterministic replay of the window journal (see
    :mod:`repro.shard.supervisor`).
    """

    #: Wall-clock budget (seconds) for one window barrier, per awaited
    #: frame. A worker that has not answered by the deadline is declared
    #: hung, killed and respawned. None disables the deadline (the
    #: pre-supervision block-forever behaviour).
    barrier_timeout_s: Optional[float] = 60.0
    #: How often (wall seconds) each worker's heartbeat thread proves the
    #: process is alive on its framed pipe. 0 disables heartbeats.
    heartbeat_interval_s: float = 0.5
    #: A worker whose pipe has carried *no* frame (heartbeat or result)
    #: for this many wall seconds is declared dead even before the
    #: barrier deadline. None disables the probe; must comfortably exceed
    #: ``heartbeat_interval_s``.
    probe_timeout_s: Optional[float] = 10.0
    #: Total respawns one run may spend recovering workers. Exhausting
    #: the budget degrades the whole run to the inline engine (replayed
    #: from the journal) instead of failing.
    max_respawns: int = 2
    #: Base of the exponential respawn backoff: attempt ``n`` sleeps
    #: ``respawn_backoff_s * 2**(n-1)`` wall seconds (capped at 2 s).
    respawn_backoff_s: float = 0.05
    #: Maximum windows the recovery journal retains. Older windows are
    #: evicted (counted); once eviction has happened, per-worker replay
    #: is impossible and any recovery recomputes inline from scratch.
    #: None retains every window.
    journal_limit: Optional[int] = 8192

    def __post_init__(self) -> None:
        if self.barrier_timeout_s is not None and self.barrier_timeout_s <= 0:
            raise ValueError(
                f"barrier_timeout_s must be positive, got {self.barrier_timeout_s}"
            )
        if self.heartbeat_interval_s < 0:
            raise ValueError(
                f"heartbeat_interval_s must be >= 0, got {self.heartbeat_interval_s}"
            )
        if self.probe_timeout_s is not None:
            if self.probe_timeout_s <= 0:
                raise ValueError(
                    f"probe_timeout_s must be positive, got {self.probe_timeout_s}"
                )
            if self.heartbeat_interval_s and (
                self.probe_timeout_s <= self.heartbeat_interval_s
            ):
                raise ValueError(
                    f"probe_timeout_s ({self.probe_timeout_s}) must exceed "
                    f"heartbeat_interval_s ({self.heartbeat_interval_s}); a "
                    "probe shorter than one heartbeat declares live workers dead"
                )
        if self.max_respawns < 0:
            raise ValueError(f"max_respawns must be >= 0, got {self.max_respawns}")
        if self.respawn_backoff_s < 0:
            raise ValueError(
                f"respawn_backoff_s must be >= 0, got {self.respawn_backoff_s}"
            )
        if self.journal_limit is not None and self.journal_limit < 1:
            raise ValueError(
                f"journal_limit must be >= 1 windows, got {self.journal_limit}"
            )
