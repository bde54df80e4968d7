"""ShardConfig: the supervision knobs of a sharded run.

One frozen dataclass grouping how the self-healing process engine
behaves, validated at construction: how long a window barrier may take
before a worker is declared hung (``barrier_timeout_s``), how often
workers prove liveness (``heartbeat_interval_s`` / ``probe_timeout_s``),
and how many respawns a run may spend recovering crashed or hung workers
(``max_respawns`` with ``respawn_backoff_s`` exponential backoff). Every
time is positive: deadlines, heartbeats and the probe are always on.

What to shard lives elsewhere: the shard count in
:class:`~repro.shard.plan.ShardPlan`, the worker budget in
:func:`~repro.shard.runtime.run_sharded`'s ``workers`` argument. The
recovery journal's bound is the fixed
:data:`~repro.shard.supervisor.JOURNAL_LIMIT`.
"""

from __future__ import annotations

from dataclasses import dataclass


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
    #: hung, killed and respawned.
    barrier_timeout_s: float = 60.0
    #: How often (wall seconds) each worker's heartbeat thread proves the
    #: process is alive on its framed pipe.
    heartbeat_interval_s: float = 0.5
    #: A worker whose pipe has carried *no* frame (heartbeat or result)
    #: for this many wall seconds is declared dead even before the
    #: barrier deadline; must exceed ``heartbeat_interval_s``.
    probe_timeout_s: float = 10.0
    #: Total respawns one run may spend recovering workers. Exhausting
    #: the budget reruns the whole run inline from window 0 instead of
    #: failing.
    max_respawns: int = 2
    #: Base of the exponential respawn backoff: attempt ``n`` sleeps
    #: ``respawn_backoff_s * 2**(n-1)`` wall seconds (capped at 2 s).
    respawn_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        for name in ("barrier_timeout_s", "heartbeat_interval_s", "probe_timeout_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.probe_timeout_s <= self.heartbeat_interval_s:
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
