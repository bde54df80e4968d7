"""Sharded fabric execution: conservative parallel discrete-event mode.

A :class:`~repro.platform.fabric.FabricTopology` already declares the
only facts a conservative PDES needs: clusters are coordination domains
(their islands share local state), and cross-cluster links carry a
declared one-way latency. :class:`ShardPlan` cuts the fabric at cluster
boundaries into shards; the minimum cross-cluster link latency is the
*lookahead* and the window width — a message sent during the window
``[T, T+W)`` cannot be due before ``T+W``, so every shard may advance
its own :class:`~repro.sim.Simulator` through the whole window without
ever hearing from another shard's past.

The pieces:

* :class:`ShardPlan` — the deterministic cut: cluster groups and
  lookahead. Depends only on topology + shard count, never on worker
  placement.
* :class:`ShardConfig` — the supervision knobs: barrier deadline,
  heartbeat/probe intervals, respawn budget.
* :class:`BoundaryRouter` / :class:`BoundaryMessage` — the *only* path
  cross-cluster control traffic takes, in every execution mode. Messages
  are stamped ``(deliver_at, dst, src, seq)`` and applied in exactly
  that order, so the receiving shard's trajectory is a function of the
  message set, not of which process produced it.
* :class:`BoundaryEndpoint` — one end of a boundary link as a channel
  endpoint, so a :class:`~repro.coordination.CoordinationAgent` and the
  platform's :class:`~repro.faults.FailureDetector` run across shard
  boundaries unchanged.
* :class:`ShardHost` — one shard's simulator + router + world, advanced
  window by window.
* :class:`WindowJournal` — the supervised engine's bounded journal of
  every window grant and routed inbound batch: the complete
  deterministic input of any shard, and therefore the recovery
  substrate.
* :class:`SupervisedEngine` / :class:`SupervisionLog` /
  :class:`FaultScript` — the self-healing process engine: barrier
  deadlines, heartbeat liveness probes, kill/respawn with backoff under
  a budget and fast-forward by journal replay. When recovery is out of
  moves the run reruns inline from window 0.
* :func:`run_sharded` — the coordinator: grants windows, barriers,
  routes boundary batches; runs shards inline (one process) or under
  supervised worker processes, with *bit-identical* results either way
  — even across worker crashes, hangs and degradations.
  ``ShardRunResult.counters`` holds the routers' counts, and
  ``ShardRunResult.supervision`` the harness record.
"""

from .config import ShardConfig
from .plan import ShardPlan
from .ports import (
    BoundaryEndpoint,
    BoundaryMessage,
    BoundaryRouter,
    BoundaryRoutingError,
)
from .host import ShardContext, ShardHost
from .journal import WindowJournal
from .supervisor import (
    FaultScript,
    ShardWorkerError,
    SupervisedEngine,
    SupervisionExhausted,
    SupervisionLog,
)
from .worker import BUILD_WINDOW, FINISH_WINDOW
from .runtime import ShardRunResult, run_sharded

__all__ = [
    "BUILD_WINDOW",
    "BoundaryEndpoint",
    "BoundaryMessage",
    "BoundaryRouter",
    "BoundaryRoutingError",
    "FINISH_WINDOW",
    "FaultScript",
    "ShardConfig",
    "ShardContext",
    "ShardHost",
    "ShardPlan",
    "ShardRunResult",
    "ShardWorkerError",
    "SupervisedEngine",
    "SupervisionExhausted",
    "SupervisionLog",
    "WindowJournal",
    "run_sharded",
]
