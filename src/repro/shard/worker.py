"""The shard worker process: a ShardHost driven over a framed pipe.

Protocol (every frame sequence-numbered by
:class:`~repro.interconnect.FramedConnection`; the supervising
coordinator side lives in :mod:`repro.shard.supervisor`):

* worker -> ``ready`` after building its world;
* coordinator -> ``grant (until, batch)`` per window; worker replies
  ``done (outbound, events)``;
* coordinator -> ``finish``; worker replies ``result (collect, events,
  counters)`` and exits;
* any exception inside the worker becomes an ``error (traceback)``
  frame so the coordinator can re-raise with the real story (a Python
  exception is deterministic — replaying would only hit it again — so
  the supervisor never respawns around an ``error`` frame);
* worker -> ``heartbeat`` from a daemon thread every
  ``heartbeat_interval`` wall seconds, proving the process alive while
  the main thread simulates a window.

A respawned worker is indistinguishable from a first-born one on the
wire: the supervisor replays its journaled grants in order and the
worker, being a pure function of its grants, walks back into the exact
state the dead one held. ``attempt`` (0 for the first spawn, +1 per
respawn) exists solely for the fault hook, so scripted chaos can fire
once and stay quiet during the replay.

The fault hook, when given, must be a module-level picklable callable
``hook(shard_index, window_index, attempt)``. It is invoked with
``window_index=BUILD_WINDOW`` before the world is built, with the
running window count (0, 1, 2, ...) before each granted window is
simulated, and with ``window_index=FINISH_WINDOW`` after the result
frame is sent (the hook that refuses to let the process exit). Hooks
kill (``os._exit``) or hang (``time.sleep``) the worker; they must not
touch simulation state, or the replay-equality argument is void.

The worker marks itself with :func:`repro.parallel.mark_worker`, so any
fan-out attempted inside a shard (an experiment nested in a world)
degrades to serial instead of spawning pools of pools.
"""

from __future__ import annotations

import threading
import traceback
from typing import Callable, Optional

from ..interconnect import HEARTBEAT, FramedConnection
from ..parallel import mark_worker
from .host import ShardHost
from .plan import ShardPlan

#: ``window_index`` the fault hook sees while the world is being built.
BUILD_WINDOW = -1
#: ``window_index`` the fault hook sees after the result frame is sent.
FINISH_WINDOW = -2

#: Signature of a worker fault hook (must be picklable).
FaultHook = Callable[[int, int, int], None]


def _heartbeat_loop(
    link: FramedConnection, interval: float, stop: threading.Event
) -> None:
    """Prove liveness on the pipe until told to stop or the pipe dies."""
    while not stop.wait(interval):
        try:
            link.send(HEARTBEAT)
        except (OSError, ValueError, BrokenPipeError):
            return  # coordinator gone or pipe closed mid-shutdown


def shard_worker_main(
    raw_conn,
    plan: ShardPlan,
    shard_index: int,
    build,
    build_args: tuple,
    attempt: int,
    heartbeat_interval: float,
    fault_hook: Optional[FaultHook],
) -> None:
    """Entry point of one shard worker process."""
    mark_worker()
    link = FramedConnection(raw_conn)
    stop_heartbeats = threading.Event()
    try:
        if fault_hook is not None:
            fault_hook(shard_index, BUILD_WINDOW, attempt)
        host = ShardHost(plan, shard_index, build, build_args=build_args)
        threading.Thread(
            target=_heartbeat_loop,
            args=(link, heartbeat_interval, stop_heartbeats),
            name=f"shard-{shard_index}-heartbeat",
            daemon=True,
        ).start()
        link.send("ready")
        window = 0
        while True:
            frame = link.recv(expect=("grant", "finish"))
            if frame.kind == "finish":
                stop_heartbeats.set()
                link.send("result", {
                    "result": host.collect(),
                    "events": host.events,
                    "counters": host.router.counters(),
                })
                if fault_hook is not None:
                    fault_hook(shard_index, FINISH_WINDOW, attempt)
                return
            until, batch = frame.payload
            if fault_hook is not None:
                fault_hook(shard_index, window, attempt)
            host.enqueue(batch)
            outbound = host.advance(until)
            link.send("done", (outbound, host.events))
            window += 1
    except Exception:
        stop_heartbeats.set()
        try:
            link.send("error", traceback.format_exc())
        except (OSError, ValueError):
            pass  # coordinator already gone; its recv will fail loudly
    finally:
        stop_heartbeats.set()
        link.close()
