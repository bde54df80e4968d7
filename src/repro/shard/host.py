"""ShardHost: one shard's simulator, router and world, window by window.

The delivery-ordering contract lives here. For each granted window the
host interleaves kernel progress with boundary deliveries:

* a message due at ``T`` applies after every local event *strictly
  before* ``T`` (``Simulator.run_until(T)``) and before any local event
  at ``T`` or later;
* same-instant deliveries apply in ``(deliver_at, dst, src, seq)``
  order;
* handlers run synchronously with the clock parked at ``T``, so any
  events they schedule are ordered exactly as they would be had the
  sender lived in the same process.

That contract — plus the router's send-side rules — is what makes
``shards=N`` bit-identical to ``shards=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sim import Simulator
from .plan import ShardPlan
from .ports import BoundaryMessage, BoundaryRouter, BoundaryRoutingError


@dataclass
class ShardContext:
    """What a world-builder gets to build one shard's slice of a fabric.

    ``islands`` is this shard's slice; ``plan.topology`` is the whole
    fabric, so builders can wire boundary handlers toward islands they
    do *not* own (they reach them through ``router.send``).
    """

    sim: Simulator
    router: BoundaryRouter
    plan: ShardPlan
    shard_index: int

    @property
    def islands(self) -> tuple[str, ...]:
        return self.plan.islands_of(self.shard_index)


class ShardHost:
    """One shard: a Simulator plus the world built on it.

    ``build(ctx, *build_args)`` must be a module-level callable (it
    crosses a process boundary in sharded mode) returning a *world*
    object; if the world has a ``collect()`` method its (picklable)
    return value is the shard's result.
    """

    def __init__(
        self,
        plan: ShardPlan,
        shard_index: int,
        build: Callable[..., Any],
        build_args: tuple = (),
    ):
        self.plan = plan
        self.shard_index = shard_index
        self.sim = Simulator()
        self.router = BoundaryRouter(plan.topology, shard_index)
        ctx = ShardContext(
            sim=self.sim, router=self.router, plan=plan, shard_index=shard_index
        )
        self.world = build(ctx, *build_args)
        self._inbox: list[BoundaryMessage] = []

    def enqueue(self, batch: list[BoundaryMessage]) -> None:
        """Accept routed boundary messages (due now or in any future
        window); the inbox keeps total delivery order."""
        if not batch:
            return
        self._inbox.extend(batch)
        self._inbox.sort(key=BoundaryMessage.sort_key)

    def advance(self, until: int) -> list[BoundaryMessage]:
        """Run the granted window ``[now, until)``; return the outbound
        boundary messages produced during it."""
        inbox = self._inbox
        while inbox and inbox[0].deliver_at < until:
            due = inbox[0].deliver_at
            if due < self.sim.now:
                raise BoundaryRoutingError(
                    f"causality violation: {inbox[0]!r} due at {due} but "
                    f"shard {self.shard_index} is already at {self.sim.now}"
                )
            self.sim.run_until(due)
            while inbox and inbox[0].deliver_at == due:
                self.router.deliver(inbox.pop(0), due)
        self.sim.run_until(until)
        return self.router.drain()

    @property
    def events(self) -> int:
        """Kernel events processed so far (the throughput numerator)."""
        return self.sim.events

    def collect(self) -> Optional[Any]:
        """The world's picklable result, if it offers one."""
        collector = getattr(self.world, "collect", None)
        return collector() if callable(collector) else None

    def __repr__(self) -> str:
        return (
            f"<ShardHost {self.shard_index} now={self.sim.now} "
            f"inbox={len(self._inbox)}>"
        )
