"""The headline guarantee: shards=N is bit-identical to shards=1.

A synthetic ping world (a ring of single-island clusters exchanging
periodic boundary pings) runs under every engine and layout; results,
router counters and kernel event counts must all match exactly.
"""

import logging

import pytest

from repro import parallel
from repro.platform import FabricTopology
from repro.shard import (
    BoundaryRoutingError,
    BoundaryMessage,
    ShardHost,
    ShardPlan,
    ShardWorkerError,
    run_sharded,
    runtime,
)
from repro.sim import PeriodicTask, ms

RING = 4
PING_PERIOD = ms(7)
DURATION = ms(500)
#: The recovery counts of ``ShardRunResult.supervision``.
RECOVERY_KEYS = (
    "crashes", "hangs", "respawns", "replayed_windows",
    "finish_timeouts", "degraded_inline",
)


def ring_topology(latency=ms(5)):
    return FabricTopology.ring(
        tuple(f"node-{n}" for n in range(RING)), link_latency=latency
    )


class PingWorld:
    """Each island pings its ring successor; receipts echo state."""

    def __init__(self, ctx, seed):
        self.ctx = ctx
        names = ctx.plan.topology.islands
        self.received = {name: 0 for name in ctx.islands}
        self.last_payload = {name: None for name in ctx.islands}
        for name in ctx.islands:
            successor = names[(names.index(name) + 1) % len(names)]
            ctx.router.register(name, "ping", self._receive)
            PeriodicTask(
                ctx.sim, PING_PERIOD,
                lambda name=name, successor=successor: ctx.router.send(
                    name, successor, "ping",
                    {"from": name, "beat": seed}, ctx.sim.now,
                ),
                name=f"ping-{name}",
            )

    def _receive(self, message):
        self.received[message.dst] += 1
        self.last_payload[message.dst] = (message.src, message.deliver_at)

    def collect(self):
        return {"received": self.received, "last": self.last_payload}


def build_ping_world(ctx, seed):
    return PingWorld(ctx, seed)


def build_crashing_world(ctx, seed):
    raise RuntimeError("world refused to boot")


def merged(run):
    view = {}
    for result in run.results:
        view.update(result["received"])
    return view, run.counters, run.events


class TestBitEquality:
    @pytest.fixture(scope="class")
    def reference(self):
        plan = ShardPlan(ring_topology(), shards=1)
        return run_sharded(
            plan, build_ping_world, (9,), duration=DURATION
        )

    @pytest.mark.parametrize("shards", [2, 4])
    def test_inline_layouts_match_reference(self, reference, shards):
        plan = ShardPlan(ring_topology(), shards=shards)
        run = run_sharded(plan, build_ping_world, (9,), duration=DURATION)
        assert merged(run) == merged(reference)
        assert run.windows == reference.windows

    def test_process_engine_matches_reference(self, reference, monkeypatch):
        from repro.parallel import WORKERS_ENV, plan_execution

        monkeypatch.setenv(WORKERS_ENV, "2")
        if not plan_execution(2).parallel:
            pytest.skip("parallelism unavailable in this environment")
        plan = ShardPlan(ring_topology(), shards=2)
        run = run_sharded(plan, build_ping_world, (9,), duration=DURATION)
        assert run.engine == "process"
        assert merged(run) == merged(reference)


class TestRunRecord:
    """``counters`` is what the fabric did; ``supervision`` is the harness."""

    def test_inline_run_counts_only_router_traffic(self):
        plan = ShardPlan(ring_topology(), shards=1)
        run = run_sharded(plan, build_ping_world, (9,), duration=DURATION)
        assert run.engine == "inline"
        assert set(run.counters) == {"sent", "dropped", "delivered"}
        assert run.counters["sent"] > 0
        for key in RECOVERY_KEYS:
            assert run.supervision[key] == 0, key
        # An inline run keeps no journal.
        assert run.supervision["journal_windows"] == 0

    def test_process_run_counts_only_router_traffic(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        if not parallel.plan_execution(2).parallel:
            pytest.skip("parallelism unavailable in this environment")
        plan = ShardPlan(ring_topology(), shards=2)
        run = run_sharded(plan, build_ping_world, (9,), duration=DURATION)
        assert run.engine == "process"
        assert set(run.counters) == {"sent", "dropped", "delivered"}
        for key in RECOVERY_KEYS:
            assert run.supervision[key] == 0, key
        assert run.supervision["journal_windows"] == run.windows


class TestDegradation:
    def test_disabled_parallelism_degrades_inline_and_logs_once(
        self, monkeypatch, caplog
    ):
        monkeypatch.setenv(parallel.PARALLEL_ENV, "0")
        monkeypatch.setattr(parallel, "_logged_fallbacks", set())
        plan = ShardPlan(ring_topology(), shards=2)
        expected_cause = parallel.plan_execution(plan.shards).reason
        with caplog.at_level(logging.WARNING, logger="repro.parallel"):
            for _ in range(2):
                run = run_sharded(
                    plan, build_ping_world, (9,), duration=ms(50)
                )
                assert run.engine == "inline"
                # Per-run state: every run records its own cause, even
                # though only the first one warns.
                assert run.supervision["degradations"] == [expected_cause]
        notes = [r for r in caplog.records if expected_cause in r.message]
        assert len(notes) == 1

    @pytest.mark.parametrize("cause", ["fork-refused", "parallel-off"])
    def test_every_degradation_is_counted(self, monkeypatch, cause):
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        if cause == "fork-refused":
            def refuse(*args, **kwargs):
                raise OSError("fork refused")

            monkeypatch.setattr(runtime, "SupervisedEngine", refuse)
        else:
            monkeypatch.setenv(parallel.PARALLEL_ENV, "0")
        plan = ShardPlan(ring_topology(), shards=2)
        run = run_sharded(plan, build_ping_world, (9,), duration=ms(50))
        assert run.engine == "inline"
        assert run.supervision["degraded_inline"] == 1
        assert len(run.supervision["degradations"]) == 1
        # Nothing started, so nothing was rerun.
        kinds = [kind for _, kind, _ in run.supervision["events"]]
        assert kinds == ["degraded-inline"]

    def test_worker_world_crash_is_reraised(self, monkeypatch):
        from repro.parallel import WORKERS_ENV, plan_execution

        monkeypatch.setenv(WORKERS_ENV, "2")
        if not plan_execution(2).parallel:
            pytest.skip("parallelism unavailable in this environment")
        plan = ShardPlan(ring_topology(), shards=2)
        with pytest.raises(ShardWorkerError, match="refused to boot"):
            run_sharded(plan, build_crashing_world, (0,), duration=ms(50))

    def test_zero_lookahead_rejected(self):
        plan = ShardPlan(ring_topology(latency=0), shards=1)
        with pytest.raises(ValueError, match="zero-latency"):
            run_sharded(plan, build_ping_world, (9,), duration=ms(50))


class TestWindowContract:
    def test_message_due_in_the_past_is_a_causality_violation(self):
        plan = ShardPlan(ring_topology(), shards=1)
        host = ShardHost(plan, 0, build_ping_world, build_args=(9,))
        host.advance(ms(20))
        stale = BoundaryMessage(
            src="node-0", dst="node-1", kind="ping",
            sent_at=0, deliver_at=ms(5), seq=0,
        )
        host.enqueue([stale])
        with pytest.raises(BoundaryRoutingError, match="causality"):
            host.advance(ms(25))

    def test_messages_at_window_edge_wait_for_the_next_window(self):
        plan = ShardPlan(ring_topology(), shards=1)
        host = ShardHost(plan, 0, build_ping_world, build_args=(9,))
        edge = BoundaryMessage(
            src="node-0", dst="node-1", kind="ping",
            sent_at=0, deliver_at=ms(10), seq=0,
        )
        host.enqueue([edge])
        host.advance(ms(10))  # exclusive bound: not delivered yet
        assert host.world.received["node-1"] == 0
        assert host.sim.now == ms(10)
        host.advance(ms(15))
        assert host.world.received["node-1"] == 1
        assert host.world.last_payload["node-1"] == ("node-0", ms(10))
