"""Self-healing shard execution: every failure mode the supervisor owns.

Each scripted fault (kill mid-window, kill during world build, hang at a
barrier, kill on every respawn, refuse to exit after the result) must
leave the run's *simulation* outcome bit-identical to an undisturbed
reference — the whole point of journal-replay recovery — while the
recovery itself shows up in ``ShardRunResult.supervision``, the
harness record.
"""

import pytest

from repro.parallel import WORKERS_ENV, plan_execution
from repro.platform import FabricTopology
from repro.shard import (
    BUILD_WINDOW,
    FINISH_WINDOW,
    FaultScript,
    ShardConfig,
    ShardPlan,
    SupervisionLog,
    run_sharded,
    supervisor,
)
from repro.sim import PeriodicTask, ms

RING = 4
PING_PERIOD = ms(7)
DURATION = ms(200)

#: Fast-failure knobs: tight barrier so hang tests stay quick, tiny
#: backoff so respawns don't dominate, heartbeats on so probes apply.
FAST = dict(
    barrier_timeout_s=1.0,
    heartbeat_interval_s=0.05,
    probe_timeout_s=0.5,
    max_respawns=3,
    respawn_backoff_s=0.01,
)
#: Longer than any test: hung workers are killed, never waited out.
HANG_S = 30.0
#: The recovery counts of ``ShardRunResult.supervision``: zero on a
#: clean run under every engine.
RECOVERY_KEYS = (
    "crashes", "hangs", "respawns", "replayed_windows",
    "finish_timeouts", "degraded_inline",
)


def ring_topology():
    return FabricTopology.ring(
        tuple(f"node-{n}" for n in range(RING)), link_latency=ms(5)
    )


class PingWorld:
    def __init__(self, ctx, seed):
        names = ctx.plan.topology.islands
        self.received = {name: 0 for name in ctx.islands}
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

    def collect(self):
        return {"received": self.received}


def build_ping_world(ctx, seed):
    return PingWorld(ctx, seed)


def merged(run):
    """The bit-equality artefact: the simulation outcome."""
    view = {}
    for result in run.results:
        view.update(result["received"])
    return view, run.counters, run.events


@pytest.fixture(scope="module")
def reference():
    """Undisturbed shards=2 run, forced inline (``workers=1``) so it is
    deterministic regardless of the host's parallelism rules."""
    plan = ShardPlan(ring_topology(), shards=2)
    run = run_sharded(plan, build_ping_world, (9,), duration=DURATION, workers=1)
    assert run.engine == "inline"
    return run


@pytest.fixture
def process_env(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    if not plan_execution(2).parallel:
        pytest.skip("parallelism unavailable in this environment")


def chaos_run(script, **config_overrides):
    plan = ShardPlan(ring_topology(), shards=2)
    config = ShardConfig(**{**FAST, **config_overrides})
    return run_sharded(
        plan, build_ping_world, (9,), duration=DURATION,
        config=config, fault_hook=script,
    )


# Fault scripts must be module-level picklable values.
KILL_MID_WINDOW = FaultScript(kills=((1, 4),))
KILL_AT_BUILD = FaultScript(kills=((0, BUILD_WINDOW),))
HANG_AT_BARRIER = FaultScript(hangs=((0, 6, HANG_S),))
KILL_EVERY_LIFE = FaultScript(kills=((1, 5),), persistent=True)
KILL_LATE = FaultScript(kills=((1, 20),))
HANG_AFTER_RESULT = FaultScript(hangs=((1, FINISH_WINDOW, HANG_S),))


class TestCrashRecovery:
    def test_crash_mid_window_respawns_and_replays(
        self, process_env, reference
    ):
        run = chaos_run(KILL_MID_WINDOW)
        assert run.engine == "process"
        assert run.supervision["crashes"] == 1
        assert run.supervision["respawns"] == 1
        # Killed when granted window 4, so windows 0..3 were replayed.
        assert run.supervision["replayed_windows"] == 4
        assert run.supervision["degraded_inline"] == 0
        assert merged(run) == merged(reference)

    def test_crash_during_world_build_respawns(self, process_env, reference):
        run = chaos_run(KILL_AT_BUILD)
        assert run.engine == "process"
        assert run.supervision["respawns"] == 1
        # Died before any window: rebirth needs no replay.
        assert run.supervision["replayed_windows"] == 0
        assert merged(run) == merged(reference)

    def test_recovery_events_are_logged_with_wall_time(
        self, process_env, reference
    ):
        run = chaos_run(KILL_MID_WINDOW)
        kinds = [kind for _, kind, _ in run.supervision["events"]]
        assert kinds == ["worker-crash", "worker-respawned"]
        respawn = run.supervision["events"][-1][2]
        assert respawn["shard"] == 1
        assert respawn["attempt"] == 1
        assert respawn["replayed"] == 4
        assert run.supervision["recovery_seconds"] > 0
        assert merged(run) == merged(reference)


class TestHangRecovery:
    def test_hang_at_barrier_is_detected_within_the_deadline(
        self, process_env, reference
    ):
        run = chaos_run(HANG_AT_BARRIER)
        assert run.engine == "process"
        assert run.supervision["hangs"] == 1
        assert run.supervision["respawns"] == 1
        hang = next(
            payload
            for _, kind, payload in run.supervision["events"]
            if kind == "worker-hang"
        )
        # The *barrier deadline* caught it (heartbeats kept flowing from
        # the side thread, so the liveness probe could not).
        assert "barrier deadline" in hang["detail"]
        # Detection latency is bounded by the configured deadline (plus
        # the fast windows before the hang and scheduler slack).
        hang_at = next(
            when
            for when, kind, _ in run.supervision["events"]
            if kind == "worker-hang"
        )
        assert hang_at < FAST["barrier_timeout_s"] + 5.0
        assert merged(run) == merged(reference)


class TestDegradation:
    def test_respawn_budget_exhaustion_degrades_inline_bit_identical(
        self, process_env, reference
    ):
        run = chaos_run(KILL_EVERY_LIFE, max_respawns=2)
        assert run.engine == "inline"
        assert run.supervision["respawns"] == 2
        assert run.supervision["degraded_inline"] == 1
        assert any(
            "respawn budget" in cause
            for cause in run.supervision["degradations"]
        )
        # The whole run was rerun inline from window 0, once.
        reruns = [
            payload
            for _, kind, payload in run.supervision["events"]
            if kind == "inline-rerun"
        ]
        assert len(reruns) == 1
        assert reruns[0]["wall_s"] > 0
        assert merged(run) == merged(reference)

    def test_truncated_journal_degrades_by_recomputing(
        self, process_env, reference, monkeypatch
    ):
        # The journal lives in this (the coordinating) process, so
        # lowering its bound here truncates it.
        monkeypatch.setattr(supervisor, "JOURNAL_LIMIT", 4)
        run = chaos_run(KILL_LATE)
        assert run.engine == "inline"
        assert run.supervision["journal_evicted"] > 0
        kinds = [kind for _, kind, _ in run.supervision["events"]]
        assert "journal-truncated" in kinds
        assert kinds.count("inline-rerun") == 1
        assert merged(run) == merged(reference)


class TestFinishContract:
    def test_worker_refusing_to_exit_is_detected_and_killed(
        self, process_env, reference
    ):
        run = chaos_run(HANG_AFTER_RESULT)
        # The result was already in hand, so the run succeeds — but the
        # leak is counted instead of silently accepted.
        assert run.engine == "process"
        assert run.supervision["finish_timeouts"] == 1
        assert merged(run) == merged(reference)

    def test_clean_run_reports_zeroed_supervision_counters(
        self, process_env, reference
    ):
        run = chaos_run(None)
        assert run.engine == "process"
        for key in RECOVERY_KEYS:
            assert run.supervision[key] == 0, key
        assert run.supervision["journal_windows"] == run.windows
        assert run.supervision["totals"] == {}
        assert run.supervision["degradations"] == []
        assert merged(run) == merged(reference)


class TestShardConfig:
    @pytest.mark.parametrize(
        "field, kwargs",
        [
            pytest.param("barrier_timeout_s", dict(barrier_timeout_s=0), id="barrier"),
            pytest.param("heartbeat_interval_s", dict(heartbeat_interval_s=0), id="heartbeat"),
            pytest.param(
                "probe_timeout_s",
                dict(heartbeat_interval_s=1.0, probe_timeout_s=1.0),
                id="probe-not-above-heartbeat",
            ),
            pytest.param("max_respawns", dict(max_respawns=-1), id="respawns"),
            pytest.param("respawn_backoff_s", dict(respawn_backoff_s=-1), id="backoff"),
        ],
    )
    def test_invalid_supervision_knobs_rejected(self, field, kwargs):
        with pytest.raises(ValueError, match=field):
            ShardConfig(**kwargs)


class TestFaultScript:
    def test_fires_only_on_first_life_by_default(self):
        script = FaultScript(hangs=((0, 3, HANG_S),))
        script(0, 3, attempt=1)  # would sleep 30s if it fired

    def test_persistent_script_fires_every_life(self):
        script = FaultScript(hangs=((0, 3, 0.0),), persistent=True)
        script(0, 3, attempt=5)  # zero-length hang: fires, returns

    def test_non_matching_windows_are_ignored(self):
        script = FaultScript(kills=((0, 3),), hangs=((1, 2, HANG_S),))
        script(0, 2, attempt=0)
        script(1, 3, attempt=0)


class TestSupervisionLog:
    def test_summary_keys_are_stable_and_count_events(self):
        log = SupervisionLog()
        fresh = log.summary()
        for key in RECOVERY_KEYS + (
            "journal_windows", "journal_messages", "journal_evicted",
        ):
            assert fresh[key] == 0, key
        assert fresh["degradations"] == []
        assert fresh["recovery_seconds"] == 0
        log.note("worker-crash", shard=1, detail="boom")
        log.note("worker-respawned", shard=1, attempt=1, wall_s=0.25)
        log.note("degraded-inline", cause="budget spent")
        log.note("inline-rerun", wall_s=0.5)
        summary = log.summary()
        assert summary["crashes"] == summary["respawns"] == 1
        assert summary["degraded_inline"] == 1
        assert summary["degradations"] == ["budget spent"]
        assert summary["recovery_seconds"] == 0.75
        assert summary.keys() == fresh.keys()

    def test_summary_is_plain_data(self):
        import pickle

        log = SupervisionLog()
        log.note("worker-crash", shard=0, detail="x")
        summary = log.summary()
        assert pickle.loads(pickle.dumps(summary)) == summary
