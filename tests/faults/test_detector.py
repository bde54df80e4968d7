"""Failure detection, degraded-mode fallback and epoch-based recovery."""

from repro.coordination import TuneMessage
from repro.faults import (
    PEER_DOWN,
    PEER_SUSPECT,
    PEER_UP,
    AgentCrash,
    ChannelBlackout,
    FaultConfig,
    FaultPlan,
    ManagerStall,
)
from repro.platform import EntityId
from repro.sim import ms, seconds
from repro.testbed import ChannelConfig, Testbed, TestbedConfig


def armed_testbed(plan=None, *, seed=3, reliable=False):
    return Testbed(TestbedConfig(
        seed=seed,
        channel=ChannelConfig(reliable=reliable),
        faults=FaultConfig(plan=plan or FaultPlan()),
    ))


def states(detector):
    return [state for _time, state, _reason in detector.transitions]


class TestUnarmedInvisibility:
    """faults=None must construct nothing — the bit-identity guarantee."""

    def test_nothing_built_without_faults(self):
        testbed = Testbed()
        assert testbed.detectors == {}
        assert testbed.fault_injector is None
        assert testbed.ixp_agent.detector is None
        assert testbed.x86_agent.detector is None
        assert not testbed.channel.blocked_senders

    def test_unarmed_run_sends_no_heartbeats(self):
        testbed = Testbed()
        testbed.create_guest_vm("guest")
        testbed.run(seconds(1))
        assert testbed.channel.stats()["sent"] == 0
        assert testbed.x86_agent.peer_available
        assert testbed.ixp_agent.epoch == 0


class TestBlackoutDetection:
    def test_full_arc_suspect_down_recover_epoch(self):
        plan = FaultPlan((ChannelBlackout(start=ms(500), duration=ms(420)),))
        testbed = armed_testbed(plan)
        testbed.run(seconds(2))

        for side in ("ixp", "x86"):
            detector = testbed.detectors[side]
            assert states(detector) == [PEER_UP, PEER_SUSPECT, PEER_DOWN, PEER_UP]
            times = [time for time, _state, _reason in detector.transitions]
            # Detection happens inside the blackout, recovery after it.
            assert ms(500) < times[1] <= times[2] <= ms(920)
            assert times[3] > ms(920)
            # Recovery within a few heartbeat periods of the channel healing.
            assert times[3] - ms(920) < ms(200)
            assert detector.state == PEER_UP
        # Exactly one outage round-trip: one epoch bump per agent, seen by
        # the peer.
        assert testbed.ixp_agent.epoch == 1
        assert testbed.x86_agent.epoch == 1
        assert testbed.detectors["ixp"].peer_epoch == 1
        assert testbed.detectors["x86"].peer_epoch == 1
        assert testbed.channel.messages_blacked_out > 0
        assert testbed.channel.stats()["blacked_out"] > 0

    def test_one_way_partition_detected_by_blocked_side_only(self):
        """Blocking only the ixp sender starves the x86 detector; the ixp
        detector keeps hearing x86's heartbeats and stays UP."""
        plan = FaultPlan((
            ChannelBlackout(start=ms(500), duration=ms(400), direction="ixp"),
        ))
        testbed = armed_testbed(plan)
        testbed.run(seconds(2))
        assert PEER_DOWN in states(testbed.detectors["x86"])
        assert states(testbed.detectors["ixp"]) == [PEER_UP]

    def test_detection_timeline_deterministic(self):
        plan = FaultPlan((ChannelBlackout(start=ms(500), duration=ms(420)),))
        first = armed_testbed(plan, seed=9)
        first.run(seconds(2))
        second = armed_testbed(plan, seed=9)
        second.run(seconds(2))
        for side in ("ixp", "x86"):
            assert (
                first.detectors[side].transitions
                == second.detectors[side].transitions
            )

    def test_controller_health_snapshot(self):
        plan = FaultPlan((ChannelBlackout(start=ms(200), duration=ms(420)),))
        testbed = armed_testbed(plan)
        testbed.run(ms(500))
        assert set(testbed.detectors) == {"ixp", "x86"}
        health = testbed.detectors["x86"].health()
        assert health["state"] == PEER_DOWN
        assert health["heartbeats_sent"] > 0
        assert health["transitions"][0][1] == PEER_UP


class TestDegradedFallback:
    def test_peer_down_reverts_declared_baselines(self):
        plan = FaultPlan((ChannelBlackout(start=ms(500), duration=ms(300)),))
        testbed = armed_testbed(plan)
        vm, _ = testbed.create_guest_vm("guest")
        baseline = vm.weight
        entity = EntityId("x86", "guest")
        assert testbed.x86_agent.baselines()[entity] == baseline

        # Steer the weight away from baseline before the blackout.
        testbed.ixp_agent.send_tune(entity, 128, reason="pre-fault")
        testbed.run(ms(500))
        assert vm.weight == baseline + 128

        # Ride through detection: DOWN must snap the weight back.
        testbed.run(ms(800))
        assert testbed.detectors["x86"].state == PEER_DOWN
        assert vm.weight == baseline
        reverts = [
            record for record in testbed.x86.knobs.audit
            if record.op == "revert" and record.outcome == "applied"
            and record.entity == str(entity)
        ]
        assert reverts and reverts[0].applied_value == baseline

    def test_policies_see_peer_unavailable_while_down(self):
        plan = FaultPlan((ChannelBlackout(start=ms(200), duration=ms(400)),))
        testbed = armed_testbed(plan)
        testbed.run(ms(500))
        assert testbed.detectors["ixp"].is_down
        assert not testbed.ixp_agent.peer_available
        testbed.run(seconds(1))
        assert testbed.ixp_agent.peer_available


class TestEpochs:
    def test_stale_epoch_frames_dropped_after_recovery(self):
        plan = FaultPlan((ChannelBlackout(start=ms(200), duration=ms(420)),))
        testbed = armed_testbed(plan)
        vm, _ = testbed.create_guest_vm("guest")
        entity = EntityId("x86", "guest")
        testbed.run(seconds(1))  # full outage + recovery: ixp epoch is 1
        assert testbed.detectors["x86"].peer_epoch == 1
        weight = vm.weight

        # A frame from the pre-outage epoch arrives late (e.g. a stray
        # retransmission): it must be discarded, not applied.
        testbed.channel.endpoint("ixp").send(
            TuneMessage(entity=entity, delta=64, reason="stale", epoch=0)
        )
        testbed.run(testbed.sim.now + ms(10))
        assert vm.weight == weight
        assert testbed.x86_agent.stale_epoch_drops == 1

        # A current-epoch frame still applies.
        testbed.ixp_agent.send_tune(entity, 64, reason="fresh")
        testbed.run(testbed.sim.now + ms(10))
        assert vm.weight == weight + 64

    def test_epoch_boundary_reverts_before_new_epoch_applies(self):
        """A higher epoch on an incoming message is itself the recovery
        signal: the receiver reverts to baselines first, so replayed
        delta-from-baseline frames land on the baseline even when this
        side never detected the outage (one-way partition)."""
        testbed = armed_testbed()
        vm, _ = testbed.create_guest_vm("guest")
        entity = EntityId("x86", "guest")
        baseline = vm.weight
        testbed.ixp_agent.send_tune(entity, 200, reason="pre-fault")
        testbed.run(ms(50))
        assert vm.weight == baseline + 200

        # The peer recovered (epoch 3) and replays a delta-from-baseline.
        testbed.channel.endpoint("ixp").send(
            TuneMessage(entity=entity, delta=64, reason="epoch-replay", epoch=3)
        )
        testbed.run(ms(100))
        assert testbed.detectors["x86"].peer_epoch == 3
        assert vm.weight == baseline + 64  # reverted, then the replay applied


class TestCrashAndStall:
    def test_crash_detected_restart_recovers_with_bumped_epoch(self):
        plan = FaultPlan((
            AgentCrash(agent="ixp", start=ms(300), restart_after=ms(400)),
        ))
        testbed = armed_testbed(plan)
        testbed.run(ms(600))
        assert testbed.ixp_agent.crashed
        # The crashed agent drops incoming traffic (the peer's heartbeats).
        assert testbed.ixp_agent.dropped_while_crashed > 0
        assert testbed.detectors["x86"].state == PEER_DOWN
        # A dead manager must not accuse its (healthy) peer.
        assert states(testbed.detectors["ixp"]) == [PEER_UP]

        testbed.run(seconds(2))
        assert not testbed.ixp_agent.crashed
        assert testbed.ixp_agent.epoch == 1  # restart bump
        assert testbed.detectors["x86"].state == PEER_UP
        assert states(testbed.detectors["ixp"]) == [PEER_UP]

    def test_crash_without_restart_stays_down(self):
        plan = FaultPlan((AgentCrash(agent="ixp", start=ms(300)),))
        testbed = armed_testbed(plan)
        testbed.run(seconds(2))
        assert testbed.ixp_agent.crashed
        assert testbed.detectors["x86"].state == PEER_DOWN

    def test_stall_defers_messages_then_flushes_in_order(self):
        testbed = Testbed(TestbedConfig(seed=3))
        vm, _ = testbed.create_guest_vm("guest")
        entity = EntityId("x86", "guest")
        baseline = vm.weight
        testbed.run(ms(10))

        testbed.x86_agent.stall(ms(50))
        assert testbed.x86_agent.stalled
        testbed.ixp_agent.send_tune(entity, 64)
        testbed.ixp_agent.send_tune(entity, 32)
        testbed.run(testbed.sim.now + ms(20))
        assert vm.weight == baseline  # both deferred, not dropped
        testbed.run(testbed.sim.now + ms(60))
        assert not testbed.x86_agent.stalled
        assert vm.weight == baseline + 96

    def test_scripted_stall_via_injector(self):
        plan = FaultPlan((ManagerStall(agent="x86", start=ms(100), duration=ms(30)),))
        testbed = armed_testbed(plan)
        testbed.run(ms(110))
        assert testbed.x86_agent.stalled
        testbed.run(ms(200))
        assert not testbed.x86_agent.stalled


class TestDeadLetterFeed:
    def test_one_way_partition_detected_through_dead_letters(self):
        """Over the reliable layer, a one-way partition starves no
        heartbeats at the *sending* side — its frames just die. The
        dead-letter feed must still force DOWN, and recovery must wait
        for real evidence (ack progress or a sustained heartbeat streak),
        then replay-capable policies get their epoch bump."""
        plan = FaultPlan((
            ChannelBlackout(start=ms(500), duration=ms(600), direction="x86"),
        ))
        testbed = armed_testbed(plan, reliable=True)
        vm, _ = testbed.create_guest_vm("guest")
        entity = EntityId("ixp", "guest")

        def trigger_loop(sim):
            while True:
                if testbed.x86_agent.peer_available:
                    testbed.x86_agent.send_trigger(entity, reason="exercise")
                yield sim.timeout(ms(40))

        testbed.sim.spawn(trigger_loop(testbed.sim))
        testbed.run(ms(1100))
        detector = testbed.detectors["x86"]
        assert detector.dead_letters_seen > 0
        assert PEER_DOWN in states(detector)
        # The starved side: direction="x86" blocks the x86 sender, so the
        # ixp detector stops hearing heartbeats and goes DOWN on silence.
        assert PEER_DOWN in states(testbed.detectors["ixp"])
        testbed.run(seconds(3))
        assert detector.state == PEER_UP
        assert testbed.detectors["ixp"].state == PEER_UP
