"""The fault-health trace records equal what the detectors and the
injector keep themselves."""

from repro.faults import ChannelBlackout, FaultConfig, FaultPlan
from repro.sim import TraceLog, ms, seconds
from repro.testbed import Testbed, TestbedConfig

BLACKOUT = ChannelBlackout(start=ms(500), duration=ms(420))


def traced_blackout_run(seed=3):
    testbed = Testbed(TestbedConfig(
        seed=seed,
        tracing=True,
        faults=FaultConfig(plan=FaultPlan((BLACKOUT,))),
    ))
    log = TraceLog()
    testbed.tracer.subscribe(log)
    testbed.run(seconds(2))
    return testbed, log


class TestHealthCollector:
    def test_state_timeline_matches_detector_transitions(self):
        testbed, log = traced_blackout_run()
        for side in ("ixp", "x86"):
            traced = [
                (r.time, r.kind.removeprefix("peer-"), r.payload["reason"])
                for r in log.records
                if r.kind.startswith("peer-") and r.payload["island"] == side
            ]
            # The detector's first entry is its initial state, not traced.
            assert traced == testbed.detectors[side].transitions[1:]

    def test_counts_and_events(self):
        testbed, log = traced_blackout_run()
        totals = log.count_by_kind()
        assert totals["peer-down"] == totals["epoch-bump"] == 2  # one per side
        assert totals["fault-injected"] == totals["fault-cleared"] == 1
        assert [
            (r.time, r.kind) for r in log.records if r.kind.startswith("fault-")
        ] == [(time, kind) for time, kind, _ in testbed.fault_injector.log]
        assert testbed.fault_injector.log[0][0] == BLACKOUT.start
        assert totals["heartbeat-sent"] == sum(
            detector.heartbeats_sent for detector in testbed.detectors.values()
        )
        assert totals["heartbeat-received"] > 0
