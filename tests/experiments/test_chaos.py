"""Chaos experiment: the full fault arc (``GOLDEN.txt`` pins the outputs
of the 200, 500 and 1000 ms arms)."""

from repro.experiments import render_chaos, run_chaos_arm
from repro.sim import ms


class TestChaosArm:
    """One 500 ms blackout arm (module-scoped budget: ~2 s per run)."""

    def test_full_arc(self):
        arm = run_chaos_arm(blackout=ms(500), seed=1)

        # The arc itself: detect -> fallback -> recover -> reconverge.
        for side in ("ixp", "x86"):
            assert arm.detection_ms[side] > 0
            assert arm.recovery_ms[side] > 0
            assert arm.epoch[side] == 1
        assert arm.fallback_ms >= arm.detection_ms["x86"]
        assert arm.reconverge_ms >= 0
        assert arm.replays_sent > 0
        assert arm.tunes_suppressed > 0
        # Lease hygiene: every transient boost expired, none stuck.
        assert arm.stuck_leases == 0
        assert arm.boost_triggers_sent > 0

        rendered = render_chaos([arm])
        assert "Chaos" in rendered
        assert "all boost leases expired cleanly" in rendered
