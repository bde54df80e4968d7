"""Tests for the energy/QoS co-optimization experiment driver.

Arm wiring, the renderer and same-seed reproducibility run on short
arms; one full-length run checks the acceptance shape of the three-arm
comparison.
"""

import dataclasses

import pytest

from repro.experiments.energyqos import (
    GUEST_SPECS,
    EnergyQosArmResult,
    EnergyQosResult,
    render_energy_qos,
    run_energy_qos,
    run_energy_qos_arm,
)
from repro.sim import seconds


class TestDriver:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_energy_qos_arm("greedy")

    def test_coordinated_arm_produces_a_full_scoreboard(self):
        arm = run_energy_qos_arm("coordinated", duration=seconds(6))
        assert arm.mode == "coordinated"
        assert arm.energy_j > 0
        assert arm.checks > 0
        assert set(arm.p95_ms) == {spec.name for spec in GUEST_SPECS}
        assert set(arm.actuations) == {
            "dvfs-level", "llc-ways", "bw-share", "prefetch-throttle"
        }
        assert arm.governor["epochs"] > 0

    def test_partition_only_arm_stays_at_nominal_frequency(self):
        arm = run_energy_qos_arm("partition-only", duration=seconds(6))
        assert arm.final_speed == 1.0
        assert arm.actuations["dvfs-level"] == 0


class TestAcceptanceShape:
    def test_coordinated_beats_both_single_axis_ablations(self):
        result = run_energy_qos(seed=1)
        coordinated = result.arm("coordinated")
        dvfs_only = result.arm("dvfs-only")
        partition_only = result.arm("partition-only")
        assert coordinated.violations == 0
        assert coordinated.energy_j < dvfs_only.energy_j
        assert coordinated.energy_j <= partition_only.energy_j
        # Frequency alone cannot fix cache starvation: the gap exists.
        assert dvfs_only.violations > 0
        uncore = sum(
            coordinated.actuations[knob]
            for knob in ("llc-ways", "bw-share", "prefetch-throttle")
        )
        assert uncore > 0
        # Slack was converted into a DVFS down-step.
        assert coordinated.final_speed < 1.0


class TestDeterminism:
    def test_same_seed_reproduces_exactly(self):
        first = run_energy_qos_arm("dvfs-only", seed=5, duration=seconds(4))
        second = run_energy_qos_arm("dvfs-only", seed=5, duration=seconds(4))
        assert first == second


class TestRenderer:
    def _fake_arm(self, mode, energy):
        return EnergyQosArmResult(
            mode=mode, energy_j=energy, mean_power_w=energy / 40.0,
            violations=0, checks=100, violations_by_vm={},
            p95_ms={spec.name: 10.0 for spec in GUEST_SPECS},
            final_speed=0.85,
            actuations={"dvfs-level": 1, "llc-ways": 2, "bw-share": 0,
                        "prefetch-throttle": 1},
            governor={},
            events=0,
        )

    def test_renderer_lists_all_modes_and_targets(self):
        result = EnergyQosResult(
            targets={spec.name: spec.p95_target_ms for spec in GUEST_SPECS},
            arms={
                mode: self._fake_arm(mode, energy)
                for mode, energy in (
                    ("coordinated", 1300.0),
                    ("dvfs-only", 1600.0),
                    ("partition-only", 1480.0),
                )
            },
        )
        table = render_energy_qos(result)
        for mode in ("coordinated", "dvfs-only", "partition-only"):
            assert mode in table
        for spec in GUEST_SPECS:
            assert spec.name in table

    def test_arm_result_is_a_plain_dataclass(self):
        # Renderers and callers read these fields; keep the shape stable.
        fields = {f.name for f in dataclasses.fields(EnergyQosArmResult)}
        assert {"mode", "energy_j", "violations", "checks", "final_speed",
                "actuations", "governor"} <= fields
