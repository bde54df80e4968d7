"""Tests for power models, metering, DVFS and the cap governors."""

import pytest

from repro import Testbed, TestbedConfig
from repro.power import (
    CoordinatedPowerCapGovernor,
    CorePowerModel,
    IXPPowerModel,
    LocalPowerCapGovernor,
    PowerMeter,
    PowerReportMessage,
)
from repro.platform import EntityId
from repro.sim import Simulator, ms, seconds
from repro.x86 import CreditScheduler, VirtualMachine


class TestModels:
    def test_core_power_monotone_in_utilization(self):
        model = CorePowerModel()
        assert model.power(0.0, 1.0) < model.power(0.5, 1.0) < model.power(1.0, 1.0)

    def test_core_power_cubic_in_speed(self):
        model = CorePowerModel(static_w=0.0, dynamic_w=8.0)
        assert model.power(1.0, 0.5) == pytest.approx(8.0 * 0.125)

    def test_core_power_validates_inputs(self):
        model = CorePowerModel()
        with pytest.raises(ValueError):
            model.power(1.5, 1.0)
        with pytest.raises(ValueError):
            model.power(0.5, 0.0)

    def test_ixp_power_base_plus_dynamic(self):
        model = IXPPowerModel(base_w=10.0, per_engine_w=2.0)
        assert model.power([]) == 10.0
        assert model.power([0.5, 1.0]) == 10.0 + 1.0 + 2.0


class TestDvfsExecution:
    def test_half_speed_doubles_wall_time(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        scheduler.set_cpu_speed(0, 0.5)
        done = vm.execute(ms(10))
        sim.run(until=seconds(1))
        assert done.processed
        # 10 ms of demand at half speed = 20 ms wall, accounted as wall.
        assert vm.accounting.busy == pytest.approx(ms(20), rel=0.01)

    def test_speed_change_retimes_inflight_work(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        done = vm.execute(ms(20))
        sim.run(until=ms(10))  # halfway through at nominal speed
        scheduler.set_cpu_speed(0, 0.5)
        sim.run(until=seconds(1))
        assert done.processed
        # ~10 ms at speed 1.0 + ~10 ms demand at 0.5 = ~20 ms more wall.
        assert vm.accounting.busy == pytest.approx(ms(30), rel=0.05)

    def test_invalid_speed_rejected(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        with pytest.raises(ValueError):
            scheduler.set_cpu_speed(0, 1.5)

    def test_throughput_scales_with_speed(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        scheduler.set_cpu_speed(0, 0.7)

        def hog(sim):
            while True:
                yield vm.execute(ms(5))

        sim.spawn(hog(sim))
        sim.run(until=seconds(2))
        # Wall runtime is full, but demand retired is ~70%.
        assert vm.accounting.busy >= seconds(2) * 0.99


class TestMeter:
    def _testbed(self):
        return Testbed(TestbedConfig())

    def test_samples_accumulate(self):
        testbed = self._testbed()
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
        testbed.run(seconds(5))
        assert len(meter.samples) == 5
        assert all(s.total_w > 0 for s in meter.samples)

    def test_idle_platform_draws_static_only(self):
        testbed = self._testbed()
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
        testbed.run(seconds(3))
        core = CorePowerModel()
        expected_idle = 2 * core.power(0.0, 1.0) + IXPPowerModel().base_w
        assert meter.instantaneous().total_w == pytest.approx(expected_idle, rel=0.1)

    def test_busy_guest_raises_power(self):
        testbed = self._testbed()
        vm, _nic = testbed.create_guest_vm("hog")
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))

        def hog(sim):
            while True:
                yield vm.execute(ms(5))

        testbed.sim.spawn(hog(testbed.sim))
        testbed.run(seconds(3))
        core = CorePowerModel()
        idle_w = 2 * core.power(0.0, 1.0) + IXPPowerModel().base_w
        assert meter.instantaneous().total_w > idle_w + 5

    def test_energy_integral(self):
        testbed = self._testbed()
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
        testbed.run(seconds(4))
        assert meter.energy_j() == pytest.approx(
            sum(s.total_w for s in meter.samples), rel=1e-6
        )


class TestGovernors:
    def _loaded_testbed(self):
        testbed = Testbed(TestbedConfig(driver_poll_burn_duty=0.5))
        vm, _nic = testbed.create_guest_vm("hog")

        def hog(sim):
            while True:
                yield vm.execute(ms(5))

        testbed.sim.spawn(hog(testbed.sim))
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
        return testbed, meter

    def test_local_governor_throttles_under_tight_cap(self):
        testbed, meter = self._loaded_testbed()
        LocalPowerCapGovernor(testbed.sim, meter, testbed.x86, platform_cap_w=42.0)
        testbed.run(seconds(15))
        assert testbed.x86.scheduler.cpus[0].speed < 1.0

    def test_local_governor_rejects_impossible_cap(self):
        testbed, meter = self._loaded_testbed()
        with pytest.raises(ValueError):
            LocalPowerCapGovernor(testbed.sim, meter, testbed.x86, platform_cap_w=20.0)

    def test_coordinated_governor_receives_telemetry(self):
        testbed, meter = self._loaded_testbed()
        governor = CoordinatedPowerCapGovernor(
            testbed.sim, meter, testbed.x86, testbed.x86_agent, testbed.ixp_agent,
            platform_cap_w=48.0,
        )
        testbed.run(seconds(10))
        assert governor.reports_received >= 8

    def test_coordinated_throttles_less_than_local(self):
        results = {}
        for mode in ("local", "coord"):
            testbed, meter = self._loaded_testbed()
            if mode == "local":
                LocalPowerCapGovernor(testbed.sim, meter, testbed.x86, platform_cap_w=46.0)
            else:
                CoordinatedPowerCapGovernor(
                    testbed.sim, meter, testbed.x86, testbed.x86_agent,
                    testbed.ixp_agent, platform_cap_w=46.0,
                )
            testbed.run(seconds(20))
            results[mode] = (
                testbed.x86.scheduler.cpus[0].speed,
                meter.mean_total_w(skip_first=3),
            )
        local_speed, local_power = results["local"]
        coord_speed, coord_power = results["coord"]
        assert coord_speed > local_speed  # less throttling...
        assert coord_power <= 46.0 + 4.0  # ...at compliant platform power
        assert coord_power > local_power  # budget actually used

    def test_custom_message_type_travels_the_channel(self):
        testbed = Testbed(TestbedConfig())
        received = []
        testbed.x86_agent.register_message_handler(
            PowerReportMessage, lambda m: received.append(m.watts)
        )
        testbed.ixp_agent.endpoint.send(PowerReportMessage(watts=17.5))
        testbed.run(ms(50))
        assert received == [17.5]


class TestPerSpeedEnergyIntegration:
    """ISSUE-6 satellite: energy must integrate across mid-window DVFS
    steps — each busy slice billed at the speed it actually ran at, not
    the whole window priced at the end-of-window level."""

    def test_power_integrated_matches_single_speed_power(self):
        model = CorePowerModel()
        assert model.power_integrated({0.7: 0.4}) == pytest.approx(model.power(0.4, 0.7))
        assert model.power_integrated({}) == pytest.approx(model.power(0.0, 1.0))

    def test_power_integrated_sums_per_speed_slices(self):
        model = CorePowerModel(static_w=2.0, dynamic_w=10.0)
        watts = model.power_integrated({1.0: 0.5, 0.5: 0.5})
        assert watts == pytest.approx(2.0 + 10.0 * (0.5 + 0.5 * 0.125))

    def test_power_integrated_validates_speed(self):
        with pytest.raises(ValueError):
            CorePowerModel().power_integrated({1.5: 0.1})

    def test_busy_buckets_split_by_execution_speed(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        done = vm.execute(ms(20))
        sim.run(until=ms(10))            # half the demand done at nominal
        scheduler.set_cpu_speed(0, 0.5)  # rest runs at half speed
        sim.run(until=seconds(1))
        assert done.processed
        buckets = scheduler.cpus[0].busy_by_speed
        assert buckets[1.0] == pytest.approx(ms(10), rel=0.05)
        assert buckets[0.5] == pytest.approx(ms(20), rel=0.05)
        assert sum(buckets.values()) == pytest.approx(vm.accounting.busy, rel=0.01)

    def test_meter_bills_mid_window_dvfs_step_exactly(self):
        testbed = Testbed(TestbedConfig())
        vm, _nic = testbed.create_guest_vm("hog")

        def hog(sim):
            while True:
                yield vm.execute(ms(5))

        def stepper(sim):
            # Step the whole ladder down exactly mid-way through window 3.
            yield sim.timeout(seconds(2) + seconds(1) // 2)
            testbed.x86.apply_tune(EntityId("x86", "dvfs"), -3)

        testbed.sim.spawn(hog(testbed.sim))
        testbed.sim.spawn(stepper(testbed.sim))
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
        testbed.run(seconds(4))
        core = CorePowerModel()
        mixed_window = meter.samples[2].x86_w
        # Half the window busy at 1.0, half at 0.55, second core idle.
        exact = core.power_integrated({1.0: 0.5, 0.55: 0.5}) + core.power(0.0, 0.55)
        # The pre-fix behaviour priced the whole window at the final speed.
        stale = core.power(1.0, 0.55) + core.power(0.0, 0.55)
        assert mixed_window == pytest.approx(exact, rel=0.1)
        assert abs(mixed_window - exact) < abs(mixed_window - stale)


class TestGovernorRaceGuard:
    """ISSUE-6 satellite: two governors sharing one meter sample must not
    double-step the ladder at the same instant."""

    def test_racing_cap_governors_defer_instead_of_double_stepping(self):
        testbed = Testbed(TestbedConfig(driver_poll_burn_duty=0.5))
        vm, _nic = testbed.create_guest_vm("hog")

        def hog(sim):
            while True:
                yield vm.execute(ms(5))

        testbed.sim.spawn(hog(testbed.sim))
        meter = PowerMeter(testbed.sim, testbed.x86, testbed.ixp, window=seconds(1))
        first = LocalPowerCapGovernor(testbed.sim, meter, testbed.x86, platform_cap_w=42.0)
        second = LocalPowerCapGovernor(testbed.sim, meter, testbed.x86, platform_cap_w=42.0)
        testbed.run(seconds(15))
        # The loser of each same-instant race yields its step...
        assert second.actuator.steps_deferred > 0
        # ...so the ladder moves at most once per simulation instant.
        tune_times = [
            record.time for record in testbed.x86.knobs.audit
            if record.entity == "x86/dvfs" and record.op == "tune"
        ]
        assert len(tune_times) == len(set(tune_times))
        assert testbed.x86.scheduler.cpus[0].speed < 1.0
