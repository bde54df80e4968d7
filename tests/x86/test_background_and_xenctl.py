"""Tests for guest background load and the XenCtrl interface details."""

import pytest

from repro.sim import Simulator, ms, seconds
from repro.x86 import (
    MAX_WEIGHT,
    MIN_WEIGHT,
    CreditScheduler,
    VirtualMachine,
    X86Island,
    XenCtl,
)
from repro.x86.background import GuestBackgroundLoad


class TestGuestBackgroundLoad:
    def _host(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        return sim, vm

    def test_duty_cycle_consumes_expected_share(self):
        sim, vm = self._host()
        GuestBackgroundLoad(sim, vm, duty=0.2)
        sim.run(until=seconds(5))
        utilization = vm.cpu_time() / seconds(5)
        assert 0.17 < utilization < 0.23

    def test_zero_duty_spawns_nothing(self):
        sim, vm = self._host()
        load = GuestBackgroundLoad(sim, vm, duty=0.0)
        sim.run(until=seconds(1))
        assert vm.cpu_time() == 0
        assert load.bursts == 0

    def test_invalid_duty_rejected(self):
        sim, vm = self._host()
        with pytest.raises(ValueError):
            GuestBackgroundLoad(sim, vm, duty=1.0)
        with pytest.raises(ValueError):
            GuestBackgroundLoad(sim, vm, duty=-0.1)

    def test_bursts_coalesce_when_guest_is_starved(self):
        """A starved guest must not accumulate unbounded housekeeping."""
        sim, vm = self._host()
        GuestBackgroundLoad(sim, vm, duty=0.1)
        # A hog with most of the weight starves the background VM.
        hog = VirtualMachine(sim, "hog", weight=4096)
        vm._scheduler.add_domain(hog)

        def burn(sim):
            while True:
                yield hog.execute(ms(5))

        sim.spawn(burn(sim))
        sim.run(until=seconds(3))
        assert vm.guest.queue_length < 64 + 1

    def test_marked_as_sys_time(self):
        sim, vm = self._host()
        GuestBackgroundLoad(sim, vm, duty=0.1)
        sim.run(until=seconds(1))
        assert vm.accounting.sys > 0
        assert vm.accounting.user == 0


class TestXenCtl:
    def test_weight_clamps(self):
        sim = Simulator()
        island = X86Island(sim)
        vm = island.create_vm("guest")
        assert island.xenctl.set_weight(vm, 10_000_000) == MAX_WEIGHT
        assert island.xenctl.set_weight(vm, 0) == MIN_WEIGHT

    def test_operations_without_dom0_do_not_crash(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        ctl = XenCtl(sim, scheduler, dom0=None)
        assert ctl.set_weight(vm, 512) == 512
        ctl.boost(vm)
        ctl.set_cap(vm, 50)
        assert vm.cap_percent == 50
