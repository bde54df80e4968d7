"""Tests for the typed actuation layer: knobs, leases, audit, snapshots.

Covers the overlapping-trigger restore regression, trigger-to-non-
boostable-entity resilience, bound clamping at min/max, zero-delta no-ops,
and audit determinism across the kernel's integer-delay fast path and
Timeout sleeps.
"""

import pytest

from repro.coordination import CoordinationAgent
from repro.interconnect import CoordinationChannel, MessageRing, PCIeBus
from repro.ixp import IXPIsland, IXPParams
from repro.platform import (
    EntityId,
    Knob,
    KnobRegistry,
    TriggerSpec,
    UnknownKnobError,
    UnsupportedTriggerError,
)
from repro.sim import Simulator, TraceLog, Tracer, ms, us
from repro.testbed import Testbed
from repro.x86 import X86Island, X86Params
from repro.x86.diskio import WeightedIOScheduler
from repro.x86.xenctrl import MAX_WEIGHT, MIN_WEIGHT


def build_ixp(sim, **param_overrides):
    island = IXPIsland(sim, IXPParams(**param_overrides))
    island.attach_host(PCIeBus(sim), MessageRing(sim, "rx"), MessageRing(sim, "tx"))
    return island


class _Box:
    """A bare settable value for registry-level unit tests."""

    def __init__(self, value):
        self.value = value

    def set(self, value):
        self.value = value
        return value


def make_registry(sim, minimum=1, maximum=100, step=1, trigger=None):
    registry = KnobRegistry(sim, "test")
    box = _Box(10)
    entity = EntityId("test", "thing")
    registry.register(
        entity,
        Knob(
            kind="unit-test", unit="u", read=lambda: box.value, apply=box.set,
            minimum=minimum, maximum=maximum, step=step, trigger=trigger,
        ),
    )
    return registry, entity, box


class TestKnobRegistry:
    def test_tune_moves_value_by_scaled_delta(self):
        sim = Simulator()
        registry, entity, box = make_registry(sim, step=5)
        record = registry.tune(entity, +3)
        assert box.value == 25
        assert record.outcome == "applied"
        assert record.previous_value == 10
        assert record.applied_value == 25

    def test_tune_clamps_at_bounds_and_audits_it(self):
        sim = Simulator()
        registry, entity, box = make_registry(sim, minimum=1, maximum=100)
        record = registry.tune(entity, +1000)
        assert box.value == 100
        assert record.outcome == "clamped"
        assert record.requested_value == 1010
        assert record.applied_value == 100
        record = registry.tune(entity, -1000)
        assert box.value == 1
        assert record.outcome == "clamped"
        assert registry.tunes_clamped == 2

    def test_zero_delta_is_an_audited_noop(self):
        sim = Simulator()
        applications = []
        registry = KnobRegistry(sim, "test")
        entity = EntityId("test", "thing")
        registry.register(
            entity,
            Knob(kind="k", unit="u", read=lambda: 7,
                 apply=lambda v: applications.append(v) or v),
        )
        record = registry.tune(entity, 0)
        assert applications == []  # apply() never invoked: no side effects
        assert record.outcome == "applied"
        assert record.reason == "zero-delta"
        assert record.applied_value == 7

    def test_unknown_knob_raises_keyerror_subclass(self):
        registry = KnobRegistry(Simulator(), "test")
        with pytest.raises(UnknownKnobError):
            registry.tune(EntityId("test", "ghost"), +1)
        with pytest.raises(KeyError):
            registry.get(EntityId("test", "ghost"))

    def test_trigger_without_capability_raises_and_audits(self):
        sim = Simulator()
        registry, entity, box = make_registry(sim, trigger=None)
        with pytest.raises(UnsupportedTriggerError):
            registry.trigger(entity)
        with pytest.raises(TypeError):  # continuity with the old sniffing
            registry.trigger(entity)
        assert registry.unsupported_triggers == 2
        assert registry.audit[-1].outcome == "rejected"

    def test_pulse_trigger_fires_and_audits(self):
        sim = Simulator()
        fired = []
        registry, entity, box = make_registry(
            sim, trigger=TriggerSpec(pulse=lambda: fired.append(True))
        )
        record = registry.trigger(entity)
        assert fired == [True]
        assert record.outcome == "applied"
        assert registry.triggers_applied == 1

    def test_lease_boost_and_deterministic_expiry(self):
        sim = Simulator()
        registry, entity, box = make_registry(
            sim, maximum=None,
            trigger=TriggerSpec(boost=lambda w: w * 2 + 1, hold=ms(1)),
        )
        registry.trigger(entity)
        assert box.value == 21
        assert registry.active_leases(entity) == 1
        sim.run(until=ms(2))
        assert box.value == 10
        assert registry.active_leases(entity) == 0

    def test_overlapping_leases_stack_and_restore_original(self):
        """The regression the lease layer exists for: a second trigger
        arriving before the first restore must NOT capture the boosted
        value as original (which permanently inflated the weight)."""
        sim = Simulator()
        registry, entity, box = make_registry(
            sim, maximum=None,
            trigger=TriggerSpec(boost=lambda w: w * 2 + 1, hold=ms(1)),
        )
        registry.trigger(entity)           # t=0: 10 -> 21, expires t=1ms
        sim.run(until=us(500))
        registry.trigger(entity)           # t=0.5ms: 21 -> 43, expires t=1.5ms
        assert box.value == 43
        assert registry.active_leases(entity) == 2
        sim.run(until=ms(1.2))             # first lease expired: one level left
        assert box.value == 21
        sim.run(until=ms(2))               # all leases expired
        assert box.value == 10             # exactly the pre-trigger weight
        assert registry.active_leases(entity) == 0

    def test_tune_during_lease_survives_expiry(self):
        """ISSUE-6 satellite: a Tune landing mid-lease used to be silently
        undone at expiry (the restore wrote the stale pre-lease capture).
        The registry now rebases the lease's original by the same delta."""
        sim = Simulator()
        registry, entity, box = make_registry(
            sim, maximum=None,
            trigger=TriggerSpec(boost=lambda w: w * 2, hold=ms(1)),
        )
        registry.trigger(entity)           # t=0: 10 -> 20, original=10
        registry.tune(entity, +5)          # mid-lease: 20 -> 25, rebase to 15
        assert box.value == 25
        sim.run(until=ms(2))
        assert box.value == 15             # the Tune survived the restore
        assert registry.active_leases(entity) == 0

    def test_tune_during_stacked_leases_rebases_every_rederivation(self):
        sim = Simulator()
        registry, entity, box = make_registry(
            sim, maximum=None,
            trigger=TriggerSpec(boost=lambda w: w * 2, hold=ms(1)),
        )
        registry.trigger(entity)           # t=0: 10 -> 20, expires t=1ms
        sim.run(until=us(500))
        registry.trigger(entity)           # t=0.5ms: 20 -> 40, expires t=1.5ms
        registry.tune(entity, +5)          # 40 -> 45, original 10 -> 15
        assert box.value == 45
        sim.run(until=ms(1.2))
        # One level left: re-derived from the REBASED original (2*15),
        # not the stale pre-lease capture (2*10).
        assert box.value == 30
        sim.run(until=ms(2))
        assert box.value == 15
        assert registry.active_leases(entity) == 0

    def test_mid_lease_tune_rebase_clamps_independently(self):
        sim = Simulator()
        registry, entity, box = make_registry(
            sim, minimum=1, maximum=30,
            trigger=TriggerSpec(boost=lambda w: w + 15, hold=ms(1)),
        )
        registry.trigger(entity)           # 10 -> 25, original=10
        registry.tune(entity, +20)         # boosted value clamps at 30...
        assert box.value == 30
        sim.run(until=ms(2))
        assert box.value == 30             # ...and the original at 10+20=30

    def test_snapshot_describes_capabilities(self):
        sim = Simulator()
        registry, entity, box = make_registry(
            sim, trigger=TriggerSpec(pulse=lambda: None)
        )
        snap = registry.snapshot()
        description = snap["test/thing"]
        assert description["kind"] == "unit-test"
        assert description["unit"] == "u"
        assert description["value"] == 10
        assert description["minimum"] == 1
        assert description["maximum"] == 100
        assert description["supports_trigger"] is True
        assert description["active_leases"] == 0

    def test_duplicate_knob_rejected(self):
        sim = Simulator()
        registry, entity, box = make_registry(sim)
        with pytest.raises(ValueError):
            registry.register(entity, Knob(kind="dup", unit="u",
                                           read=lambda: 0, apply=lambda v: v))


class TestIXPTriggerLease:
    def test_overlapping_ixp_triggers_no_longer_inflate_weight(self):
        """Reproduces the old IXP bug: trigger again before the first
        restore and check the weight settles back to the true original."""
        sim = Simulator()
        island = build_ixp(sim)
        queue = island.register_vm_flow("vm-a", service_weight=2)
        entity = EntityId("ixp", "vm-a")
        hold = island.params.monitor_period * 4

        island.apply_trigger(entity)
        assert queue.service_weight == 5  # 2*2+1
        sim.run(until=hold // 2)
        island.apply_trigger(entity)      # overlaps the first lease
        assert queue.service_weight == 11  # stacked: 5*2+1
        sim.run(until=hold * 3)
        # Old translation restored to 5 (the boosted capture); the lease
        # layer peels back to the registration-time weight.
        assert queue.service_weight == 2
        assert island.knobs.active_leases(entity) == 0

    def test_single_trigger_behaviour_unchanged(self):
        sim = Simulator()
        island = build_ixp(sim)
        queue = island.register_vm_flow("vm-a")
        original = queue.service_weight
        island.apply_trigger(EntityId("ixp", "vm-a"))
        assert queue.service_weight == original * 2 + 1
        sim.run(until=island.params.monitor_period * 5)
        assert queue.service_weight == original


class TestUnsupportedTriggerResilience:
    def _pair(self):
        sim = Simulator()
        x86 = X86Island(sim, X86Params(num_cpus=1))
        ixp = IXPIsland(sim)
        channel = CoordinationChannel(sim, latency=us(100), a_name="ixp", b_name="x86")
        ixp_agent = CoordinationAgent(sim, ixp, channel.endpoint("ixp"))
        x86_agent = CoordinationAgent(sim, x86, channel.endpoint("x86"),
                                      handler_vm=x86.dom0)
        return sim, x86, ixp, ixp_agent, x86_agent

    def test_trigger_to_disk_weight_target_does_not_crash(self):
        sim, x86, ixp, ixp_agent, x86_agent = self._pair()
        vm = x86.create_vm("guest")
        x86.attach_disk(WeightedIOScheduler(sim))
        x86.create_disk_interface(vm)
        ixp_agent.send_trigger(EntityId("x86", "disk:guest"), reason="mistake")
        ixp_agent.send_trigger(EntityId("x86", "guest"), reason="fine")
        sim.run(until=ms(5))  # would TypeError-crash before the registry
        assert x86_agent.unsupported_triggers == 1
        assert x86_agent.triggers_applied == 1
        assert x86.knobs.unsupported_triggers == 1

    def test_unsupported_trigger_emits_trace(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log, kinds=["unsupported-trigger"])
        x86 = X86Island(sim, X86Params(num_cpus=1), tracer=tracer)
        vm = x86.create_vm("guest")
        x86.attach_disk(WeightedIOScheduler(sim))
        x86.create_disk_interface(vm)
        with pytest.raises(UnsupportedTriggerError):
            x86.apply_trigger(EntityId("x86", "disk:guest"))
        assert len(log.of_kind("unsupported-trigger")) == 1


class TestIslandKnobBounds:
    def test_credit_weight_clamps_at_min_and_max(self):
        sim = Simulator()
        island = X86Island(sim)
        vm = island.create_vm("guest")
        record = island.apply_tune(EntityId("x86", "guest"), +100_000)
        assert vm.weight == MAX_WEIGHT
        assert record.outcome == "clamped"
        record = island.apply_tune(EntityId("x86", "guest"), -100_000)
        assert vm.weight == MIN_WEIGHT
        assert record.outcome == "clamped"

    def test_service_weight_clamps_at_floor(self):
        sim = Simulator()
        island = build_ixp(sim)
        queue = island.register_vm_flow("vm-a", service_weight=3)
        record = island.apply_tune(EntityId("ixp", "vm-a"), -50)
        assert queue.service_weight == 1
        assert record.outcome == "clamped"

    def test_zero_delta_tune_skips_native_side_effects(self):
        sim = Simulator()
        island = X86Island(sim)
        island.create_vm("guest")
        island.apply_tune(EntityId("x86", "guest"), 0)
        # No hypercall was issued, so Dom0 received no system work.
        assert not island.dom0.guest.has_work

    def test_dvfs_knob_steps_the_ladder(self):
        from repro.x86.island import DVFS_LADDER

        sim = Simulator()
        island = X86Island(sim, X86Params(num_cpus=2))
        entity = EntityId("x86", "dvfs")
        assert island.knobs.describe(entity)["value"] == len(DVFS_LADDER) - 1
        island.apply_tune(entity, -1)
        assert island.scheduler.cpus[0].speed == DVFS_LADDER[-2]
        assert island.scheduler.cpus[1].speed == DVFS_LADDER[-2]
        record = island.apply_tune(entity, -10)
        assert island.scheduler.cpus[0].speed == DVFS_LADDER[0]
        assert record.outcome == "clamped"
        island.apply_trigger(entity)  # pulse: jump straight to nominal
        assert island.scheduler.cpus[0].speed == DVFS_LADDER[-1]


class TestControllerSnapshotAndAudit:
    """Knob tables, audits and counters are read from each island's own
    registry; the controller only resolves ownership."""

    def _platform(self, sim):
        return X86Island(sim, X86Params(num_cpus=1)), IXPIsland(sim)

    def test_knob_snapshot_spans_islands(self):
        sim = Simulator()
        x86, ixp = self._platform(sim)
        x86.create_vm("guest")
        ixp.register_vm_flow("guest")
        x86_snap, ixp_snap = x86.knobs.snapshot(), ixp.knobs.snapshot()
        assert x86_snap["x86/guest"]["kind"] == "credit-weight"
        assert x86_snap["x86/guest"]["supports_trigger"] is True
        assert ixp_snap["ixp/guest"]["kind"] == "flow-service-weight"
        assert x86_snap["x86/dvfs"]["kind"] == "dvfs-level"
        assert x86_snap["x86/guest"]["minimum"] == MIN_WEIGHT
        assert x86_snap["x86/guest"]["maximum"] == MAX_WEIGHT
        assert "ixp/guest" not in x86_snap and "x86/guest" not in ixp_snap

    def test_testbed_snapshot_lists_every_native_knob_kind(self):
        """A third island registered after the two-island Testbed is built
        joins its controller, and every island's native knob kind
        surfaces through the one typed registry."""
        tb = Testbed()
        tb.x86.create_vm("guest", weight=256)
        tb.ixp.register_vm_flow("guest", service_weight=2)
        x86b = X86Island(tb.sim, X86Params(num_cpus=1), name="x86b", tracer=tb.tracer)
        x86b.attach_disk(WeightedIOScheduler(tb.sim))
        x86b.create_disk_interface(x86b.create_vm("guest"))
        tb.controller.register_island(x86b)
        kinds = {
            entry["kind"]
            for island in (tb.x86, tb.ixp, x86b)
            for entry in island.knobs.snapshot().values()
        }
        assert {
            "credit-weight", "flow-service-weight", "io-weight", "dvfs-level",
        } <= kinds

    def test_platform_audit_merges_and_orders(self):
        """Each island's audit holds its own actuations, in (time, seq)
        order, and its counters agree with it."""
        sim = Simulator()
        x86, ixp = self._platform(sim)
        x86.create_vm("guest")
        ixp.register_vm_flow("guest")
        x86.apply_tune(EntityId("x86", "guest"), +64)
        ixp.apply_tune(EntityId("ixp", "guest"), +2)
        x86.apply_tune(EntityId("x86", "guest"), -32)
        for island in (x86, ixp):
            audit = island.knobs.audit
            assert all(
                (a.time, a.seq) < (b.time, b.seq) for a, b in zip(audit, audit[1:])
            )
        x86_tunes = [r for r in x86.knobs.audit if r.op == "tune"]
        assert [(r.entity, r.requested_delta) for r in x86_tunes] == [
            ("x86/guest", 64), ("x86/guest", -32),
        ]
        assert [r.entity for r in ixp.knobs.audit if r.op == "tune"] == ["ixp/guest"]
        assert x86.knobs.stats()["tunes_applied"] == 2
        assert ixp.knobs.stats()["tunes_applied"] == 1

    def _run_audited_scenario(self, int_yields):
        sim = Simulator()
        island = build_ixp(sim)
        island.register_vm_flow("vm-a", service_weight=2)
        entity = EntityId("ixp", "vm-a")

        def sleep(delay):
            return delay if int_yields else sim.timeout(delay)

        def actor():
            yield sleep(ms(1))
            island.apply_tune(entity, +3)
            yield sleep(ms(1))
            island.apply_trigger(entity)
            yield sleep(us(200))
            island.apply_trigger(entity)  # overlapping lease
            yield sleep(ms(5))
            island.apply_tune(entity, -50)

        sim.spawn(actor(), name="actor")
        sim.run(until=ms(20))
        return list(island.knobs.audit)

    def test_audit_log_deterministic_across_kernel_fastpath(self):
        """The audit trail (times, seqs, values) must be bit-equal whether
        the actor sleeps on the kernel's integer-delay fast path
        (``yield n``) or on Timeouts."""
        fast = self._run_audited_scenario(int_yields=True)
        timeouts = self._run_audited_scenario(int_yields=False)
        assert fast == timeouts
        ops = [r.op for r in fast]
        assert ops.count("trigger") == 2
        assert ops.count("trigger-release") == 2


class TestActuationTrace:
    """Every actuation trace record is counted by the registry that emits
    it: a traced run's per-kind totals equal ``knobs.stats()``."""

    def test_trace_totals_match_registry_stats(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        island = X86Island(sim, X86Params(num_cpus=1), tracer=tracer)
        island.create_vm("guest")
        island.apply_tune(EntityId("x86", "guest"), +64)
        island.apply_tune(EntityId("x86", "guest"), +100_000)
        island.apply_trigger(EntityId("x86", "guest"))
        totals = log.count_by_kind()
        stats = island.knobs.stats()
        assert totals["tune-applied"] == stats["tunes_applied"] == 2
        assert totals["tune-clamped"] == stats["tunes_clamped"] == 1
        assert totals["trigger-applied"] == stats["triggers_applied"] == 1

    def test_lease_release_traced(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        island = IXPIsland(sim, tracer=tracer)
        island.register_vm_flow("vm-a")
        island.apply_trigger(EntityId("ixp", "vm-a"))
        assert log.of_kind("trigger-released") == []
        sim.run(until=island.params.monitor_period * 5)
        totals = log.count_by_kind()
        assert totals["trigger-applied"] == island.knobs.stats()["triggers_applied"] == 1
        assert totals["trigger-released"] == 1
