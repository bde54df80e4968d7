"""Chaos experiment: blackout sweep over the armed fault domain.

The robustness counterpart of the paper's coordination experiments: the
same coordinated RUBiS scenario, but the PCI-config-space mailbox is
blacked out mid-run for a swept duration while a lease-holding Trigger
loop keeps exercising the IXP's transient flow-weight boosts. Each arm
demonstrates — and measures — the full fault arc:

* **detection** — heartbeats stop crossing; both failure detectors walk
  their peer UP -> SUSPECT -> DOWN (sim-time latency per side);
* **fallback** — the DOWN transition reverts declared baselines: the
  earliest ``op == "revert"`` record in the islands' actuation audits;
* **recovery** — heartbeats resume after the blackout, the detectors
  return to UP and bump epochs;
* **reconvergence** — the RUBiS policy replays its desired snapshot and
  the x86 tier weights catch the policy's shadow again;
* **no leaks** — after a drain window every transient boost lease has
  expired (``outstanding_leases() == 0``) and stale-epoch frames from the
  blackout were discarded, not applied.

Everything is read from deterministic structures (detector transition
timelines, the actuation audit); the arm runs with tracing off, so the
fault domain is measured at its production cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..apps.rubis import WEB_VM, RubisConfig, deploy_rubis
from ..faults import ChannelBlackout, FaultConfig, FaultPlan
from ..parallel import Job, run_jobs
from ..platform import EntityId
from ..sim import ms, seconds
from ..testbed import ChannelConfig, TestbedConfig
from .report import render_table

#: Swept blackout durations (ns).
DEFAULT_BLACKOUTS = (ms(500), seconds(1), seconds(2))
#: Blackout onset: after warmup, with the steady-state mix established.
FAULT_START = seconds(6)
#: Period of the lease-exercising x86 -> IXP boost-trigger loop. Much
#: longer than the 2 ms lease hold, so each lease expires (and restores)
#: between triggers and a stuck lease is unambiguous.
BOOST_PERIOD = ms(25)

_SIDES = ("ixp", "x86")


@dataclass
class ChaosArmResult:
    """Robustness numbers of one blackout arm (all latencies in ms)."""

    blackout_ms: float
    seed: int
    #: Kernel events the run processed.
    events: int
    #: island -> time from blackout start until its detector left UP.
    detection_ms: dict[str, float] = field(default_factory=dict)
    #: Time from blackout start to the first baseline revert in the audit.
    fallback_ms: float = -1.0
    #: island -> time from blackout end until its detector returned to UP.
    recovery_ms: dict[str, float] = field(default_factory=dict)
    #: Time from blackout end until x86 tier weights == policy shadow.
    reconverge_ms: float = -1.0
    #: Held boost-lease levels after the drain window (must be zero).
    stuck_leases: int = 0
    tunes_suppressed: int = 0
    replays_sent: int = 0
    stale_epoch_drops: int = 0
    dead_letters: int = 0
    boost_triggers_sent: int = 0
    #: island -> final agent epoch (1 after one full outage round-trip).
    epoch: dict[str, int] = field(default_factory=dict)
    #: island -> the detector's full (time, state, reason) timeline — the
    #: determinism fixture: identical across runs and fast path modes.
    transitions: dict[str, list] = field(default_factory=dict)
    #: Final x86 tier weights, for the determinism fixture.
    final_weights: dict[str, int] = field(default_factory=dict)


def chaos_config(blackout: int, seed: int = 1) -> RubisConfig:
    """The coordinated RUBiS workload with one scripted mid-run blackout
    and the fault domain armed over the reliable channel."""
    plan = FaultPlan((ChannelBlackout(start=FAULT_START, duration=blackout),))
    return RubisConfig(
        num_sessions=40,
        requests_per_session=10,
        think_time_mean=ms(300),
        warmup=seconds(4),
        coordinated=True,
        testbed=TestbedConfig(
            seed=seed,
            driver_poll_burn_duty=0.5,
            channel=ChannelConfig(reliable=True),
            faults=FaultConfig(plan=plan),
        ),
    )


def _boost_loop(testbed, entity, active):
    """Periodic x86 -> IXP Trigger exercising the flow-weight boost lease
    (2 ms hold); suppressed while the peer is DOWN, like any policy."""
    agent = testbed.x86_agent
    while True:
        yield BOOST_PERIOD
        if not active[0]:
            return
        if not agent.peer_available:
            continue
        agent.send_trigger(entity, reason="chaos-lease-exercise")


def _first_leaving_up(transitions, start):
    for time, state, _reason in transitions:
        if time >= start and state != "up":
            return time
    return None


def _first_up_after(transitions, start):
    for time, state, _reason in transitions:
        if time >= start and state == "up":
            return time
    return None


def run_chaos_arm(blackout: int, seed: int = 1) -> ChaosArmResult:
    """Run one blackout arm and measure the detection -> fallback ->
    recovery -> reconvergence arc."""
    config = chaos_config(blackout, seed=seed)
    deployment = deploy_rubis(config)
    testbed = deployment.testbed
    sim = testbed.sim
    policy = deployment.policy
    assert policy is not None  # coordinated=True wired it

    boost_entity = EntityId(testbed.ixp.name, WEB_VM)
    boost_active = [True]
    boosts_before = testbed.ixp_agent.triggers_applied
    sim.spawn(
        _boost_loop(testbed, boost_entity, boost_active), name="chaos-boost"
    )

    fault_end = FAULT_START + blackout
    # Phase 1: through the blackout. Detection and fallback happen here.
    testbed.run(fault_end)

    # Phase 2: poll for recovery (both detectors back to UP), in steps
    # short enough to timestamp it within one heartbeat period.
    recovery_deadline = fault_end + seconds(5)
    while sim.now < recovery_deadline and any(
        testbed.detectors[side].state != "up" for side in _SIDES
    ):
        testbed.run(sim.now + ms(20))

    # Phase 3: poll for reconvergence — every x86 tier weight equal to
    # the policy's shadow (the replayed desired snapshot, then kept in
    # step by live steering once the mix quiesces).
    def reconverged() -> bool:
        return all(
            testbed.x86.vm(entity.local_name).weight == desired
            for entity, desired in policy.shadow_weights().items()
        )

    reconverge_deadline = fault_end + seconds(20)
    while sim.now < reconverge_deadline and not reconverged():
        testbed.run(sim.now + ms(20))
    reconverge_at = sim.now if reconverged() else None

    # Phase 4: drain. Stop the boost loop and give every held lease
    # several hold periods to expire; anything still held is stuck.
    boost_active[0] = False
    hold = testbed.ixp.params.monitor_period * 4
    testbed.run(sim.now + max(ms(10), 4 * hold) + BOOST_PERIOD)

    detection_ms = {}
    recovery_ms = {}
    for side in _SIDES:
        transitions = testbed.detectors[side].transitions
        left_up = _first_leaving_up(transitions, FAULT_START)
        back_up = _first_up_after(transitions, fault_end)
        detection_ms[side] = -1.0 if left_up is None else (left_up - FAULT_START) / 1e6
        recovery_ms[side] = -1.0 if back_up is None else (back_up - fault_end) / 1e6

    fallback_at = min(
        (
            record.time
            for island in (testbed.x86, testbed.ixp)
            for record in island.knobs.audit
            if record.op == "revert" and record.time >= FAULT_START
        ),
        default=None,
    )

    stuck = sum(
        island.knobs.outstanding_leases() for island in (testbed.x86, testbed.ixp)
    )
    return ChaosArmResult(
        blackout_ms=blackout / 1e6,
        seed=seed,
        events=sim.events,
        detection_ms=detection_ms,
        fallback_ms=-1.0 if fallback_at is None else (fallback_at - FAULT_START) / 1e6,
        recovery_ms=recovery_ms,
        reconverge_ms=(
            -1.0 if reconverge_at is None else (reconverge_at - fault_end) / 1e6
        ),
        stuck_leases=stuck,
        tunes_suppressed=policy.tunes_suppressed,
        replays_sent=policy.replays_sent,
        stale_epoch_drops=(
            testbed.ixp_agent.stale_epoch_drops + testbed.x86_agent.stale_epoch_drops
        ),
        dead_letters=sum(
            testbed.detectors[side].dead_letters_seen for side in _SIDES
        ),
        boost_triggers_sent=testbed.ixp_agent.triggers_applied - boosts_before,
        epoch={
            "ixp": testbed.ixp_agent.epoch,
            "x86": testbed.x86_agent.epoch,
        },
        transitions={
            side: list(testbed.detectors[side].transitions) for side in _SIDES
        },
        final_weights={
            entity.local_name: testbed.x86.vm(entity.local_name).weight
            for entity in policy.shadow_weights()
        },
    )


def run_chaos_sweep(
    blackouts=DEFAULT_BLACKOUTS, seed: int = 1
) -> list[ChaosArmResult]:
    """Sweep blackout durations, one independent arm each, fanned out."""
    return run_jobs(
        Job(
            run_chaos_arm,
            kwargs={"blackout": blackout, "seed": seed},
            label=f"chaos:{blackout}",
        )
        for blackout in blackouts
    )


def render_chaos(results: list[ChaosArmResult]) -> str:
    """Tabulate the fault arc per blackout duration."""
    rows = []
    for arm in results:
        rows.append((
            f"{arm.blackout_ms:.0f}",
            f"{arm.detection_ms['ixp']:.1f} / {arm.detection_ms['x86']:.1f}",
            f"{arm.fallback_ms:.1f}",
            f"{arm.recovery_ms['ixp']:.1f} / {arm.recovery_ms['x86']:.1f}",
            f"{arm.reconverge_ms:.1f}",
            str(arm.replays_sent),
            str(arm.tunes_suppressed),
            str(arm.stale_epoch_drops),
            str(arm.stuck_leases),
        ))
    table = render_table(
        ["Blackout (ms)", "Detect ixp/x86 (ms)", "Fallback (ms)",
         "Recover ixp/x86 (ms)", "Reconverge (ms)", "Replays",
         "Suppressed", "Stale drops", "Stuck leases"],
        rows,
        title="Chaos: channel blackout sweep (fault domain armed)",
    )
    leaked = sum(arm.stuck_leases for arm in results)
    footer = (
        "all boost leases expired cleanly"
        if leaked == 0
        else f"WARNING: {leaked} boost-lease level(s) still held after drain"
    )
    return f"{table}\n{footer}"
