"""The platform FailureDetector across a shard boundary.

A two-cluster fabric with a scripted bidirectional blackout on its one
uplink. Each end runs a :class:`FailureDetector` on a handler-less
:class:`CoordinationAgent` whose endpoint is a :class:`BoundaryEndpoint`:
both must walk UP -> SUSPECT -> DOWN at deterministic times and, on heal,
bump their epoch and fire the ``on_up`` replay hook — identically at any
shard count.
"""

import pytest

from repro.coordination import CoordinationAgent
from repro.faults import (
    PEER_DOWN,
    PEER_SUSPECT,
    PEER_UP,
    ChannelBlackout,
    FailureDetector,
    FaultConfig,
)
from repro.platform import FabricTopology
from repro.shard import BoundaryEndpoint, ShardPlan, run_sharded
from repro.sim import ms, seconds
from repro.x86 import X86Island, X86Params

BLACKOUT_START = ms(400)
BLACKOUT_LEN = ms(300)
DURATION = seconds(1)


def two_cluster_topology():
    return FabricTopology.clustered(
        ("left-0", "left-1", "right-0", "right-1"),
        fanout=2,
        link_latency=ms(5),
        uplink_latency=ms(5),
    )


class HealthWorld:
    def __init__(self, ctx, period):
        self.links = {}
        self.replays = {}
        topo = ctx.plan.topology
        blackout = ChannelBlackout(
            start=BLACKOUT_START, duration=BLACKOUT_LEN, direction="both"
        )
        ctx.router.add_blackout("left-0", "right-0", blackout)
        for local, peer in (("left-0", "right-0"), ("right-0", "left-0")):
            if local not in ctx.islands:
                continue
            island = X86Island(ctx.sim, X86Params(num_cpus=1), name=local)
            endpoint = BoundaryEndpoint(ctx.sim, ctx.router, local, peer)
            agent = CoordinationAgent(ctx.sim, island, endpoint)
            link = FailureDetector(
                ctx.sim, agent, FaultConfig(heartbeat_period=period)
            )
            self.links[local] = link
            self.replays[local] = 0
            link.on_up(lambda local=local: self._bump(local))
        assert topo.root == "left-0"

    def _bump(self, local):
        self.replays[local] += 1

    def collect(self):
        return {
            local: {"health": link.health(), "replays": self.replays[local]}
            for local, link in self.links.items()
        }


def build_health_world(ctx, period):
    return HealthWorld(ctx, period)


def run_health(shards):
    plan = ShardPlan(two_cluster_topology(), shards=shards)
    run = run_sharded(
        plan, build_health_world, (ms(50),), duration=DURATION
    )
    view = {}
    for result in run.results:
        view.update(result)
    return view


class TestHealthTimeline:
    @pytest.fixture(scope="class")
    def view(self):
        return run_health(shards=1)

    @pytest.mark.parametrize("endpoint", ["left-0", "right-0"])
    def test_up_suspect_down_up_walk(self, view, endpoint):
        states = [state for _t, state, _r in view[endpoint]["health"]["transitions"]]
        assert states == [PEER_UP, PEER_SUSPECT, PEER_DOWN, PEER_UP]

    @pytest.mark.parametrize("endpoint", ["left-0", "right-0"])
    def test_detection_and_recovery_times(self, view, endpoint):
        transitions = view[endpoint]["health"]["transitions"]
        down_at = next(t for t, state, _r in transitions if state == PEER_DOWN)
        back_at = transitions[-1][0]
        # 4 missed 50 ms heartbeats after the last pre-blackout beat.
        assert BLACKOUT_START < down_at <= BLACKOUT_START + ms(250)
        heal = BLACKOUT_START + BLACKOUT_LEN
        assert heal <= back_at <= heal + ms(100)

    def test_epoch_bump_and_replay_hook(self, view):
        for endpoint in ("left-0", "right-0"):
            assert view[endpoint]["health"]["epoch"] == 1
            assert view[endpoint]["replays"] == 1

    def test_sharded_timeline_is_identical(self, view):
        assert run_health(shards=2) == view
