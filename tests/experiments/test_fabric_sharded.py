"""The sharded fabric experiment: bit-equal arms, fault story, sweep."""

import pytest

from repro.experiments import (
    run_fabric_sharded,
    run_fabric_sharded_arm,
    render_fabric_sharded,
    sharded_topology,
)
from repro.experiments.fabric_sharded import UPLINK_LATENCY, FabricShardWorld
from repro.shard import ShardPlan, run_sharded
from repro.sim import ms, seconds

K = 16
FANOUT = 4
DURATION = seconds(2)


def arm(shards, blackout=True):
    return run_fabric_sharded_arm(
        K, shards=shards, duration=DURATION, seed=3,
        blackout=blackout, fanout=FANOUT,
    )


@pytest.fixture(scope="module")
def reference():
    return arm(shards=1)


class TestBitEquality:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_sharded_metrics_match_single_process(self, reference, shards):
        sharded = arm(shards=shards)
        assert sharded.metrics == reference.metrics
        assert sharded.shards == shards

    def test_execution_side_reported_separately(self, reference):
        sharded = arm(shards=2)
        assert sharded.events == reference.events
        assert sharded.windows == reference.windows
        assert sharded.wall_seconds > 0
        assert sharded.events_per_second > 0


class TestFaultStory:
    def test_partition_detected_at_both_uplink_endpoints(self, reference):
        target = f"cluster-{K // FANOUT - 1}"
        health = reference.metrics["clusters"][target]["health"]
        assert "down" in [state for _t, state, _r in health["transitions"]]
        downlinks = reference.metrics["root"]["downlinks"]
        target_agg = f"isle-{K - FANOUT}"
        root_states = [
            state for _t, state, _r in downlinks[target_agg]["transitions"]
        ]
        assert "down" in root_states
        assert reference.detect_ms == pytest.approx(200.0)

    def test_reports_suppressed_while_down(self, reference):
        target = f"cluster-{K // FANOUT - 1}"
        assert reference.metrics["clusters"][target]["reports_suppressed"] > 0

    def test_recovery_bumps_epoch_and_converges(self, reference):
        assert reference.recovery_epoch == 1
        assert reference.convergence_ms is not None
        # The spare registered mid-blackout; every cluster eventually saw it.
        for name, data in reference.metrics["clusters"].items():
            assert "spare" in data["seen_at"], name

    def test_blackout_dropped_boundary_messages(self, reference):
        assert reference.metrics["boundary"]["dropped"] > 0
        calm = arm(shards=1, blackout=False)
        assert calm.metrics["boundary"]["dropped"] == 0
        assert calm.convergence_ms is None
        assert calm.detect_ms is None


REGISTER_AT = ms(100)


def build_registering_world(ctx, cluster):
    """The calm fabric, plus an entity registered on ``cluster`` at
    :data:`REGISTER_AT` by whichever shard owns it."""
    world = FabricShardWorld(ctx, 1, seconds(1), False)
    agent = world.agents.get(cluster)
    if agent is not None:
        world.sim.call_at(
            REGISTER_AT, lambda: agent.register_entity("extra", world.sim.now)
        )
    return world


class TestRegistrationFanOut:
    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize(
        "cluster, uplink_hops", [("cluster-0", 1), ("cluster-3", 2)]
    )
    def test_every_cluster_learns_a_registration_via_the_root(
        self, shards, cluster, uplink_hops
    ):
        """Registrations fan out from the root, the root's own cluster's
        included: one hop down from there, two (up, then down) from any
        other cluster — never left to the slower ring gossip."""
        plan = ShardPlan(sharded_topology(64), shards=shards)
        run = run_sharded(
            plan, build_registering_world, (cluster,), duration=seconds(1)
        )
        seen = [
            data["seen_at"].get("extra")
            for result in run.results
            for data in result["clusters"].values()
        ]
        assert len(seen) == 8 and None not in seen
        assert max(seen) - REGISTER_AT == uplink_hops * UPLINK_LATENCY


class TestSweep:
    def test_sweep_asserts_equality_and_renders(self):
        results = run_fabric_sharded(
            island_counts=(16,), shards=4, duration=seconds(1), seed=1
        )
        reference, sharded = results[16]
        assert reference.shards == 1
        assert sharded.shards == 2  # 16 islands / fanout 8 = 2 clusters
        table = render_fabric_sharded(results)
        assert "16" in table and "bit-identical" in table

    def test_single_cluster_topology_rejected(self):
        with pytest.raises(ValueError, match="single cluster"):
            sharded_topology(8, fanout=8)


class TestTopology:
    def test_ring_and_uplinks_give_expected_lookahead(self):
        topo = sharded_topology(32, fanout=8)
        assert topo.min_cross_cluster_latency() == ms(5)
        aggregators = topo.aggregators
        assert len(aggregators) == 4
        # Every aggregator reaches its ring successor over a declared link.
        declared = {
            frozenset((a, b)) for a, b, _l in topo.cross_cluster_links()
        }
        for i, agg in enumerate(aggregators):
            succ = aggregators[(i + 1) % len(aggregators)]
            assert frozenset((agg, succ)) in declared
