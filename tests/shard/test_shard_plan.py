"""ShardPlan: deterministic cluster cuts and the lookahead window."""

import pytest

from repro.platform import FabricTopology
from repro.shard import ShardPlan
from repro.sim import ms


def _topo(num_islands=16, fanout=4):
    return FabricTopology.clustered(
        tuple(f"i{n}" for n in range(num_islands)),
        fanout=fanout,
        link_latency=ms(5),
        uplink_latency=ms(10),
    )


class TestPartition:
    def test_groups_cover_all_clusters_contiguously(self):
        plan = ShardPlan(_topo(), shards=2)
        assert plan.shards == 2
        flattened = [name for group in plan.groups for name in group]
        assert flattened == [c.name for c in plan.topology.clusters]

    def test_islands_split_near_equally(self):
        plan = ShardPlan(_topo(16, 4), shards=2)
        sizes = [len(plan.islands_of(i)) for i in range(2)]
        assert sizes == [8, 8]

    def test_shard_of_matches_islands_of(self):
        plan = ShardPlan(_topo(), shards=4)
        for shard in range(plan.shards):
            for island in plan.islands_of(shard):
                assert plan.shard_of(island) == shard

    def test_more_shards_than_clusters_rejected(self):
        with pytest.raises(ValueError, match="cluster boundaries"):
            ShardPlan(_topo(16, 4), shards=5)

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            ShardPlan(_topo(), shards=0)


class TestWindow:
    def test_lookahead_is_min_cross_cluster_latency(self):
        # Only the ms(10) uplinks cross cluster boundaries here; the
        # ms(5) member links are intra-cluster and offer no lookahead.
        plan = ShardPlan(_topo(), shards=2)
        assert plan.lookahead == ms(10)
        assert plan.window_for(ms(100)) == ms(10)

    def test_disconnected_clusters_need_explicit_window(self):
        topo = FabricTopology(
            clusters=(
                FabricTopology.star(("a0", "a1")).clusters[0],
            ),
            connect_aggregators=False,
        )
        # Single cluster, no cross-cluster links: lookahead is undefined
        # and the single shard spans the whole run in one window.
        plan = ShardPlan(topo, shards=1)
        assert plan.lookahead is None
        assert plan.window_for(ms(100)) == ms(100)

    def test_multi_shard_without_links_needs_window(self):
        islands = tuple(f"i{n}" for n in range(4))
        topo = FabricTopology.clustered(islands, fanout=2)
        detached = FabricTopology(
            clusters=topo.clusters, connect_aggregators=False
        )
        # The shards never exchange a message: the run is one window.
        plan = ShardPlan(detached, shards=2)
        assert plan.shards == 2
        assert plan.lookahead is None
        assert plan.window_for(ms(100)) == ms(100)
