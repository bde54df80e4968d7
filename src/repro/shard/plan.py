"""ShardPlan: the deterministic cut of a fabric into shards.

The plan is pure topology arithmetic — cluster groups from
:meth:`FabricTopology.partition`, the conservative lookahead from
:meth:`FabricTopology.min_cross_cluster_latency` (which is also the
window width), and the island/cluster -> shard maps the router and
coordinator consult. It depends only on ``(topology, shards)``; worker
counts, process placement and wall-clock scheduling never influence it,
which is half of the determinism contract (the other half is the
boundary-message ordering in :mod:`repro.shard.ports`).
"""

from __future__ import annotations

from ..platform.fabric import FabricTopology


class ShardPlan:
    """Cluster groups and lookahead for one sharded run."""

    def __init__(self, topology: FabricTopology, shards: int = 1):
        self.topology = topology
        #: Cluster-name groups, one per shard (cluster boundaries only).
        self.groups = topology.partition(shards)
        self.shards = len(self.groups)
        #: The conservative lookahead, and so the window width: the min
        #: cross-cluster link latency. None when the fabric has no
        #: cross-cluster links (shards never exchange a message).
        self.lookahead = topology.min_cross_cluster_latency()
        self._shard_of_cluster = {
            name: index for index, group in enumerate(self.groups) for name in group
        }
        self._shard_of_island = {
            island: self._shard_of_cluster[cluster.name]
            for cluster in topology.clusters
            for island in cluster.islands
        }

    # -- lookups ------------------------------------------------------------

    def shard_of(self, island: str) -> int:
        """The shard index owning ``island``; KeyError if unknown."""
        return self._shard_of_island[island]

    def clusters_of(self, shard: int) -> tuple[str, ...]:
        """The cluster names assigned to ``shard``."""
        return self.groups[shard]

    def islands_of(self, shard: int) -> tuple[str, ...]:
        """The islands of ``shard``, in cluster declaration order."""
        members = set(self.groups[shard])
        return tuple(
            island
            for cluster in self.topology.clusters
            if cluster.name in members
            for island in cluster.islands
        )

    def window_for(self, duration: int) -> int:
        """The window width to run with: the lookahead, or one single
        window spanning the whole run when there is none."""
        return self.lookahead if self.lookahead is not None else duration

    def __repr__(self) -> str:
        return (
            f"<ShardPlan shards={self.shards} lookahead={self.lookahead} "
            f"groups={[len(g) for g in self.groups]}>"
        )
