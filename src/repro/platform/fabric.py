"""Declarative fabric topologies: clusters, links, latencies, fanout.

The paper's prototype wires two islands by hand; its §5 future work asks
about scaling coordination to large-scale multicore platforms. A
:class:`FabricTopology` is the declarative answer: it names island
clusters (each with a local *aggregator* node), the link latencies
inside and between clusters, and any extra peer links (a gossip ring).
:class:`~repro.platform.mesh.CoordinationMesh` and
:class:`~repro.testbed.FabricTestbed` consume the spec to build K-island
platforms, and the directory layer
(:mod:`repro.platform.directory`) uses the same spec to decide where
discovery messages land — so changing the fabric shape is a one-line
edit to the topology, never a rewiring of the platform.

Three canonical shapes, one per coordination style:

* :meth:`FabricTopology.star` — every island in one cluster behind a
  single hub (the centralized baseline; message concentration O(K)).
* :meth:`FabricTopology.clustered` — islands chunked into clusters of
  ``fanout`` behind local aggregators, aggregators behind a root
  (hierarchical; concentration O(fanout)).
* :meth:`FabricTopology.ring` — every island its own cluster, linked in
  a cycle with no aggregation hierarchy (the gossip substrate;
  concentration O(1) per node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..sim import ms, us

#: Default one-way latency of an intra-cluster coordination link.
DEFAULT_LINK_LATENCY = us(150)


@dataclass(frozen=True)
class ClusterSpec:
    """One island cluster: a named group with a local aggregator node.

    The aggregator is the cluster's coordination locus — intra-cluster
    links star onto it, load reports coalesce at it, and the hierarchical
    directory keeps the cluster's ownership table there. Defaults to the
    first island in the cluster.
    """

    name: str
    islands: tuple[str, ...]
    aggregator: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "islands", tuple(self.islands))
        if not self.islands:
            raise ValueError(f"cluster {self.name!r} has no islands")
        if len(set(self.islands)) != len(self.islands):
            raise ValueError(f"cluster {self.name!r} repeats an island name")
        if self.aggregator is None:
            object.__setattr__(self, "aggregator", self.islands[0])
        elif self.aggregator not in self.islands:
            raise ValueError(
                f"aggregator {self.aggregator!r} is not in cluster {self.name!r}"
            )


@dataclass(frozen=True)
class FabricTopology:
    """A declarative K-island fabric: clusters, links and timing.

    ``connect_aggregators`` links every non-root aggregator to the root
    aggregator (the hierarchy's trunk); ring-style fabrics turn it off
    and wire ``extra_links`` instead.
    """

    clusters: tuple[ClusterSpec, ...]
    #: One-way latency of intra-cluster (member <-> aggregator) links and
    #: of ``extra_links``.
    link_latency: int = DEFAULT_LINK_LATENCY
    #: One-way latency of aggregator <-> root uplinks (defaults to twice
    #: the intra-cluster latency: uplinks cross the fabric spine).
    uplink_latency: Optional[int] = None
    #: Link every non-root aggregator to the root aggregator.
    connect_aggregators: bool = True
    #: Additional point-to-point links (e.g. the gossip ring's cycle).
    extra_links: tuple[tuple[str, str], ...] = ()
    #: Anti-entropy round period of a gossip directory over this fabric.
    gossip_period: int = ms(50)
    #: Upward load-report coalescing period of a hierarchical directory.
    aggregate_period: int = ms(100)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clusters", tuple(self.clusters))
        object.__setattr__(
            self, "extra_links", tuple(tuple(pair) for pair in self.extra_links)
        )
        if not self.clusters:
            raise ValueError("a fabric needs at least one cluster")
        names = [cluster.name for cluster in self.clusters]
        if len(set(names)) != len(names):
            raise ValueError("cluster names must be unique")
        islands: list[str] = []
        for cluster in self.clusters:
            islands.extend(cluster.islands)
        if len(set(islands)) != len(islands):
            raise ValueError("an island may belong to only one cluster")
        known = set(islands)
        for a, b in self.extra_links:
            if a == b:
                raise ValueError(f"extra link {a!r}<->{b!r} is a self-link")
            if a not in known or b not in known:
                raise ValueError(f"extra link {a!r}<->{b!r} names an unknown island")
        if self.link_latency < 0:
            raise ValueError("link_latency must be non-negative")
        if self.uplink_latency is not None and self.uplink_latency < 0:
            raise ValueError("uplink_latency must be non-negative")
        if self.gossip_period <= 0 or self.aggregate_period <= 0:
            raise ValueError("gossip_period and aggregate_period must be positive")

    # -- canonical shapes ---------------------------------------------------

    @classmethod
    def star(cls, islands, hub: Optional[str] = None, **kwargs) -> "FabricTopology":
        """One cluster, every island behind ``hub`` (centralized)."""
        islands = tuple(islands)
        if hub is not None and hub not in islands:
            raise ValueError(f"hub {hub!r} is not among the islands")
        return cls(
            clusters=(ClusterSpec("fabric", islands, aggregator=hub),), **kwargs
        )

    @classmethod
    def clustered(cls, islands, fanout: int = 8, **kwargs) -> "FabricTopology":
        """Chunk ``islands`` into clusters of ``fanout`` behind local
        aggregators; aggregators link to the first cluster's (the root)."""
        islands = tuple(islands)
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        clusters = tuple(
            ClusterSpec(f"cluster-{i // fanout}", islands[i:i + fanout])
            for i in range(0, len(islands), fanout)
        )
        return cls(clusters=clusters, **kwargs)

    @classmethod
    def ring(cls, islands, **kwargs) -> "FabricTopology":
        """Every island its own cluster, linked in a cycle — the flat
        peer-to-peer substrate a gossip directory disseminates over."""
        islands = tuple(islands)
        if len(islands) < 2:
            raise ValueError("a ring needs at least two islands")
        clusters = tuple(ClusterSpec(name, (name,)) for name in islands)
        links = tuple(
            (islands[i], islands[(i + 1) % len(islands)])
            for i in range(len(islands))
            if len(islands) > 2 or i == 0  # a 2-ring is a single link
        )
        return cls(
            clusters=clusters, connect_aggregators=False, extra_links=links, **kwargs
        )

    # -- lookups ------------------------------------------------------------

    @property
    def islands(self) -> tuple[str, ...]:
        """Every island name, in cluster order."""
        return tuple(
            name for cluster in self.clusters for name in cluster.islands
        )

    @property
    def aggregators(self) -> tuple[str, ...]:
        """Every cluster's aggregator, in cluster order."""
        return tuple(cluster.aggregator for cluster in self.clusters)

    @property
    def root(self) -> str:
        """The fabric root: the first cluster's aggregator."""
        return self.clusters[0].aggregator

    @property
    def effective_uplink_latency(self) -> int:
        """The aggregator <-> root latency actually wired."""
        if self.uplink_latency is not None:
            return self.uplink_latency
        return 2 * self.link_latency

    def cluster_of(self, island: str) -> ClusterSpec:
        """The cluster ``island`` belongs to; KeyError if unknown."""
        for cluster in self.clusters:
            if island in cluster.islands:
                return cluster
        raise KeyError(f"no cluster contains island {island!r}")

    def cluster_named(self, name: str) -> ClusterSpec:
        """The cluster called ``name``; KeyError if unknown."""
        for cluster in self.clusters:
            if cluster.name == name:
                return cluster
        raise KeyError(f"no cluster named {name!r}")

    def aggregator_of(self, island: str) -> str:
        """The aggregator responsible for ``island``."""
        return self.cluster_of(island).aggregator

    def links(self) -> list[tuple[str, str, int]]:
        """Every physical link as ``(a, b, one_way_latency)``, deduplicated:
        intra-cluster stars onto aggregators, aggregator -> root uplinks
        (when ``connect_aggregators``), and the extra peer links."""
        seen: set[frozenset] = set()
        links: list[tuple[str, str, int]] = []

        def add(a: str, b: str, latency: int) -> None:
            key = frozenset((a, b))
            if a != b and key not in seen:
                seen.add(key)
                links.append((a, b, latency))

        for cluster in self.clusters:
            for name in cluster.islands:
                add(cluster.aggregator, name, self.link_latency)
        if self.connect_aggregators:
            for cluster in self.clusters:
                add(self.root, cluster.aggregator, self.effective_uplink_latency)
        for a, b in self.extra_links:
            add(a, b, self.link_latency)
        return links

    # -- shard planning -----------------------------------------------------

    def cross_cluster_links(self) -> list[tuple[str, str, int]]:
        """The links whose endpoints live in *different* clusters.

        These are the only links a cluster-respecting shard cut can ever
        sever, so their minimum latency bounds how far one shard's clock
        may safely run ahead of another's (the conservative lookahead).
        """
        return [
            (a, b, latency)
            for a, b, latency in self.links()
            if self.cluster_of(a).name != self.cluster_of(b).name
        ]

    def min_cross_cluster_latency(self) -> Optional[int]:
        """The conservative synchronization lookahead this fabric offers:
        the minimum one-way latency of any cross-cluster link. A message
        sent in the window ``[T, T+L)`` cannot arrive before ``T+L``, so
        shards advancing in lockstep windows of this width never receive
        a message from their past. None for single-cluster fabrics (no
        cross-cluster link to bound anything)."""
        latencies = [latency for _a, _b, latency in self.cross_cluster_links()]
        return min(latencies) if latencies else None

    def partition(self, shards: int) -> tuple[tuple[str, ...], ...]:
        """Partition the clusters into ``shards`` contiguous groups of
        near-equal island count — the shard boundaries of the sharded
        execution mode.

        Clusters are never split (a cluster's islands coordinate through
        local state, so a cut inside one would need zero-latency
        synchronization); the cut always falls *between* clusters, where
        the declared link latencies provide lookahead. Assignment is
        greedy in declaration order: each cluster joins the current group
        until that group's island count reaches its fair share. The
        result depends only on the topology and ``shards`` — never on
        worker count or process placement.
        """
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if shards > len(self.clusters):
            raise ValueError(
                f"cannot cut {len(self.clusters)} cluster(s) into {shards} "
                "shards; cluster boundaries are the only legal cut points"
            )
        total = len(self)
        groups: list[list[str]] = [[]]
        filled = 0
        for index, cluster in enumerate(self.clusters):
            remaining_clusters = len(self.clusters) - index
            remaining_groups = shards - len(groups) + 1
            group_size = sum(
                len(c.islands) for c in self.clusters
                if c.name in groups[-1]
            )
            # Close the group once it has its fair share of the islands
            # still unassigned — but never so late that the remaining
            # clusters cannot populate the remaining groups.
            fair = (total - filled + remaining_groups - 1) // remaining_groups
            must_close = remaining_clusters == remaining_groups - 1
            if groups[-1] and (group_size >= fair or must_close):
                filled += group_size
                groups.append([])
            groups[-1].append(cluster.name)
        return tuple(tuple(group) for group in groups)

    def next_hop(self, frm: str, to: str) -> Optional[str]:
        """The neighbour ``frm`` should relay through to reach ``to``.

        Direct links win; otherwise the hierarchy is walked (member ->
        aggregator -> root -> aggregator -> member). Fabrics without an
        aggregation trunk (rings) route around the cycle when one exists.
        Returns None when the topology offers no path.
        """
        if frm == to:
            return None
        directs = {frozenset((a, b)) for a, b, _latency in self.links()}
        if frozenset((frm, to)) in directs:
            return to
        if self.connect_aggregators:
            # Walk up toward the root, then down toward the target.
            own = self.aggregator_of(frm)
            if frm != own:
                return own
            if frm != self.root:
                return self.root
            target = self.aggregator_of(to)
            return target if target != frm else to
        cycle = self._ring_order()
        if cycle and frm in cycle and to in cycle:
            # Relay around the ring in whichever direction is shorter.
            size = len(cycle)
            i, j = cycle.index(frm), cycle.index(to)
            forward = (j - i) % size
            step = 1 if forward <= size - forward else -1
            return cycle[(i + step) % size]
        return None

    def _ring_order(self) -> list[str]:
        """The cycle order of ``extra_links`` when they form one ring."""
        neighbors: dict[str, list[str]] = {}
        for a, b in self.extra_links:
            neighbors.setdefault(a, []).append(b)
            neighbors.setdefault(b, []).append(a)
        if len(self.extra_links) == 1 and len(neighbors) == 2:
            return list(neighbors)  # a 2-ring collapses to one link
        if not neighbors or any(len(adj) != 2 for adj in neighbors.values()):
            return []
        start = next(iter(neighbors))
        order = [start]
        previous, current = None, start
        while True:
            options = [n for n in neighbors[current] if n != previous]
            if not options:
                return []
            previous, current = current, options[0]
            if current == start:
                break
            order.append(current)
        return order if len(order) == len(neighbors) else []

    def __len__(self) -> int:
        return sum(len(cluster.islands) for cluster in self.clusters)
