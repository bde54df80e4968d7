"""The directory layer: pluggable entity-ownership registries.

The paper's prototype registers every island with one global controller
(§2.3) — fine for two islands, a scaling wall for hundreds. This module
extracts the controller's one duty, resolving which island owns which
entity, behind a :class:`Directory` contract with three interchangeable
implementations:

* :class:`CentralDirectory` — today's behaviour and the audit baseline:
  one authoritative table, every discovery message lands on the hub
  (O(K) concentration). The two-island prototype's global controller
  is one of these.
* :class:`HierarchicalDirectory` — island clusters with local aggregator
  nodes (shape declared by a :class:`~repro.platform.fabric.
  FabricTopology`): cluster-local ownership tables at aggregators, a
  root table mapping entities to clusters, and load reports coalesced
  upward once per aggregation period. Concentration O(fanout).
* :class:`GossipDirectory` — no rendezvous point at all: every node
  holds a *view* of entity-ownership records, and an anti-entropy round
  (a deterministic :class:`~repro.sim.PeriodicTask`) push-pull merges
  views pairwise. Records carry ``(epoch, version)`` stamps, so a node
  that rejoins after a partition reconciles instead of resurrecting
  stale ownership. Concentration O(1) per node per round.

Directories spread ownership only: the platform reads node liveness
from the :class:`~repro.faults.FailureDetector`.

All three keep *message accounting* per node (:meth:`DirectoryBase.
message_counts`): the fabric experiment's concentration measurements
read straight out of the directory, no tracing required. Ownership moves
(an entity re-registering from a different island) are counted and
traced (``entity-moved``) instead of silently overwritten — the fabric
era's handoffs are observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, runtime_checkable

from ..sim import PeriodicTask, RandomStreams, Simulator, Tracer, ms
from .fabric import FabricTopology
from .identity import EntityId
from .island import Island


class UnknownEntityError(KeyError):
    """Raised when a coordination message names an unregistered entity."""


@runtime_checkable
class Directory(Protocol):
    """What a control-plane directory must provide.

    Structural contract implemented by :class:`CentralDirectory`,
    :class:`HierarchicalDirectory` and :class:`GossipDirectory`:
    island registration, entity ownership and discovery, and per-node
    message accounting. Anything consuming "the controller" — testbeds,
    meshes, agents — should require no more than this. Telemetry is read
    from the component that produces it, not through the directory.
    """

    def register_island(self, island: Island) -> None: ...

    def note_entity(self, island: Island, entity_id: EntityId) -> None: ...

    def owner_of(self, entity_id: EntityId) -> Island: ...

    def lookup(self, entity_id: EntityId, frm: Optional[str] = None) -> Optional[str]: ...

    def known_entities(self) -> list[EntityId]: ...

    def island(self, name: str) -> Island: ...

    def islands(self) -> Iterable[Island]: ...

    def message_counts(self) -> dict[str, int]: ...


@dataclass(frozen=True, slots=True)
class OwnershipRecord:
    """One versioned entity-ownership fact, as gossip disseminates it.

    ``(epoch, version)`` orders records: the epoch bumps when the entity
    moves to another island, the version on every re-registration.
    Higher tuples win reconciliation.
    """

    entity: EntityId
    owner: str
    epoch: int
    version: int
    stamped_at: int

    @property
    def stamp(self) -> tuple[int, int]:
        return (self.epoch, self.version)


class DirectoryBase:
    """Shared machinery of every directory implementation.

    Holds the island registry (identical across fabrics), per-node
    message accounting, partition bookkeeping (:meth:`isolate` /
    :meth:`heal`), discovery instrumentation and the entity-moved audit.
    Ownership storage and resolution are the strategy subclasses vary.
    """

    #: Whether registrations from an isolated island defer until heal
    #: (true for fabrics with a rendezvous point the registration RPC
    #: cannot reach; gossip overrides — an isolated node still records
    #: facts in its own view and spreads them after the heal).
    _defers_when_isolated = True

    def __init__(self, sim: Simulator, tracer: Optional[Tracer] = None):
        self.sim = sim
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._islands: dict[str, Island] = {}
        #: Entities that re-registered from a different island — counted
        #: and traced (``entity-moved``), never silently overwritten.
        self.entity_moves = 0
        self._node_messages: dict[str, int] = {}
        self._isolated: set[str] = set()
        self._pending_registrations: list[tuple[str, EntityId]] = []
        self._registered_at: dict[EntityId, int] = {}
        self._visible_at: dict[EntityId, int] = {}

    # -- island registration ----------------------------------------------

    def register_island(self, island: Island) -> None:
        """Admit an island (and any entities it already knows about)."""
        if island.name in self._islands:
            raise ValueError(f"island {island.name!r} already registered")
        self._islands[island.name] = island
        self._admit_island(island)
        island.attach_controller(self)
        for entity_id in island.knobs.entities():
            self.note_entity(island, entity_id)
        self.tracer.emit("controller", "island-registered", island=island.name)

    def note_entity(self, island: Island, entity_id: EntityId) -> None:
        """Record that ``entity_id`` lives on ``island``.

        A re-registration from a *different* island is an ownership
        handoff: it is applied (latest registration wins, as before) but
        now counted in :attr:`entity_moves` and traced as
        ``entity-moved`` so fabric-era migrations are observable.
        Registrations from an isolated island defer until :meth:`heal`
        (except under gossip — see the class docstring).
        """
        if self._defers_when_isolated and island.name in self._isolated:
            self._pending_registrations.append((island.name, entity_id))
            self.tracer.emit(
                "controller", "entity-deferred", island=island.name,
                entity=str(entity_id),
            )
            return
        self._admit_entity(island.name, entity_id)

    def _admit_entity(self, island_name: str, entity_id: EntityId) -> None:
        previous = self.owner_name(entity_id)
        moved = previous is not None and previous != island_name
        if moved:
            self.entity_moves += 1
            self.tracer.emit(
                "controller", "entity-moved", entity=str(entity_id),
                frm=previous, to=island_name,
            )
        self._registered_at[entity_id] = self.sim.now
        self._record_owner(island_name, entity_id, moved=moved)
        self.tracer.emit(
            "controller", "entity-registered", island=island_name,
            entity=str(entity_id),
        )

    # -- ownership strategy (subclass responsibility) ----------------------

    def _admit_island(self, island: Island) -> None:
        """Hook: per-implementation island bookkeeping (default none)."""

    def _record_owner(self, island_name: str, entity_id: EntityId, moved: bool) -> None:
        raise NotImplementedError

    def owner_name(self, entity_id: EntityId) -> Optional[str]:
        """The authoritative owning island's name, or None if unknown.

        Free of message accounting: this is the oracle view used by
        audits and by :meth:`note_entity`'s move detection, not the
        distributed read path (:meth:`lookup`).
        """
        raise NotImplementedError

    def lookup(self, entity_id: EntityId, frm: Optional[str] = None) -> Optional[str]:
        """Resolve ``entity_id`` to an owning island name from node
        ``frm``'s vantage point, accounting the discovery messages the
        resolution costs. None when (locally) unknown."""
        raise NotImplementedError

    # -- lookups ------------------------------------------------------------

    def owner_of(self, entity_id: EntityId) -> Island:
        """The island that owns ``entity_id``."""
        island_name = self.owner_name(entity_id)
        if island_name is None:
            raise UnknownEntityError(f"no island has registered entity {entity_id}")
        return self._islands[island_name]

    def island(self, name: str) -> Island:
        """The island registered under ``name``; KeyError if unknown."""
        return self._islands[name]

    def islands(self) -> Iterable[Island]:
        """All registered islands, in registration order."""
        return list(self._islands.values())

    def known_entities(self) -> list[EntityId]:
        """Every entity registered platform-wide."""
        return list(self._registered_at)

    # -- partitions ----------------------------------------------------------

    def isolate(self, island_name: str) -> None:
        """Partition ``island_name`` away from the discovery plane."""
        if island_name not in self._isolated:
            self._isolated.add(island_name)
            self.tracer.emit("controller", "node-isolated", island=island_name)

    def heal(self, island_name: str) -> None:
        """Heal the partition and flush the registrations it deferred
        (gossip defers none: its next rounds spread them)."""
        if island_name not in self._isolated:
            return
        self._isolated.discard(island_name)
        self.tracer.emit("controller", "node-healed", island=island_name)
        pending = [(name, e) for name, e in self._pending_registrations
                   if name == island_name]
        self._pending_registrations = [
            (name, e) for name, e in self._pending_registrations
            if name != island_name
        ]
        for name, entity_id in pending:
            self._admit_entity(name, entity_id)

    def isolated(self) -> frozenset:
        """Currently partitioned island names."""
        return frozenset(self._isolated)

    # -- discovery instrumentation -------------------------------------------

    def visible_at(self, entity_id: EntityId) -> Optional[int]:
        """Simulation time at which ``entity_id``'s latest registration
        became fabric-wide visible; None while still spreading."""
        return self._visible_at.get(entity_id)

    def discovery_latency(self, entity_id: EntityId) -> Optional[int]:
        """``visible_at - registered_at`` of the latest registration."""
        visible = self._visible_at.get(entity_id)
        registered = self._registered_at.get(entity_id)
        if visible is None or registered is None:
            return None
        return visible - registered

    # -- message accounting ---------------------------------------------------

    def _count(self, node: str, messages: int = 1) -> None:
        self._node_messages[node] = self._node_messages.get(node, 0) + messages

    def message_counts(self) -> dict[str, int]:
        """Discovery/control messages handled per node — the per-node
        concentration the fabric experiment measures (O(K) at a hub,
        O(fanout) at aggregators, O(1) per gossip peer)."""
        return dict(self._node_messages)

    def messages_at(self, node: str) -> int:
        """Messages this directory accounted to ``node``."""
        return self._node_messages.get(node, 0)

    def __repr__(self) -> str:
        return (
            f"<{self.__class__.__name__} islands={len(self._islands)} "
            f"entities={len(self._registered_at)}>"
        )


class CentralDirectory(DirectoryBase):
    """Registry of islands and entities behind one hub — the paper's
    global controller and the fabric experiment's audit baseline.

    "At system initialization time, all scheduling islands register with
    a global controller (i.e., the first privileged domain to boot up and
    have complete knowledge of the system platform, in our prototype ...
    part of Xen Dom0)" (§2.3). The controller makes no resource decisions
    itself; it only resolves which island owns which entity, so islands
    can address Tunes and Triggers to each other.

    Every registration and lookup is accounted to the hub (the first
    registered island, or an explicit ``hub``): the O(K) concentration a
    centralized control plane cannot escape. ``hop_latency`` models the
    one network hop a registration takes to reach the hub, reflected in
    :meth:`~DirectoryBase.visible_at` (zero by default, so the two-island
    prototype is bit-identical to the pre-directory controller).
    """

    def __init__(
        self,
        sim: Simulator,
        tracer: Optional[Tracer] = None,
        hub: Optional[str] = None,
        hop_latency: int = 0,
    ):
        super().__init__(sim, tracer=tracer)
        self._hub = hub
        self.hop_latency = hop_latency
        self._owner_of: dict[EntityId, str] = {}

    def _admit_island(self, island: Island) -> None:
        if self._hub is None:
            self._hub = island.name

    def _record_owner(self, island_name: str, entity_id: EntityId, moved: bool) -> None:
        self._owner_of[entity_id] = island_name
        if self._hub is not None:
            self._count(self._hub)
        self._visible_at[entity_id] = self.sim.now + self.hop_latency

    def owner_name(self, entity_id: EntityId) -> Optional[str]:
        return self._owner_of.get(entity_id)

    def lookup(self, entity_id: EntityId, frm: Optional[str] = None) -> Optional[str]:
        """One round-trip to the hub, wherever the query comes from."""
        if self._hub is not None:
            self._count(self._hub)
        return self._owner_of.get(entity_id)


class HierarchicalDirectory(DirectoryBase):
    """Cluster-local ownership tables at aggregators, entity->cluster at
    the root, load reports coalesced upward once per aggregation period.

    The topology's clusters decide where messages land: registrations
    and intra-cluster lookups cost the local aggregator one message,
    cross-cluster resolution adds one at the root and one at the target
    cluster's aggregator. Nothing ever concentrates more than
    O(cluster fanout) on a single node.

    Load reports are message accounting only: each island's manager acts
    on its own load, so the directory keeps what the reports cost, not
    what they carried. ``reports_received`` always equals
    ``reports_coalesced`` plus the reports still pending at the
    aggregators.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: FabricTopology,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(sim, tracer=tracer)
        self.topology = topology
        self._cluster_tables: dict[str, dict[EntityId, str]] = {
            cluster.name: {} for cluster in topology.clusters
        }
        self._root_table: dict[EntityId, str] = {}
        #: cluster -> raw reports its aggregator holds for the next summary.
        self._pending_reports: dict[str, int] = {}
        self.reports_received = 0
        self.reports_coalesced = 0
        self.summaries_sent = 0
        self._aggregate_task = PeriodicTask(
            sim, topology.aggregate_period, self._aggregate_tick,
            name="directory-aggregate",
        )

    def _cluster_name(self, island_name: str) -> str:
        return self.topology.cluster_of(island_name).name

    def _record_owner(self, island_name: str, entity_id: EntityId, moved: bool) -> None:
        cluster = self._cluster_name(island_name)
        if moved:
            # Scrub the old cluster's table: a move across clusters must
            # not leave a stale claim the old aggregator keeps serving.
            previous = self._root_table.get(entity_id)
            if previous is not None and previous != cluster:
                self._cluster_tables[previous].pop(entity_id, None)
        self._cluster_tables[cluster][entity_id] = island_name
        self._count(self.topology.aggregator_of(island_name))
        visible = self.sim.now + self.topology.link_latency
        if self._root_table.get(entity_id) != cluster:
            self._root_table[entity_id] = cluster
            self._count(self.topology.root)
            visible += self.topology.effective_uplink_latency
        self._visible_at[entity_id] = visible

    def owner_name(self, entity_id: EntityId) -> Optional[str]:
        cluster = self._root_table.get(entity_id)
        if cluster is None:
            return None
        return self._cluster_tables[cluster].get(entity_id)

    def lookup(self, entity_id: EntityId, frm: Optional[str] = None) -> Optional[str]:
        """Ask the local aggregator; escalate to the root (and the owning
        cluster's aggregator) only for cross-cluster entities."""
        origin = frm if frm is not None else self.topology.islands[0]
        aggregator = self.topology.aggregator_of(origin)
        self._count(aggregator)
        own_cluster = self._cluster_name(origin)
        owner = self._cluster_tables[own_cluster].get(entity_id)
        if owner is not None:
            return owner
        self._count(self.topology.root)
        cluster = self._root_table.get(entity_id)
        if cluster is None:
            return None
        owner = self._cluster_tables[cluster].get(entity_id)
        if cluster != own_cluster and owner is not None:
            self._count(self.topology.aggregator_of(owner))
        return owner

    # -- upward load coalescing ---------------------------------------------

    def report_load(self, island_name: str) -> None:
        """Accept one island's load report at its aggregator. Reports
        accumulate per cluster and coalesce into a single upward summary
        per aggregation period — each raw report costs its aggregator one
        message (O(fanout) concentration), but only the coalesced summary
        costs the root."""
        cluster = self._cluster_name(island_name)
        self._pending_reports[cluster] = self._pending_reports.get(cluster, 0) + 1
        self.reports_received += 1
        self._count(self.topology.aggregator_of(island_name))

    def _aggregate_tick(self) -> None:
        # One summary per cluster that heard from anyone this period.
        pending = self._pending_reports
        if pending:
            self.reports_coalesced += sum(pending.values())
            self.summaries_sent += len(pending)
            self._count(self.topology.root, len(pending))
            pending.clear()


class GossipDirectory(DirectoryBase):
    """Epidemic dissemination of entity ownership.

    Every node keeps a full *view* (entity -> :class:`OwnershipRecord`);
    an anti-entropy :class:`~repro.sim.PeriodicTask` has each live node
    push-pull merge with one deterministic random peer per round.
    Reconciliation is by ``(epoch, version)`` — higher wins — so
    discovery converges after partitions without a rendezvous point, and
    a rejoining node's pre-partition records lose to anything the fabric
    learned meanwhile.

    An isolated node skips rounds entirely (it can neither infect nor be
    infected) but keeps recording its own facts; after
    :meth:`~DirectoryBase.heal` the next rounds spread them.
    """

    _defers_when_isolated = False

    def __init__(
        self,
        sim: Simulator,
        tracer: Optional[Tracer] = None,
        period: Optional[int] = None,
        seed: int = 1,
    ):
        super().__init__(sim, tracer=tracer)
        self.period = period if period is not None else ms(50)
        self.rng = RandomStreams(seed).stream("gossip-directory")
        self._views: dict[str, dict[EntityId, OwnershipRecord]] = {}
        self._authoritative: dict[EntityId, OwnershipRecord] = {}
        #: Two counts of one relation, "node n's view holds entity e's
        #: authoritative record": per node and per entity. A node holding
        #: every authoritative record can accept no offer; an entity held
        #: by every node is fabric-wide visible.
        self._holding: dict[str, int] = {}
        self._reach: dict[EntityId, int] = {}
        #: The entities whose authoritative record some node still lacks
        #: (reach below the node count): the only records a merge can land.
        self._spreading: set[EntityId] = set()
        self.rounds = 0
        self.exchanges = 0
        self._gossip_task = PeriodicTask(
            sim, self.period, self._gossip_round, name="directory-gossip"
        )

    def _admit_island(self, island: Island) -> None:
        self._views[island.name] = {}
        self._holding[island.name] = 0
        # The newcomer holds no record yet, so none is fabric-wide visible
        # and every entity spreads again. The visible ones are exactly
        # those not spreading already, so re-adding them costs O(visible).
        self._spreading.update(self._visible_at)
        self._visible_at.clear()

    def _record_owner(self, island_name: str, entity_id: EntityId, moved: bool) -> None:
        previous = self._authoritative.get(entity_id)
        if previous is None:
            epoch, version = 0, 0
        elif moved:
            epoch, version = previous.epoch + 1, previous.version + 1
        else:
            epoch, version = previous.epoch, previous.version + 1
        record = OwnershipRecord(
            entity=entity_id, owner=island_name, epoch=epoch, version=version,
            stamped_at=self.sim.now,
        )
        self._authoritative[entity_id] = record
        if previous is not None:
            # The superseded record stops counting wherever it is held.
            for node, view in self._views.items():
                if view.get(entity_id) is previous:
                    self._holding[node] -= 1
        # The fact is born in the owner's own view and spreads from there.
        self._views[island_name][entity_id] = record
        self._holding[island_name] += 1
        self._reach[entity_id] = 1
        self._count(island_name)
        if len(self._views) == 1:
            self._visible_at[entity_id] = self.sim.now
        else:
            self._visible_at.pop(entity_id, None)
            self._spreading.add(entity_id)

    def owner_name(self, entity_id: EntityId) -> Optional[str]:
        record = self._authoritative.get(entity_id)
        return record.owner if record is not None else None

    def lookup(self, entity_id: EntityId, frm: Optional[str] = None) -> Optional[str]:
        """A purely local read of ``frm``'s view — one message at the
        reading node, nowhere else. May be stale or None before the
        epidemic reaches that node: that is the contract. ``frm=None``
        reads the first admitted node's view; an unregistered ``frm``
        raises KeyError."""
        if frm is None:
            if not self._views:
                return None
            frm = next(iter(self._views))
        view = self._views.get(frm)
        if view is None:
            raise KeyError(f"no node {frm!r} in the gossip directory")
        self._count(frm)
        record = view.get(entity_id)
        return record.owner if record is not None else None

    # -- the epidemic --------------------------------------------------------

    def _gossip_round(self) -> None:
        nodes = sorted(self._views)
        live = [node for node in nodes if node not in self._isolated]
        self.rounds += 1
        if len(live) < 2:
            return
        for index, node in enumerate(live):
            # A uniform draw over the other live nodes, skipping this one.
            pick = self.rng.randrange(len(live) - 1)
            self._exchange(node, live[pick + (pick >= index)])

    def _exchange(self, a: str, b: str) -> None:
        """Push-pull anti-entropy between two nodes: both end up with the
        union of their views, newer stamps winning. Costs two messages at
        each end (request + response)."""
        self.exchanges += 1
        self._count(a, 2)
        self._count(b, 2)
        self._merge_views(self._views[a], b)
        self._merge_views(self._views[b], a)

    def _merge_views(self, source: dict[EntityId, OwnershipRecord], node: str) -> None:
        """Offer ``source``'s records to ``node``.

        Every record is born in :meth:`_record_owner` with a stamp newer
        than any before it for its entity, so the authoritative record is
        the newest. Only a spreading entity's record can land: every other
        entity's authoritative record is held by every node, so sender and
        receiver hold the same object. While fewer entities spread than
        ``source`` holds, a lone differing record is offered alone, where
        order is moot. Otherwise ``source`` is scanned in order, so new
        keys enter the receiver's view, and ``discovery-converged`` traces
        fire, in the sender's order."""
        if self._holding[node] == len(self._authoritative):
            return
        view = self._views[node]
        if len(self._spreading) < len(source):
            landing = None
            for entity in self._spreading:
                record = source.get(entity)
                if record is not None and view.get(entity) is not record:
                    if landing is not None:
                        break  # two or more: the in-order scan below
                    landing = record
            else:
                if landing is not None:
                    self._offer(node, landing.entity, landing)
                return
        for entity, record in source.items():
            if view.get(entity) is not record:
                self._offer(node, entity, record)

    def _offer(self, node: str, entity: EntityId, record: OwnershipRecord) -> None:
        """The one place an offered record lands in a node's view."""
        view = self._views[node]
        existing = view.get(entity)
        if existing is not None and existing.stamp >= record.stamp:
            return
        view[entity] = record
        if record is self._authoritative[entity]:
            self._holding[node] += 1
            self._reach[entity] += 1
            if self._reach[entity] == len(self._views):
                self._spreading.discard(entity)
                self._visible_at[entity] = self.sim.now
                if self.tracer.wants("discovery-converged"):
                    self.tracer.emit(
                        "controller", "discovery-converged",
                        entity=str(entity),
                        latency=self.sim.now - self._registered_at[entity],
                    )

    # -- distributed introspection -------------------------------------------

    def view(self, node: str) -> dict[EntityId, str]:
        """Node-local ownership belief (entity -> island name)."""
        return {e: r.owner for e, r in self._views[node].items()}

    def is_converged(self) -> bool:
        """True when every node's view holds every authoritative record,
        including nodes admitted after a record was stamped."""
        return not self._spreading


#: Directory flavours :func:`build_directory` knows how to construct.
DIRECTORY_KINDS = ("central", "hierarchical", "gossip")


def build_directory(
    kind: str,
    sim: Simulator,
    *,
    topology: Optional[FabricTopology] = None,
    tracer: Optional[Tracer] = None,
    seed: int = 1,
) -> DirectoryBase:
    """Construct a directory by name — the one switch a testbed or
    experiment arm flips to change the control plane's shape."""
    if kind == "central":
        hub = topology.root if topology is not None else None
        hop = topology.link_latency if topology is not None else 0
        return CentralDirectory(sim, tracer=tracer, hub=hub, hop_latency=hop)
    if kind == "hierarchical":
        if topology is None:
            raise ValueError("a hierarchical directory needs a FabricTopology")
        return HierarchicalDirectory(sim, topology, tracer=tracer)
    if kind == "gossip":
        period = topology.gossip_period if topology is not None else None
        return GossipDirectory(sim, tracer=tracer, period=period, seed=seed)
    raise ValueError(f"unknown directory kind {kind!r}; expected one of {DIRECTORY_KINDS}")
