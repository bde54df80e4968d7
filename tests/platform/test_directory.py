"""The Directory contract: one suite, three control planes.

Every test in ``TestDirectoryContract`` runs against all three
implementations — the fabric refactor's core promise is that central,
hierarchical and gossip directories are interchangeable behind the
:class:`repro.platform.Directory` protocol. Implementation-specific
behaviour (hub concentration, upward coalescing, epidemic convergence)
gets its own classes below.
"""

import pytest

from repro.platform import (
    CentralDirectory,
    Directory,
    EntityId,
    FabricTopology,
    GossipDirectory,
    HierarchicalDirectory,
    UnknownEntityError,
    build_directory,
)
from repro.sim import Simulator, Tracer, ms, seconds
from repro.x86 import X86Island, X86Params

KINDS = ("central", "hierarchical", "gossip")


def build(kind, sim, names=("isle-0", "isle-1", "isle-2", "isle-3"),
          tracer=None):
    """A directory of ``kind`` over a 2-island-per-cluster topology, with
    one registered x86 island per name."""
    topology = FabricTopology.clustered(names, fanout=2)
    directory = build_directory(kind, sim, topology=topology, tracer=tracer)
    islands = {}
    for name in names:
        island = X86Island(sim, X86Params(num_cpus=1), name=name)
        directory.register_island(island)
        islands[name] = island
    return directory, islands


def settle(sim, directory):
    """Give an epidemic directory time to converge (no-op for the others)."""
    if isinstance(directory, GossipDirectory):
        sim.run(until=sim.now + seconds(1))


@pytest.mark.parametrize("kind", KINDS)
class TestDirectoryContract:
    def test_satisfies_protocol(self, kind):
        directory, _ = build(kind, Simulator())
        assert isinstance(directory, Directory)

    def test_duplicate_island_rejected(self, kind):
        sim = Simulator()
        directory, islands = build(kind, sim)
        with pytest.raises(ValueError):
            directory.register_island(islands["isle-0"])

    def test_entity_registration_resolves_owner(self, kind):
        sim = Simulator()
        directory, islands = build(kind, sim)
        vm = islands["isle-2"].create_vm("guest")
        assert vm is not None
        entity = EntityId("isle-2", "guest")
        assert directory.owner_of(entity) is islands["isle-2"]
        assert entity in directory.known_entities()

    def test_unknown_entity_raises(self, kind):
        directory, _ = build(kind, Simulator())
        with pytest.raises(UnknownEntityError):
            directory.owner_of(EntityId("isle-0", "ghost"))

    def test_lookup_resolves_after_settling(self, kind):
        sim = Simulator()
        directory, islands = build(kind, sim)
        islands["isle-1"].create_vm("guest")
        settle(sim, directory)
        assert directory.lookup(EntityId("isle-1", "guest"), frm="isle-3") == "isle-1"
        assert directory.lookup(EntityId("isle-1", "nope"), frm="isle-3") is None

    def test_islands_accessors(self, kind):
        directory, islands = build(kind, Simulator())
        assert directory.island("isle-1") is islands["isle-1"]
        assert [i.name for i in directory.islands()] == sorted(islands)

    def test_entity_move_counted_and_traced(self, kind):
        sim = Simulator()
        tracer = Tracer(sim, enabled=True)
        records = []
        tracer.subscribe(records.append, kinds=("entity-moved",))
        directory, islands = build(kind, sim, tracer=tracer)
        entity = EntityId("svc", "db")
        directory.note_entity(islands["isle-0"], entity)
        assert directory.entity_moves == 0
        directory.note_entity(islands["isle-3"], entity)
        assert directory.entity_moves == 1
        assert directory.owner_of(entity) is islands["isle-3"]
        (record,) = records
        assert record.payload["frm"] == "isle-0"
        assert record.payload["to"] == "isle-3"

    def test_same_island_reregistration_is_not_a_move(self, kind):
        sim = Simulator()
        directory, islands = build(kind, sim)
        entity = EntityId("svc", "db")
        directory.note_entity(islands["isle-0"], entity)
        directory.note_entity(islands["isle-0"], entity)
        assert directory.entity_moves == 0

    def test_registration_counts_messages(self, kind):
        sim = Simulator()
        directory, islands = build(kind, sim)
        islands["isle-0"].create_vm("guest")
        counts = directory.message_counts()
        assert counts and sum(counts.values()) > 0

    def test_partitioned_registration_resolves_after_heal(self, kind):
        sim = Simulator()
        directory, islands = build(kind, sim)
        directory.isolate("isle-3")
        assert "isle-3" in directory.isolated()
        islands["isle-3"].create_vm("late")
        entity = EntityId("isle-3", "late")
        # While partitioned, the fabric at large cannot resolve the
        # entity from another island's vantage point.
        assert directory.lookup(entity, frm="isle-0") is None
        directory.heal("isle-3")
        settle(sim, directory)
        assert directory.owner_of(entity) is islands["isle-3"]
        assert directory.lookup(entity, frm="isle-0") == "isle-3"
        assert directory.visible_at(entity) is not None
        assert directory.discovery_latency(entity) >= 0


class TestBuildDirectory:
    def test_kinds(self):
        sim = Simulator()
        names = ("a", "b")
        topology = FabricTopology.clustered(names, fanout=2)
        assert isinstance(build_directory("central", sim, topology=topology),
                          CentralDirectory)
        assert isinstance(build_directory("hierarchical", sim, topology=topology),
                          HierarchicalDirectory)
        assert isinstance(build_directory("gossip", sim, topology=topology),
                          GossipDirectory)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown directory kind"):
            build_directory("quantum", Simulator())

    def test_hierarchical_needs_topology(self):
        with pytest.raises(ValueError, match="FabricTopology"):
            build_directory("hierarchical", Simulator())


class TestCentralDirectory:
    def test_all_messages_land_on_hub(self):
        sim = Simulator()
        directory, islands = build("central", sim)
        hub = "isle-0"
        for name in islands:
            islands[name].create_vm("guest")
        before = directory.messages_at(hub)
        directory.lookup(EntityId("isle-2", "guest"), frm="isle-3")
        counts = directory.message_counts()
        # Registrations from every island and lookups from every vantage
        # point all cost the hub — and nobody else — a message.
        assert set(counts) == {hub}
        assert counts[hub] == before + 1


class TestHierarchicalDirectory:
    def test_reports_coalesce_upward(self):
        sim = Simulator()
        topology = FabricTopology.clustered(
            ("a", "b", "c", "d"), fanout=2, aggregate_period=ms(100)
        )
        directory = HierarchicalDirectory(sim, topology)
        for name in topology.islands:
            directory.register_island(X86Island(sim, X86Params(num_cpus=1), name=name))
        for name in ("a", "b", "c", "d"):
            directory.report_load(name)
        sim.run(until=ms(150))
        # Four raw reports became one summary per cluster at the root.
        assert directory.reports_received == 4
        assert directory.reports_coalesced == 4
        assert directory.summaries_sent == 2

    def test_repeated_reports_in_one_period_all_coalesce(self):
        """Two reports from one island inside one aggregation period are
        two reports: the ledger ``received == coalesced + pending`` holds."""
        sim = Simulator()
        topology = FabricTopology.clustered(
            ("a", "b", "c", "d"), fanout=2, aggregate_period=ms(100)
        )
        directory = HierarchicalDirectory(sim, topology)
        for name in topology.islands:
            directory.register_island(X86Island(sim, X86Params(num_cpus=1), name=name))
        for name in ("a", "a", "b"):
            directory.report_load(name)
        sim.run(until=ms(150))
        assert directory.reports_received == 3
        assert directory.reports_coalesced == 3
        assert directory.summaries_sent == 1

    def test_intra_cluster_lookup_never_reaches_root(self):
        sim = Simulator()
        directory, islands = build("hierarchical", sim)
        islands["isle-3"].create_vm("guest")
        root_before = directory.messages_at(directory.topology.root)
        directory.lookup(EntityId("isle-3", "guest"), frm="isle-2")
        assert directory.messages_at(directory.topology.root) == root_before

    def test_cross_cluster_lookup_walks_the_hierarchy(self):
        sim = Simulator()
        names = tuple(f"isle-{i}" for i in range(6))
        directory, islands = build("hierarchical", sim, names=names)
        islands["isle-5"].create_vm("guest")
        # Origin cluster (isle-2/isle-3), root (isle-0) and target
        # aggregator (isle-4) are three distinct nodes here: the lookup
        # costs exactly one message at each.
        before = {n: directory.messages_at(n) for n in names}
        owner = directory.lookup(EntityId("isle-5", "guest"), frm="isle-3")
        assert owner == "isle-5"
        deltas = {n: directory.messages_at(n) - before[n] for n in names}
        assert deltas == {"isle-0": 1, "isle-1": 0, "isle-2": 1,
                          "isle-3": 0, "isle-4": 1, "isle-5": 0}

    def test_cross_cluster_move_scrubs_old_table(self):
        sim = Simulator()
        directory, islands = build("hierarchical", sim)
        entity = EntityId("svc", "db")
        directory.note_entity(islands["isle-0"], entity)
        directory.note_entity(islands["isle-3"], entity)  # other cluster
        assert directory.owner_name(entity) == "isle-3"
        # The old cluster's aggregator no longer claims the entity: a
        # lookup from the old cluster escalates instead of serving stale.
        assert directory.lookup(entity, frm="isle-0") == "isle-3"


class TestGossipDirectory:
    def test_views_converge_epidemically(self):
        sim = Simulator()
        directory, islands = build("gossip", sim)
        islands["isle-0"].create_vm("guest")
        entity = EntityId("isle-0", "guest")
        # Born in the owner's view only; distant nodes cannot resolve yet.
        assert directory.lookup(entity, frm="isle-3") is None
        assert not directory.is_converged()
        sim.run(until=seconds(1))
        assert directory.is_converged()
        assert directory.lookup(entity, frm="isle-3") == "isle-0"
        assert directory.view("isle-3")[entity] == "isle-0"

    def test_ownership_move_bumps_epoch_and_wins_reconciliation(self):
        sim = Simulator()
        directory, islands = build("gossip", sim)
        entity = EntityId("svc", "db")
        directory.note_entity(islands["isle-0"], entity)
        sim.run(until=seconds(1))
        directory.note_entity(islands["isle-3"], entity)
        record = directory._authoritative[entity]
        assert record.epoch == 1
        sim.run(until=sim.now + seconds(1))
        # Every node's view reconciled to the mover, old records lost.
        for name in islands:
            assert directory.view(name)[entity] == "isle-3"

    def test_isolated_node_neither_infects_nor_learns(self):
        sim = Simulator()
        directory, islands = build("gossip", sim)
        directory.isolate("isle-3")
        islands["isle-0"].create_vm("guest")
        entity = EntityId("isle-0", "guest")
        sim.run(until=seconds(1))
        # The fabric converged around the hole, but not into it.
        assert directory.lookup(entity, frm="isle-2") == "isle-0"
        assert directory.lookup(entity, frm="isle-3") is None
        assert not directory.is_converged()
        directory.heal("isle-3")
        sim.run(until=sim.now + seconds(1))
        assert directory.lookup(entity, frm="isle-3") == "isle-0"
        assert directory.is_converged()

    def test_gossip_messages_are_flat_per_node(self):
        sim = Simulator()
        directory, islands = build("gossip", sim)
        islands["isle-0"].create_vm("guest")
        sim.run(until=seconds(1))
        counts = directory.message_counts()
        # Push-pull rounds cost every node a bounded number of messages
        # per round — nobody concentrates the fabric's traffic.
        assert max(counts.values()) <= 3 * min(counts.values()) + 10

    def test_late_admission_reopens_convergence(self):
        sim = Simulator()
        directory = GossipDirectory(sim)
        first = X86Island(sim, X86Params(num_cpus=1), name="isle-0")
        directory.register_island(first)
        svc = EntityId("isle-0", "svc")
        directory.note_entity(first, svc)
        # Alone in the fabric, the owner's own view is the whole fabric.
        assert directory.visible_at(svc) == 0
        assert directory.is_converged()
        directory.register_island(X86Island(sim, X86Params(num_cpus=1), name="isle-1"))
        # The newcomer cannot resolve svc yet, so svc is not visible; nor
        # is the dvfs entity every x86 island registers on admission.
        assert directory.lookup(svc, frm="isle-1") is None
        assert directory.visible_at(svc) is None
        assert directory.discovery_latency(EntityId("isle-0", "dvfs")) is None
        assert not directory.is_converged()
        sim.run(until=seconds(1))
        assert directory.lookup(svc, frm="isle-1") == "isle-0"
        assert directory.is_converged()
        assert directory.discovery_latency(svc) > 0
        assert directory.discovery_latency(EntityId("isle-0", "dvfs")) > 0

    def test_converged_exchange_examines_no_ownership_record(self):
        sim = Simulator()
        names = tuple(f"isle-{i}" for i in range(16))
        directory, _ = build("gossip", sim, names=names)
        sim.run(until=seconds(1))
        assert directory.is_converged()
        offers = []
        offer = directory._offer

        def counting_offer(*args):
            offers.append(args)
            offer(*args)

        directory._offer = counting_offer
        exchanges = directory.exchanges
        directory._gossip_round()
        # A full-scan exchange offers each of the 16 dvfs records in both
        # directions of all 16 exchanges: 512 offers that change nothing.
        assert directory.exchanges == exchanges + 16
        assert len(offers) == 0

    def test_spreading_round_looks_up_only_spreading_records(self):
        sim = Simulator()
        names = tuple(f"isle-{i}" for i in range(16))
        directory, islands = build("gossip", sim, names=names)
        for island in islands.values():
            for index in range(4):
                island.create_vm(f"vm-{index}")
        sim.run(until=seconds(1))
        assert directory.is_converged()
        islands["isle-0"].create_vm("fresh")
        fresh = EntityId("isle-0", "fresh")
        assert len(directory.known_entities()) == 81
        lookups = []

        class CountingView(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        for node, view in directory._views.items():
            directory._views[node] = CountingView(view)
        directory._gossip_round()
        # Every other entity's record is held everywhere, so only the
        # fresh one can land: a full scan would look up all 81 entities.
        assert lookups
        assert set(lookups) == {fresh}

    def test_lookup_from_unregistered_node_raises(self):
        sim = Simulator()
        directory, islands = build("gossip", sim)
        islands["isle-0"].create_vm("guest")
        entity = EntityId("isle-0", "guest")
        counts = directory.message_counts()
        with pytest.raises(KeyError, match="isle-9"):
            directory.lookup(entity, frm="isle-9")
        # No node handled the read, so none is charged for it.
        assert directory.message_counts() == counts
        # frm=None still reads the first admitted node's view.
        assert directory.lookup(entity) == "isle-0"
        assert directory.messages_at("isle-0") == counts["isle-0"] + 1
