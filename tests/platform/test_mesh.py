"""Tests for the multi-island coordination mesh."""

import pytest

from repro.faults import ChannelBlackout, FaultConfig, FaultPlan, PEER_DOWN, PEER_UP
from repro.platform import EntityId, FabricTopology, build_directory
from repro.platform.mesh import CoordinationMesh
from repro.sim import Simulator, ms, us
from repro.x86 import X86Island, X86Params


def build_mesh(sim, count, latency=us(100)):
    mesh = CoordinationMesh(sim, latency=latency)
    islands = []
    for i in range(count):
        island = X86Island(sim, X86Params(num_cpus=1), name=f"cell-{i}")
        mesh.add_island(island, handler_vm=island.dom0)
        islands.append(island)
    return mesh, islands


def cells(count):
    return tuple(f"cell-{i}" for i in range(count))


def star(count):
    """Every cell linked to hub cell-0, at build_mesh's default latency."""
    return FabricTopology.star(cells(count), link_latency=us(100))


def ring(count):
    """Cells linked in a cycle, at build_mesh's default latency."""
    return FabricTopology.ring(cells(count), link_latency=us(100))


class TestTopology:
    def test_star_links_every_island_to_hub(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 4)
        mesh.apply_topology(star(4))
        assert sorted(mesh.neighbors("cell-0")) == ["cell-1", "cell-2", "cell-3"]
        assert mesh.neighbors("cell-2") == ["cell-0"]

    def test_ring_gives_each_two_neighbors(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 4)
        mesh.apply_topology(ring(4))
        for i in range(4):
            assert len(mesh.neighbors(f"cell-{i}")) == 2

    def test_two_island_ring_is_single_link(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 2)
        mesh.apply_topology(ring(2))
        assert mesh.neighbors("cell-0") == ["cell-1"]

    def test_ring_needs_two_islands(self):
        sim = Simulator()
        mesh, _ = build_mesh(sim, 1)
        with pytest.raises(ValueError):
            mesh.apply_topology(ring(1))

    def test_self_link_rejected(self):
        sim = Simulator()
        mesh, _ = build_mesh(sim, 2)
        with pytest.raises(ValueError):
            mesh.connect("cell-0", "cell-0")

    def test_duplicate_link_rejected(self):
        sim = Simulator()
        mesh, _ = build_mesh(sim, 2)
        mesh.connect("cell-0", "cell-1")
        with pytest.raises(ValueError):
            mesh.connect("cell-0", "cell-1")

    def test_duplicate_island_rejected(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 1)
        with pytest.raises(ValueError):
            mesh.add_island(islands[0])


class TestCrossIslandCoordination:
    def test_tune_travels_between_islands(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 3)
        mesh.apply_topology(star(3))
        target = islands[2].create_vm("victim")
        mesh.agent("cell-0", "cell-2").send_tune(EntityId("cell-2", "victim"), +64)
        sim.run(until=ms(50))
        assert target.weight == 320

    def test_trigger_travels_between_islands(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 2)
        mesh.apply_topology(ring(2))
        target = islands[1].create_vm("victim")
        mesh.agent("cell-0", "cell-1").send_trigger(EntityId("cell-1", "victim"))
        sim.run(until=ms(50))
        assert target.vcpus[0].boosted

    def test_links_are_independent(self):
        """A tune on one spoke is applied at that spoke only."""
        sim = Simulator()
        mesh, islands = build_mesh(sim, 3)
        mesh.apply_topology(star(3))
        vm1 = islands[1].create_vm("guest")
        vm2 = islands[2].create_vm("guest")
        mesh.agent("cell-0", "cell-1").send_tune(EntityId("cell-1", "guest"), +64)
        sim.run(until=ms(50))
        assert vm1.weight == 320
        assert vm2.weight == 256

    def test_messages_handled_accounting(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 2)
        mesh.apply_topology(ring(2))
        islands[1].create_vm("guest")
        for _ in range(3):
            mesh.agent("cell-0", "cell-1").send_tune(EntityId("cell-1", "guest"), +8)
        sim.run(until=ms(50))
        assert mesh.messages_handled_at("cell-1") == 3
        assert mesh.messages_handled_at("cell-0") == 0

    def test_handling_charged_to_cell_dom0(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 2)
        mesh.apply_topology(ring(2))
        islands[1].create_vm("guest")
        before = islands[1].dom0.cpu_time()
        mesh.agent("cell-0", "cell-1").send_tune(EntityId("cell-1", "guest"), +8)
        sim.run(until=ms(50))
        assert islands[1].dom0.cpu_time() > before


class TestTopologyWiring:
    def test_apply_topology_wires_declared_links(self):
        sim = Simulator()
        mesh, _ = build_mesh(sim, 4)
        topology = FabricTopology.ring(tuple(f"cell-{i}" for i in range(4)))
        mesh.apply_topology(topology)
        for i in range(4):
            assert len(mesh.neighbors(f"cell-{i}")) == 2

    def test_apply_topology_rejects_unknown_islands(self):
        sim = Simulator()
        mesh, _ = build_mesh(sim, 2)
        topology = FabricTopology.star(("cell-0", "cell-1", "cell-9"))
        with pytest.raises(ValueError, match="cell-9"):
            mesh.apply_topology(topology)

    def test_per_link_latency_from_spec(self):
        sim = Simulator()
        mesh, _ = build_mesh(sim, 4, latency=us(999))
        topology = FabricTopology.clustered(
            tuple(f"cell-{i}" for i in range(4)), fanout=2, link_latency=us(100)
        )
        mesh.apply_topology(topology)
        assert mesh.channel("cell-0", "cell-1").latency == us(100)
        assert mesh.channel("cell-0", "cell-2").latency == us(200)  # uplink

    def test_directory_forwarding_relays_to_owner(self):
        """A Tune dropped onto the wrong link finds its owner through the
        directory and the topology's next-hop routes."""
        sim = Simulator()
        mesh, islands = build_mesh(sim, 6)
        names = tuple(f"cell-{i}" for i in range(6))
        topology = FabricTopology.clustered(names, fanout=2)
        mesh.apply_topology(topology)
        directory = build_directory("central", sim, topology=topology)
        for island in islands:
            directory.register_island(island)
        mesh.attach_directory(directory)
        target = islands[5].create_vm("victim")
        # Send from a leaf in another cluster: cell-3 -> aggregator
        # cell-2 -> root cell-0 -> aggregator cell-4 -> owner cell-5.
        mesh.agent("cell-3", "cell-2").send_tune(EntityId("cell-5", "victim"), +64)
        sim.run(until=ms(50))
        assert target.weight == 320
        # Every relay on the path was accounted as handled work.
        for relay in ("cell-2", "cell-0", "cell-4"):
            assert mesh.messages_handled_at(relay) == 1
        assert mesh.agent("cell-2", "cell-3").forwarded_messages == 1

    def test_without_directory_unknown_entities_still_drop(self):
        sim = Simulator()
        mesh, islands = build_mesh(sim, 2)
        mesh.apply_topology(ring(2))
        mesh.agent("cell-0", "cell-1").send_tune(EntityId("cell-9", "ghost"), +8)
        sim.run(until=ms(50))
        assert mesh.agent("cell-1", "cell-0").unknown_entities == 1


class TestMeshFaultInjection:
    """Partition one mesh link; only that link's agents may degrade."""

    def build_ring(self, sim, count=4):
        mesh, islands = build_mesh(sim, count)
        mesh.apply_topology(ring(count))
        for island in islands:
            island.create_vm("guest")
        return mesh, islands

    def test_single_link_blackout_degrades_only_that_link(self):
        sim = Simulator()
        mesh, islands = self.build_ring(sim)
        mesh.arm_fault_domain(FaultConfig())
        plan = FaultPlan((ChannelBlackout(start=ms(100), duration=ms(600)),))
        mesh.inject_link_fault(plan, "cell-0", "cell-1")

        sim.run(until=ms(500))
        # Mid-blackout: both ends of the partitioned link hold their peer
        # DOWN and gate their policies...
        assert mesh.detector("cell-0", "cell-1").state == PEER_DOWN
        assert mesh.detector("cell-1", "cell-0").state == PEER_DOWN
        assert not mesh.agent("cell-0", "cell-1").peer_available
        # ... while every other link in the ring never left UP.
        for frm, to in (("cell-1", "cell-2"), ("cell-2", "cell-1"),
                        ("cell-2", "cell-3"), ("cell-3", "cell-2"),
                        ("cell-3", "cell-0"), ("cell-0", "cell-3")):
            detector = mesh.detector(frm, to)
            assert detector.state == PEER_UP
            assert [s for _, s, _ in detector.transitions] == [PEER_UP]

        # The rest of the mesh keeps coordinating through the blackout.
        victim = islands[3].vm("guest")
        mesh.agent("cell-2", "cell-3").send_tune(EntityId("cell-3", "guest"), +64)
        sim.run(until=ms(560))
        assert victim.weight == 320

        # After the blackout clears, the partitioned link recovers too.
        sim.run(until=ms(1200))
        assert mesh.detector("cell-0", "cell-1").state == PEER_UP
        assert mesh.agent("cell-0", "cell-1").peer_available

    def test_one_way_partition_uses_island_name_direction(self):
        sim = Simulator()
        mesh, islands = self.build_ring(sim)
        mesh.arm_fault_domain(FaultConfig())
        plan = FaultPlan((
            ChannelBlackout(start=ms(100), duration=ms(600), direction="cell-0"),
        ))
        mesh.inject_link_fault(plan, "cell-0", "cell-1")
        sim.run(until=ms(500))
        # cell-0's sends die on this link, so cell-1 stops hearing it...
        assert mesh.detector("cell-1", "cell-0").state == PEER_DOWN
        # ... but cell-1's raw heartbeats still arrive at cell-0.
        assert mesh.detector("cell-0", "cell-1").state == PEER_UP

    def test_dead_letters_count_what_a_blacked_out_link_dropped(self):
        """Mesh links never retransmit, so each message one drops is lost
        for good: three Tunes into a blackout are three dead letters."""
        sim = Simulator()
        mesh, islands = self.build_ring(sim, count=3)
        plan = FaultPlan((ChannelBlackout(start=ms(10), duration=ms(100)),))
        mesh.inject_link_fault(plan, "cell-0", "cell-1")
        sim.run(until=ms(20))
        for _ in range(3):
            mesh.agent("cell-0", "cell-1").send_tune(EntityId("cell-1", "guest"), +8)
        sim.run(until=ms(50))
        stats = mesh.channel("cell-0", "cell-1").stats()
        assert stats["dropped"] == stats["blacked_out"] == 3
        assert mesh.dead_letters() == 3
        assert islands[1].vm("guest").weight == 256

    def test_blackout_direction_validated_against_link_endpoints(self):
        sim = Simulator()
        mesh, _ = self.build_ring(sim)
        plan = FaultPlan((
            ChannelBlackout(start=ms(100), duration=ms(100), direction="cell-2"),
        ))
        with pytest.raises(ValueError, match="neither endpoint"):
            mesh.inject_link_fault(plan, "cell-0", "cell-1")
