"""Tests for entity identity, the island interface and the controller."""

import pytest

from repro.platform import (
    CentralDirectory,
    EntityId,
    Island,
    Knob,
    UnknownEntityError,
    flow_id,
)
from repro.sim import Simulator


def knob():
    """A stand-in knob: these tests register entities, never actuate them."""
    return Knob(kind="weight", unit="share", read=lambda: 1, apply=lambda value: value)


class RecordingIsland(Island):
    """Minimal island that records the coordination calls it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.tunes = []
        self.triggers = []

    def apply_tune(self, entity_id, delta):
        self.tunes.append((entity_id, delta))

    def apply_trigger(self, entity_id):
        self.triggers.append(entity_id)


class TestEntityId:
    def test_equality_and_hash(self):
        assert EntityId("x86", "vm1") == EntityId("x86", "vm1")
        assert EntityId("x86", "vm1") != EntityId("ixp", "vm1")
        assert len({EntityId("a", "b"), EntityId("a", "b")}) == 1

    def test_str(self):
        assert str(EntityId("x86", "web")) == "x86/web"

    def test_helpers(self):
        assert flow_id("q1") == EntityId("ixp", "q1")


class TestIsland:
    def test_register_and_lookup_entity(self):
        sim = Simulator()
        island = RecordingIsland(sim, "test")
        thing = knob()
        island.register_entity(EntityId("test", "thing"), thing)
        assert island.knobs.get(EntityId("test", "thing")) is thing
        assert island.has_entity(EntityId("test", "thing"))
        assert not island.has_entity(EntityId("test", "other"))

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        island = RecordingIsland(sim, "test")
        island.register_entity(EntityId("test", "thing"), knob())
        with pytest.raises(ValueError):
            island.register_entity(EntityId("test", "thing"), knob())

    def test_entities_returns_copy(self):
        sim = Simulator()
        island = RecordingIsland(sim, "test")
        island.register_entity(EntityId("test", "a"), knob())
        snapshot = island.knobs.entities()
        snapshot.clear()
        assert island.has_entity(EntityId("test", "a"))


class TestCentralDirectory:
    def test_island_registration(self):
        sim = Simulator()
        controller = CentralDirectory(sim)
        island = RecordingIsland(sim, "alpha")
        controller.register_island(island)
        assert controller.island("alpha") is island
        assert island.controller is controller

    def test_duplicate_island_rejected(self):
        sim = Simulator()
        controller = CentralDirectory(sim)
        controller.register_island(RecordingIsland(sim, "alpha"))
        with pytest.raises(ValueError):
            controller.register_island(RecordingIsland(sim, "alpha"))

    def test_owner_resolution(self):
        sim = Simulator()
        controller = CentralDirectory(sim)
        island = RecordingIsland(sim, "alpha")
        controller.register_island(island)
        entity = EntityId("alpha", "vm")
        island.register_entity(entity, knob())
        assert controller.owner_of(entity) is island

    def test_pre_registered_entities_learned_at_island_registration(self):
        sim = Simulator()
        island = RecordingIsland(sim, "alpha")
        entity = EntityId("alpha", "early")
        island.register_entity(entity, knob())
        controller = CentralDirectory(sim)
        controller.register_island(island)
        assert controller.owner_of(entity) is island

    def test_unknown_entity_raises(self):
        controller = CentralDirectory(Simulator())
        with pytest.raises(UnknownEntityError):
            controller.owner_of(EntityId("nowhere", "ghost"))

    def test_known_entities_listing(self):
        sim = Simulator()
        controller = CentralDirectory(sim)
        island = RecordingIsland(sim, "alpha")
        controller.register_island(island)
        island.register_entity(EntityId("alpha", "one"), knob())
        island.register_entity(EntityId("alpha", "two"), knob())
        assert set(controller.known_entities()) == {
            EntityId("alpha", "one"),
            EntityId("alpha", "two"),
        }

    def test_islands_iteration_order(self):
        sim = Simulator()
        controller = CentralDirectory(sim)
        first = RecordingIsland(sim, "first")
        second = RecordingIsland(sim, "second")
        controller.register_island(first)
        controller.register_island(second)
        assert list(controller.islands()) == [first, second]
