"""Platform-wide entity naming.

The paper's coordination messages refer to remote entities ("VM 2", "flow
queue of Dom1") by identifier. An :class:`EntityId` pairs an island name
with an island-local name so identifiers are unambiguous platform-wide while
remaining cheap hashable values.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EntityId:
    """Globally unique name of a schedulable entity (VM, flow queue, ...)."""

    island: str
    local_name: str

    def __str__(self) -> str:
        return f"{self.island}/{self.local_name}"


def flow_id(name: str, island: str = "ixp") -> EntityId:
    """Identifier for a classified flow queue on the IXP island."""
    return EntityId(island=island, local_name=name)
