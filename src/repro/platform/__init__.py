"""Platform topology: scheduling islands, entity identity, the directory.

This package defines the *interfaces* the paper's coordination layer is
written against; the concrete islands live in :mod:`repro.x86` and
:mod:`repro.ixp`. The control plane is pluggable: a
:class:`~repro.platform.directory.Directory` (central, hierarchical or
gossip) resolves entity ownership over a declarative
:class:`~repro.platform.fabric.FabricTopology`; the paper's global
controller is the central flavour.
"""

from .directory import (
    DIRECTORY_KINDS,
    CentralDirectory,
    Directory,
    DirectoryBase,
    GossipDirectory,
    HierarchicalDirectory,
    OwnershipRecord,
    UnknownEntityError,
    build_directory,
)
from .fabric import DEFAULT_LINK_LATENCY, ClusterSpec, FabricTopology
from .identity import EntityId, flow_id
from .island import Island
from .knobs import (
    ACTUATION_TRACE_KINDS,
    ActuationRecord,
    Knob,
    KnobError,
    KnobRegistry,
    TriggerSpec,
    UnknownKnobError,
    UnsupportedTriggerError,
    weight_knob,
)

__all__ = [
    "ACTUATION_TRACE_KINDS",
    "ActuationRecord",
    "CentralDirectory",
    "ClusterSpec",
    "DEFAULT_LINK_LATENCY",
    "DIRECTORY_KINDS",
    "Directory",
    "DirectoryBase",
    "EntityId",
    "FabricTopology",
    "GossipDirectory",
    "HierarchicalDirectory",
    "Island",
    "Knob",
    "KnobError",
    "KnobRegistry",
    "OwnershipRecord",
    "TriggerSpec",
    "UnknownEntityError",
    "UnknownKnobError",
    "UnsupportedTriggerError",
    "build_directory",
    "flow_id",
    "weight_knob",
]
