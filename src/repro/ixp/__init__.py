"""The IXP2850 network-processor island."""

from .classifier import Classifier, ClassifierRule, classify_by_destination, make_payload_field_rule
from .dequeue import WeightedDequeuer
from .flowqueue import FlowQueue
from .island import IXPIsland
from .memory import BufferPool, MemoryHierarchy
from .microengine import HardwareThread, Microengine
from .params import CYCLE_NS, IXPParams, MemoryLatencies, cycles
from .rx import RxPipeline, TwoStageRxPipeline
from .scratch import HardwareSignal, ScratchRing
from .tx import TxPipeline
from .xscale import XScaleCore

__all__ = [
    "BufferPool",
    "CYCLE_NS",
    "Classifier",
    "ClassifierRule",
    "FlowQueue",
    "HardwareThread",
    "IXPIsland",
    "IXPParams",
    "MemoryHierarchy",
    "MemoryLatencies",
    "Microengine",
    "RxPipeline",
    "ScratchRing",
    "TwoStageRxPipeline",
    "HardwareSignal",
    "TxPipeline",
    "WeightedDequeuer",
    "XScaleCore",
    "classify_by_destination",
    "cycles",
    "make_payload_field_rule",
]
