"""Discrete-event simulation kernel.

A small, deterministic, generator-based DES engine: integer-nanosecond clock,
one-shot events, coroutine processes, waitable stores, counted resources,
named random streams, and structured tracing. Everything else in
:mod:`repro` is built on these primitives.
"""

from .core import Event, PeriodicTask, Simulator, Timeout
from .errors import (
    EventAlreadyTriggeredError,
    Interrupt,
    SchedulingInPastError,
    SimulationError,
    StopSimulation,
)
from .process import Process
from .queues import Store, StoreGet, StorePut
from .resources import Request, Resource
from .rng import RandomStream, RandomStreams
from .time import (
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    ms,
    ns,
    seconds,
    to_ms,
    to_seconds,
    us,
)
from .tracing import TraceLog, TraceRecord, Tracer

__all__ = [
    "Event",
    "EventAlreadyTriggeredError",
    "Interrupt",
    "NS_PER_MS",
    "NS_PER_S",
    "NS_PER_US",
    "PeriodicTask",
    "Process",
    "RandomStream",
    "RandomStreams",
    "Request",
    "Resource",
    "SchedulingInPastError",
    "SimulationError",
    "Simulator",
    "StopSimulation",
    "Store",
    "StoreGet",
    "StorePut",
    "Timeout",
    "TraceLog",
    "TraceRecord",
    "Tracer",
    "ms",
    "ns",
    "seconds",
    "to_ms",
    "to_seconds",
    "us",
]
