"""Typed duck-type contracts of the control plane's collaborators.

The directory layer admits three kinds of outside objects: health-
reporting coordination channels, peer-health sources (failure
detectors), and the control-loop observatory. They used to be typed as
bare ``object`` with hand-rolled ``callable(getattr(...))`` probes;
these :class:`~typing.Protocol`\\ s name the actual contracts, so
directory implementations and tests can check them with ``isinstance``
and new fabrics get a readable error instead of an attribute probe.

Everything here is structural: no class in the repo inherits from these,
they only have to *shape-match* (``@runtime_checkable`` checks method
presence, not signatures — the docstrings carry the semantic contract).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable


@runtime_checkable
class StatsChannel(Protocol):
    """A coordination channel that reports delivery counters.

    Satisfied by the raw :class:`~repro.interconnect.CoordinationChannel`
    and the :class:`~repro.interconnect.ReliableChannel` wrapper. The
    reliable layer *additionally* exposes ``dead_letters_by_entity()``,
    which directories surface opportunistically (see
    :meth:`~repro.platform.directory.DirectoryBase.channel_health`).
    """

    def stats(self) -> dict:
        """Current delivery/loss/retransmission counters."""
        ...


@runtime_checkable
class HealthSource(Protocol):
    """A peer-health source: a :class:`~repro.faults.FailureDetector` or
    anything else that can snapshot a peer's liveness state."""

    def health(self) -> dict:
        """State, epochs, heartbeat counters and the transition timeline."""
        ...


@runtime_checkable
class Observatory(Protocol):
    """The control-loop observatory (a
    :class:`~repro.obs.ControlLoopCollector` when tracing is armed)."""

    def report(self) -> dict:
        """Per-loop latency breakdowns and counters."""
        ...
