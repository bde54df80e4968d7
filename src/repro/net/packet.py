"""Packets: the unit of data moving through wires, the IXP and the host.

A packet carries addressing (src/dst host names, which double as the VM IP
identity the IXP classifies on), a size in bytes for serialisation and
buffer accounting, a ``kind`` tag, and an application payload dict (e.g.
the RUBiS request object or RTP frame metadata). ``stamps`` records the
time the packet passed each pipeline stage, giving per-stage latency
breakdowns for free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_packet_ids = itertools.count(1)

#: Standard Ethernet MTU used to fragment large messages.
MTU_BYTES = 1500


@dataclass
class Packet:
    """One network packet (or message fragment)."""

    src: str
    dst: str
    size: int
    kind: str = "data"
    payload: dict[str, Any] = field(default_factory=dict)
    #: Identifier of the classified flow this packet belongs to; assigned
    #: by the IXP classifier on the receive path.
    flow: Optional[str] = None
    pid: int = field(default_factory=lambda: next(_packet_ids))
    stamps: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"packet size must be positive, got {self.size}")

    def stamp(self, stage: str, now: int) -> None:
        """Record that the packet passed ``stage`` at time ``now``."""
        self.stamps[stage] = now

    def __repr__(self) -> str:
        return f"<Packet #{self.pid} {self.kind} {self.src}->{self.dst} {self.size}B>"


def fragment(
    src: str,
    dst: str,
    total_size: int,
    kind: str,
    payload: dict[str, Any],
    mtu: int = MTU_BYTES,
) -> list[Packet]:
    """Split a message of ``total_size`` bytes into MTU-sized packets.

    The application payload rides on the *last* fragment (the message is
    complete only when its final packet arrives), mirroring how a request
    parser fires once the final segment is in.
    """
    if total_size <= 0:
        raise ValueError(f"message size must be positive, got {total_size}")
    sizes = []
    remaining = total_size
    while remaining > 0:
        take = min(mtu, remaining)
        sizes.append(take)
        remaining -= take
    packets = []
    for i, size in enumerate(sizes):
        last = i == len(sizes) - 1
        packets.append(
            Packet(
                src=src,
                dst=dst,
                size=size,
                kind=kind,
                payload=payload if last else {"fragment_of": kind},
            )
        )
    return packets
