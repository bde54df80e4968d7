"""Host-IXP interconnect: PCIe DMA, message rings, the Dom0 messaging
driver, the PCI-config-space coordination channel, and the optional
reliable delivery layer (acks, retransmission, Tune coalescing)."""

from .channel import DEFAULT_CHANNEL_LATENCY, ChannelEndpoint, CoordinationChannel
from .reliable import (
    AckFrame,
    DataFrame,
    ReliableChannel,
    ReliableConfig,
    ReliableEndpoint,
)
from .driver import (
    PER_PACKET_RX_COST,
    PER_PACKET_TX_COST,
    SERVICE_COST,
    MessagingDriver,
)
from .msgq import MessageRing
from .pcie import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, PCIeBus
from .shardpipe import (
    HEARTBEAT,
    FramedConnection,
    ShardFrame,
    ShardProtocolError,
)

__all__ = [
    "AckFrame",
    "FramedConnection",
    "HEARTBEAT",
    "ShardFrame",
    "ShardProtocolError",
    "ChannelEndpoint",
    "CoordinationChannel",
    "DataFrame",
    "ReliableChannel",
    "ReliableConfig",
    "ReliableEndpoint",
    "DEFAULT_BANDWIDTH",
    "DEFAULT_CHANNEL_LATENCY",
    "DEFAULT_LATENCY",
    "MessageRing",
    "MessagingDriver",
    "PCIeBus",
    "PER_PACKET_RX_COST",
    "PER_PACKET_TX_COST",
    "SERVICE_COST",
]
