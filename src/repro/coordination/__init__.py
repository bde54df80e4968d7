"""The coordination layer: standard Tune/Trigger mechanisms, channel agents
and the paper's three coordination policies."""

from .agent import (
    MESSAGE_HANDLING_COST,
    CoordinationAgent,
    tune_coalesce_key,
    tune_coalesce_merge,
)
from .buffer_monitor import DEFAULT_THRESHOLD_BYTES, BufferMonitorTriggerPolicy
from .energy_policy import (
    ENERGY_QOS_MODES,
    MIN_PREDICTED_GAIN,
    EnergyQosGovernor,
    QosTarget,
)
from .messages import CoordinationMessage, RegisterMessage, TriggerMessage, TuneMessage
from .mplayer_policy import (
    HIGH_BITRATE_BPS,
    HIGH_FRAMERATE_FPS,
    STAGE_BITRATE,
    STAGE_FRAMERATE,
    STAGE_OFF,
    StreamQoSTunePolicy,
    StreamState,
)
from .rubis_policy import RequestTypeTunePolicy, TierEntities

__all__ = [
    "BufferMonitorTriggerPolicy",
    "CoordinationAgent",
    "CoordinationMessage",
    "ENERGY_QOS_MODES",
    "EnergyQosGovernor",
    "DEFAULT_THRESHOLD_BYTES",
    "MIN_PREDICTED_GAIN",
    "QosTarget",
    "HIGH_BITRATE_BPS",
    "HIGH_FRAMERATE_FPS",
    "MESSAGE_HANDLING_COST",
    "RegisterMessage",
    "RequestTypeTunePolicy",
    "STAGE_BITRATE",
    "STAGE_FRAMERATE",
    "STAGE_OFF",
    "StreamQoSTunePolicy",
    "StreamState",
    "TierEntities",
    "TriggerMessage",
    "TuneMessage",
    "tune_coalesce_key",
    "tune_coalesce_merge",
]
