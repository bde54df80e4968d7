"""Platform power management: models, metering and cap governors.

Implements the paper's second motivating use case (§1, "Platform-level
power management") and its future-work item of power coordination policies
(§5): the same Tune/Trigger-carrying channel also carries power telemetry,
letting a platform cap be enforced with application-level awareness
instead of static per-island budgets.
"""

from .governor import (
    CoordinatedPowerCapGovernor,
    LocalPowerCapGovernor,
    PowerReportMessage,
)
from .meter import PowerMeter, PowerSample
from .model import CorePowerModel, IXPPowerModel

__all__ = [
    "CoordinatedPowerCapGovernor",
    "CorePowerModel",
    "IXPPowerModel",
    "LocalPowerCapGovernor",
    "PowerMeter",
    "PowerReportMessage",
    "PowerSample",
]
