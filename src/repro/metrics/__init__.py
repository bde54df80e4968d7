"""Measurement: summary statistics, CPU sampling, response-time recording
and the paper's platform-efficiency metric."""

from .collector import (
    CpuUtilizationSampler,
    UtilizationSample,
    WindowedCounter,
)
from .efficiency import platform_efficiency
from .energyqos import (
    ENERGY_QOS_KNOB_KINDS,
    EnergyQosCollector,
    QosCheck,
    WindowedQosSource,
)
from .response import ResponseTimeRecorder
from .timeline import RunInterval, SchedulingTimeline
from .stats import OnlineStats, Summary, percentile, summarize

__all__ = [
    "CpuUtilizationSampler",
    "ENERGY_QOS_KNOB_KINDS",
    "EnergyQosCollector",
    "QosCheck",
    "WindowedQosSource",
    "OnlineStats",
    "ResponseTimeRecorder",
    "RunInterval",
    "SchedulingTimeline",
    "Summary",
    "UtilizationSample",
    "WindowedCounter",
    "percentile",
    "platform_efficiency",
    "summarize",
]
