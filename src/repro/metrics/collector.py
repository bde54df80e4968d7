"""Time-series collectors: CPU utilisation sampling and windowed counters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..sim import NS_PER_S, PeriodicTask, Simulator, seconds
from ..x86.vm import VirtualMachine

#: Bucket width of :class:`WindowedCounter` (one second).
_BUCKET = seconds(1)


@dataclass
class UtilizationSample:
    """CPU utilisation of one VM over one sampling window (percent of one
    core, so a 2-VCPU domain can exceed 100)."""

    time: int
    total: float
    user: float
    sys: float
    iowait: float
    steal: float


class CpuUtilizationSampler:
    """Periodically samples per-VM CPU accounting deltas.

    Mirrors what ``xentop``/``sar`` produced for the paper's Figure 5 and
    Figure 7: utilisation percentages per domain per window.
    """

    def __init__(self, sim: Simulator, vms: list[VirtualMachine], window: int = seconds(1)):
        if window <= 0:
            raise ValueError("window must be positive")
        self.sim = sim
        self.vms = vms
        self.window = window
        self.samples: dict[str, list[UtilizationSample]] = {vm.name: [] for vm in vms}
        self._previous = {vm.name: vm.accounting.snapshot() for vm in vms}
        self._task = PeriodicTask(sim, window, self._sample_window, name="cpu-sampler")

    def _sample_window(self) -> None:
        for vm in self.vms:
            now_counters = vm.accounting.snapshot()
            prev = self._previous[vm.name]
            delta = {k: now_counters[k] - prev[k] for k in now_counters}
            self._previous[vm.name] = now_counters
            scale = 100.0 / self.window
            self.samples[vm.name].append(
                UtilizationSample(
                    time=self.sim.now,
                    total=(delta["user"] + delta["sys"]) * scale,
                    user=delta["user"] * scale,
                    sys=delta["sys"] * scale,
                    iowait=delta["iowait"] * scale,
                    steal=delta["steal"] * scale,
                )
            )

    def mean_total(self, vm_name: str, skip_first: int = 0) -> float:
        """Mean total utilisation of a VM across collected windows."""
        samples = self.samples[vm_name][skip_first:]
        if not samples:
            return 0.0
        return sum(s.total for s in samples) / len(samples)

    def series(self, vm_name: str) -> list[UtilizationSample]:
        """All windows sampled for ``vm_name``."""
        return list(self.samples[vm_name])


@dataclass
class WindowedCounter:
    """Counts events into one-second buckets (throughput)."""

    sim: Simulator
    total: int = 0
    _counts: dict[int, int] = field(default_factory=dict)

    def record(self, count: int = 1) -> None:
        """Count ``count`` events at the current time."""
        bucket = self.sim.now // _BUCKET
        self._counts[bucket] = self._counts.get(bucket, 0) + count
        self.total += count

    def rate_per_second(self, start: Optional[int] = None, end: Optional[int] = None) -> float:
        """Mean event rate over ``[start, end)`` (defaults to full range).

        Counts are stored per window, so the range is clamped *outward* to
        window-aligned boundaries: a bucket straddling ``start`` or ``end``
        is counted in full and the clamped span is used as the divisor.
        (Attributing a whole straddling bucket to a shorter, unaligned span
        — the previous behaviour — over- or under-stated the rate by up to
        one bucket's worth of events.)
        """
        if not self._counts:
            return 0.0
        first_bucket = min(self._counts) if start is None else start // _BUCKET
        last_bucket = max(self._counts) + 1 if end is None else -(-end // _BUCKET)
        if last_bucket <= first_bucket:
            return 0.0
        counted = sum(
            c
            for bucket, c in self._counts.items()
            if first_bucket <= bucket < last_bucket
        )
        span = (last_bucket - first_bucket) * _BUCKET
        return counted * NS_PER_S / span
