"""Virtual-time units.

The kernel clock is an integer count of **nanoseconds**. Integer time keeps
runs deterministic (no float drift when summing many small latencies) and
makes event ordering total. These helpers convert human-friendly units into
clock ticks and back; use them instead of bare numeric literals.
"""

from __future__ import annotations

#: Number of clock ticks (nanoseconds) in one microsecond.
NS_PER_US = 1_000
#: Number of clock ticks in one millisecond.
NS_PER_MS = 1_000_000
#: Number of clock ticks in one second.
NS_PER_S = 1_000_000_000


def ns(value: float) -> int:
    """Nanoseconds -> clock ticks (identity, rounded to int)."""
    return round(value)


def us(value: float) -> int:
    """Microseconds -> clock ticks."""
    return round(value * NS_PER_US)


def ms(value: float) -> int:
    """Milliseconds -> clock ticks."""
    return round(value * NS_PER_MS)


def seconds(value: float) -> int:
    """Seconds -> clock ticks."""
    return round(value * NS_PER_S)


def to_ms(ticks: int) -> float:
    """Clock ticks -> milliseconds (float)."""
    return ticks / NS_PER_MS


def to_seconds(ticks: int) -> float:
    """Clock ticks -> seconds (float)."""
    return ticks / NS_PER_S
