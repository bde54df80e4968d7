"""Power models for the platform's components.

The paper's second motivating use case (§1): "While power budgeting can be
performed on a per tile-basis ..., it is well-known that properties like
caps on total power usage must be obtained at platform level. This is
because turning off or slowing down processors in certain tiles may
negatively impact the performance of application components executing on
others."

The x86 cores follow the classic CMOS model — dynamic power roughly cubic
in frequency (P = C·V²·f with V scaling with f), plus static leakage — and
the IXP draws a base plus per-microengine-activity dynamic component.
Numbers are of 2008-era silicon: a 2.66 GHz Xeon core around 20 W busy,
the IXP2850 card around 25-30 W.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class CorePowerModel:
    """Power of one x86 core as a function of utilisation and DVFS speed."""

    #: Static/leakage watts, paid at any speed while the core is powered.
    static_w: float = 6.0
    #: Dynamic watts at full utilisation and nominal frequency.
    dynamic_w: float = 14.0
    #: Dynamic-power exponent in the speed factor (V~f gives ~3).
    speed_exponent: float = 3.0

    def power(self, utilization: float, speed: float) -> float:
        """Watts drawn at the given utilisation (0-1) and speed (0-1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0,1], got {utilization}")
        if not 0.0 < speed <= 1.0:
            raise ValueError(f"speed must be in (0,1], got {speed}")
        return self.static_w + self.dynamic_w * utilization * speed**self.speed_exponent

    def power_integrated(self, busy_fractions: dict[float, float]) -> float:
        """Mean watts over a window whose busy time is split by DVFS speed.

        ``busy_fractions`` maps speed -> fraction of the window spent busy
        at that speed. Pricing each slice at its own speed makes the energy
        integral exact across mid-window frequency changes, where
        :meth:`power` with the end-of-window speed would mis-bill the whole
        window at whatever level the ladder happened to finish on.
        """
        dynamic = 0.0
        for speed, fraction in busy_fractions.items():
            if not 0.0 < speed <= 1.0:
                raise ValueError(f"speed must be in (0,1], got {speed}")
            dynamic += self.dynamic_w * max(0.0, min(1.0, fraction)) * speed**self.speed_exponent
        return self.static_w + dynamic


@dataclass(frozen=True, slots=True)
class IXPPowerModel:
    """Power of the network-processor card."""

    #: Card base power: memories, MACs, XScale (watts).
    base_w: float = 14.0
    #: Per-microengine dynamic watts at full pipeline utilisation.
    per_engine_w: float = 1.0

    def power(self, engine_utilizations: list[float]) -> float:
        """Watts for the card given each microengine's utilisation."""
        dynamic = sum(self.per_engine_w * min(1.0, max(0.0, u)) for u in engine_utilizations)
        return self.base_w + dynamic

