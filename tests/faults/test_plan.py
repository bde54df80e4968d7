"""Fault plans: validation and immutability."""

import pytest

from repro.faults import (
    ActuationFault,
    AgentCrash,
    ChannelBlackout,
    FaultConfig,
    FaultPlan,
    ManagerStall,
)
from repro.sim import ms


class TestEventValidation:
    def test_blackout_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ChannelBlackout(start=-1, duration=ms(1))
        with pytest.raises(ValueError):
            ChannelBlackout(start=0, duration=0)
        with pytest.raises(ValueError, match="direction"):
            ChannelBlackout(start=0, duration=ms(1), direction="")
        # Any endpoint *name* is accepted at construction (mesh links use
        # island names); the injector validates it against the actual
        # channel endpoints at arm time.
        ChannelBlackout(start=0, duration=ms(1), direction="island-3")

    def test_blackout_end(self):
        event = ChannelBlackout(start=ms(10), duration=ms(5))
        assert event.end == ms(15)

    def test_crash_rejects_bad_values(self):
        with pytest.raises(ValueError):
            AgentCrash(agent="ixp", start=-1)
        with pytest.raises(ValueError):
            AgentCrash(agent="ixp", start=0, restart_after=0)
        AgentCrash(agent="ixp", start=0, restart_after=None)  # dead forever: fine

    def test_stall_and_actuation_fault_validated(self):
        with pytest.raises(ValueError):
            ManagerStall(agent="x86", start=0, duration=0)
        with pytest.raises(ValueError):
            ActuationFault(island="ixp", start=0, duration=-5)
        assert ActuationFault(island="ixp", start=ms(1), duration=ms(2)).end == ms(3)

    def test_events_are_frozen(self):
        event = ChannelBlackout(start=0, duration=ms(1))
        with pytest.raises(AttributeError):
            event.start = ms(5)


class TestFaultPlan:
    def test_events_normalised_to_tuple(self):
        plan = FaultPlan(events=[ChannelBlackout(start=0, duration=ms(1))])
        assert isinstance(plan.events, tuple)
        assert len(plan) == 1


class TestFaultConfig:
    def test_defaults_valid(self):
        config = FaultConfig()
        assert config.heartbeat_period == ms(50)
        assert len(config.plan) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultConfig(heartbeat_period=0)
        with pytest.raises(ValueError):
            FaultConfig(suspect_misses=0)
        with pytest.raises(ValueError, match="down_misses"):
            FaultConfig(suspect_misses=4, down_misses=2)
        with pytest.raises(ValueError):
            FaultConfig(dead_letter_down=0)
