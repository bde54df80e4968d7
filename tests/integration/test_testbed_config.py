"""The ChannelConfig sub-config: defaults, hardware assistance, wiring."""

from repro.sim import ms, us
from repro.testbed import ChannelConfig, Testbed, TestbedConfig


class TestChannelConfig:
    def test_defaults(self):
        channel = ChannelConfig()
        assert channel.loss_probability == 0.0
        assert channel.reliable is False
        assert channel.hardware is False
        assert channel.effective_latency == channel.latency

    def test_hardware_overrides_latency(self):
        channel = ChannelConfig(latency=ms(2), hardware=True)
        assert channel.effective_latency == us(1)

    def test_testbed_wires_channel_config(self):
        testbed = Testbed(TestbedConfig(channel=ChannelConfig(latency=ms(2))))
        assert testbed.channel.latency == ms(2)
        reliable = Testbed(TestbedConfig(channel=ChannelConfig(reliable=True)))
        assert reliable.reliable_channel is not None
        hardware = Testbed(TestbedConfig(channel=ChannelConfig(hardware=True)))
        assert hardware.channel.latency == us(1)
