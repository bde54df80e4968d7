"""The unified testbed entry point: one config, two platform shapes.

``TestbedConfig`` carries the fabric topology and directory flavour;
``build_testbed`` dispatches to the right testbed class.
"""

import os
import subprocess
import sys
import warnings

import pytest

import repro
from repro import FabricTestbed, Testbed, TestbedConfig, build_testbed
from repro.faults import ChannelBlackout, FaultConfig, FaultPlan
from repro.ixp import IXPParams
from repro.platform import FabricTopology
from repro.sim import ms, us
from repro.testbed import ChannelConfig

NAMES = ("isle-0", "isle-1", "isle-2", "isle-3")


def topo():
    return FabricTopology.clustered(NAMES, fanout=2, link_latency=ms(5))


class TestBuildTestbed:
    def test_default_config_builds_the_prototype(self):
        built = build_testbed()
        assert isinstance(built, Testbed)

    def test_topology_config_builds_a_fabric(self):
        built = build_testbed(TestbedConfig(topology=topo(), directory="gossip"))
        assert isinstance(built, FabricTestbed)
        assert built.directory_kind == "gossip"
        assert set(built.islands) == set(NAMES)

    def test_prototype_testbed_rejects_fabric_configs(self):
        with pytest.raises(ValueError, match="build_testbed"):
            Testbed(TestbedConfig(topology=topo()))


BLACKOUT = FaultPlan((ChannelBlackout(start=ms(10), duration=ms(5)),))


class TestConfigRejectsWhatTheTestbedIgnores:
    @pytest.mark.parametrize("field, kwargs", [
        pytest.param("directory", {"directory": "gossip"}, id="directory-no-topology"),
        pytest.param("directory", {"directory": "gosip"}, id="directory-typo"),
        pytest.param("directory", {"topology": topo(), "directory": "gosip"},
                     id="directory-typo-fabric"),
        ("ixp", {"topology": topo(), "ixp": IXPParams(num_microengines=8)}),
        ("channel", {"topology": topo(), "channel": ChannelConfig(reliable=True)}),
        ("interrupt_delay", {"topology": topo(), "interrupt_delay": us(10)}),
        ("driver_poll_burn_duty", {"topology": topo(), "driver_poll_burn_duty": 0.5}),
        ("wire_latency", {"topology": topo(), "wire_latency": us(5)}),
        ("wire_bandwidth", {"topology": topo(), "wire_bandwidth": 1.25}),
        ("ring_capacity", {"topology": topo(), "ring_capacity": 64}),
        ("faults", {"topology": topo(), "faults": FaultConfig(plan=BLACKOUT)}),
    ], ids=lambda value: value if isinstance(value, str) else "fabric")
    def test_rejected_when_built(self, field, kwargs):
        with pytest.raises(ValueError, match=rf"TestbedConfig\.{field}\b"):
            TestbedConfig(**kwargs)

    def test_fabric_faults_without_a_plan_arm_the_detectors(self):
        built = build_testbed(TestbedConfig(topology=topo(), faults=FaultConfig()))
        assert built.mesh.detector("isle-0", "isle-1").state == "up"


class TestFabricTestbedSignatures:
    def test_config_form_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FabricTestbed(config=TestbedConfig(topology=topo()))

    def test_config_without_topology_rejected(self):
        with pytest.raises(ValueError, match="topology"):
            FabricTestbed(config=TestbedConfig())


def test_importing_repro_leaves_the_shard_engine_unloaded():
    # A fresh interpreter: this one has long since imported repro.shard.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    check = "import repro, sys; assert 'repro.shard' not in sys.modules"
    subprocess.run(
        [sys.executable, "-c", check],
        env={**os.environ, "PYTHONPATH": src},
        check=True,
        timeout=60,
    )
