"""repro — coordinated resource management in heterogeneous multicore
platforms.

A full-system, discrete-event reproduction of Tembey, Gavrilovska &
Schwan's WIOSCA 2010 case paper: an IXP2850-like network-processor island
and a Xen-credit-scheduled x86 island, joined by a PCIe message path and a
coordination channel carrying the paper's two standard mechanisms —
**Tune** and **Trigger** — plus the RUBiS and MPlayer workloads used to
evaluate them.

Quick start::

    from repro import Testbed, TestbedConfig

    testbed = Testbed(TestbedConfig(seed=7))
    vm, nic = testbed.create_guest_vm("my-service")
    client = testbed.add_client_host("client")
    ...
    testbed.run(until=...)

or run a whole paper experiment::

    from repro.experiments import run_rubis_pair, render_table1

    pair = run_rubis_pair()
    print(render_table1(pair))
"""

from .platform import EntityId, Island
from .testbed import (
    ChannelConfig,
    ClientHost,
    FabricTestbed,
    Testbed,
    TestbedConfig,
    build_testbed,
)

__version__ = "1.0.0"

__all__ = [
    "ChannelConfig",
    "ClientHost",
    "EntityId",
    "Island",
    "FabricTestbed",
    "Testbed",
    "TestbedConfig",
    "build_testbed",
    "__version__",
]
