"""The Xen software bridge running in Dom0.

All VM traffic — inter-VM and to/from the IXP virtual interface — is
relayed here (paper §2: "Using the Xen bridge tools, we make this IXP ViF
the primary network interface for network communication between Xen DomUs
and the outside world"). Every relayed packet costs Dom0 system CPU
(bridge hook + netback copy), so heavy traffic makes Dom0 compete with
guest domains — one of the couplings coordination has to live with.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..sim import Simulator, Store, Tracer, us
from ..x86.vm import VirtualMachine
from .nic import VirtualNIC
from .packet import Packet

#: Dom0 CPU cost to relay one packet (bridge hook + netback/netfront copy).
DEFAULT_RELAY_COST = us(15)


class XenBridge:
    """Learning-free software bridge: static table of name -> NIC ports."""

    def __init__(
        self,
        sim: Simulator,
        dom0: VirtualMachine,
        relay_cost: int = DEFAULT_RELAY_COST,
        tracer: Optional[Tracer] = None,
    ):
        self.sim = sim
        self.dom0 = dom0
        self.relay_cost = relay_cost
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._ports: dict[str, VirtualNIC] = {}
        self._uplink: Optional[Callable[[Packet], None]] = None
        self._ingress: Store[Packet] = Store(sim, name="bridge-ingress")
        self.relayed = 0
        self.to_uplink = 0
        sim.spawn(self._pump(), name="xen-bridge")

    # -- wiring ----------------------------------------------------------------

    def add_port(self, host_name: str, nic: VirtualNIC) -> None:
        """Attach a VM NIC under its host name (its 'IP identity')."""
        if host_name in self._ports:
            raise ValueError(f"bridge already has a port for {host_name!r}")
        self._ports[host_name] = nic
        nic.attach_egress(self.submit)

    def set_uplink(self, uplink: Callable[[Packet], None]) -> None:
        """Where packets for unknown destinations go (the IXP ViF TX)."""
        self._uplink = uplink

    # -- data path ----------------------------------------------------------------

    def submit(self, packet: Packet) -> None:
        """Enqueue a packet for relaying (never blocks the caller)."""
        self._ingress.try_put(packet)  # unbounded store: always succeeds

    def _pump(self):
        """Single relay thread: realistic for 2.6-era netback processing."""
        while True:
            packet = yield self._ingress.get()
            yield self.dom0.execute(self.relay_cost, kind="sys")
            self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        packet.stamp("bridge", self.sim.now)
        port = self._ports.get(packet.dst)
        if port is not None:
            self.relayed += 1
            port.deliver(packet)
            return
        if self._uplink is None:
            raise RuntimeError(f"bridge has no uplink but packet for {packet.dst!r} needs one")
        self.to_uplink += 1
        self._uplink(packet)

    def __repr__(self) -> str:
        return f"<XenBridge ports={sorted(self._ports)} relayed={self.relayed}>"
