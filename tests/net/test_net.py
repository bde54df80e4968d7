"""Tests for the network substrate: packets, links, NICs, the bridge."""

import pytest

from repro.net import MTU_BYTES, DuplexLink, Link, Packet, VirtualNIC, XenBridge, fragment
from repro.sim import Simulator, ms, us
from repro.x86 import CreditScheduler, VirtualMachine


class TestPacket:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            Packet(src="a", dst="b", size=0)

    def test_unique_ids(self):
        a = Packet(src="a", dst="b", size=100)
        b = Packet(src="a", dst="b", size=100)
        assert a.pid != b.pid

    def test_stamps_and_latency(self):
        packet = Packet(src="a", dst="b", size=100)
        packet.stamp("in", 100)
        packet.stamp("out", 350)
        assert packet.stamps["out"] - packet.stamps["in"] == 250


class TestFragment:
    def test_small_message_single_packet(self):
        packets = fragment("a", "b", 800, "msg", {"k": 1})
        assert len(packets) == 1
        assert packets[0].payload == {"k": 1}

    def test_large_message_split_at_mtu(self):
        packets = fragment("a", "b", MTU_BYTES * 2 + 500, "msg", {"k": 1})
        assert [p.size for p in packets] == [MTU_BYTES, MTU_BYTES, 500]

    def test_payload_rides_on_last_fragment(self):
        packets = fragment("a", "b", MTU_BYTES * 2, "msg", {"k": 1})
        assert "fragment_of" in packets[0].payload
        assert packets[-1].payload == {"k": 1}

    def test_total_size_preserved(self):
        packets = fragment("a", "b", 4321, "msg", {})
        assert sum(p.size for p in packets) == 4321

    def test_rejects_empty_message(self):
        with pytest.raises(ValueError):
            fragment("a", "b", 0, "msg", {})


class TestLink:
    def test_delivery_after_serialization_and_latency(self):
        sim = Simulator()
        link = Link(sim, "wire", bandwidth_bytes_per_ns=0.125, latency=us(100))
        received = []
        link.connect(lambda p: received.append((sim.now, p)))
        link.send(Packet(src="a", dst="b", size=1250))
        sim.run()
        # serialization 1250B at 0.125 B/ns = 10us; + 100us propagation
        assert received[0][0] == us(110)

    def test_fifo_serialization(self):
        sim = Simulator()
        link = Link(sim, "wire", bandwidth_bytes_per_ns=0.125, latency=0)
        received = []
        link.connect(lambda p: received.append(p.pid))
        first = Packet(src="a", dst="b", size=1250)
        second = Packet(src="a", dst="b", size=1250)
        link.send(first)
        link.send(second)
        sim.run()
        assert received == [first.pid, second.pid]

    def test_queue_overflow_drops(self):
        sim = Simulator()
        link = Link(sim, "wire", queue_packets=2, latency=0)
        link.connect(lambda p: None)
        outcomes = [link.send(Packet(src="a", dst="b", size=100)) for _ in range(5)]
        # The pump consumes one immediately, so 3 fit; the rest drop.
        assert outcomes.count(False) == link.dropped > 0

    def test_no_sink_raises(self):
        sim = Simulator()
        link = Link(sim, "wire", latency=0)
        link.send(Packet(src="a", dst="b", size=10))
        with pytest.raises(RuntimeError):
            sim.run()

    def test_duplex_has_two_directions(self):
        sim = Simulator()
        duplex = DuplexLink(sim, "pair")
        assert duplex.forward is not duplex.backward

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, "x", bandwidth_bytes_per_ns=0)
        with pytest.raises(ValueError):
            Link(sim, "x", latency=-1)


class TestVirtualNIC:
    def test_deliver_and_recv(self):
        sim = Simulator()
        nic = VirtualNIC(sim, "nic")
        packet = Packet(src="a", dst="b", size=10)
        assert nic.deliver(packet)
        get = nic.recv()
        sim.run()
        assert get.value is packet
        assert nic.rx_count == 1

    def test_rx_overflow_drops(self):
        sim = Simulator()
        nic = VirtualNIC(sim, "nic", rx_capacity=1)
        nic.deliver(Packet(src="a", dst="b", size=10))
        assert nic.deliver(Packet(src="a", dst="b", size=10)) is False
        assert nic.rx_dropped == 1

    def test_send_requires_egress(self):
        sim = Simulator()
        nic = VirtualNIC(sim, "nic")
        with pytest.raises(RuntimeError):
            nic.send(Packet(src="a", dst="b", size=10))

    def test_send_through_egress(self):
        sim = Simulator()
        nic = VirtualNIC(sim, "nic")
        sent = []
        nic.attach_egress(sent.append)
        nic.send(Packet(src="a", dst="b", size=10))
        assert len(sent) == 1
        assert nic.tx_count == 1


class TestXenBridge:
    def _make(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        dom0 = VirtualMachine(sim, "dom0")
        scheduler.add_domain(dom0)
        bridge = XenBridge(sim, dom0)
        return sim, dom0, bridge

    def test_relay_to_known_port(self):
        sim, dom0, bridge = self._make()
        nic = VirtualNIC(sim, "guest")
        bridge.add_port("guest", nic)
        bridge.submit(Packet(src="x", dst="guest", size=100))
        sim.run(until=ms(10))
        assert nic.rx_count == 1
        assert bridge.relayed == 1

    def test_relay_costs_dom0_cpu(self):
        sim, dom0, bridge = self._make()
        nic = VirtualNIC(sim, "guest")
        bridge.add_port("guest", nic)
        for _ in range(10):
            bridge.submit(Packet(src="x", dst="guest", size=100))
        sim.run(until=ms(50))
        assert dom0.cpu_time() >= 10 * bridge.relay_cost

    def test_unknown_destination_goes_to_uplink(self):
        sim, dom0, bridge = self._make()
        uplinked = []
        bridge.set_uplink(uplinked.append)
        bridge.submit(Packet(src="x", dst="elsewhere", size=100))
        sim.run(until=ms(10))
        assert len(uplinked) == 1
        assert bridge.to_uplink == 1

    def test_unknown_destination_without_uplink_raises(self):
        sim, dom0, bridge = self._make()
        bridge.submit(Packet(src="x", dst="nowhere", size=100))
        with pytest.raises(RuntimeError):
            sim.run(until=ms(10))

    def test_duplicate_port_rejected(self):
        sim, dom0, bridge = self._make()
        bridge.add_port("guest", VirtualNIC(sim, "a"))
        with pytest.raises(ValueError):
            bridge.add_port("guest", VirtualNIC(sim, "b"))

    def test_vm_nic_egress_wired_to_bridge(self):
        sim, dom0, bridge = self._make()
        sender = VirtualNIC(sim, "sender")
        receiver = VirtualNIC(sim, "receiver")
        bridge.add_port("sender", sender)
        bridge.add_port("receiver", receiver)
        sender.send(Packet(src="sender", dst="receiver", size=64))
        sim.run(until=ms(10))
        assert receiver.rx_count == 1
