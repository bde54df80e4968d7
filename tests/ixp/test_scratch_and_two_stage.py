"""Tests for scratchpad rings, hardware signals and the two-stage Rx."""

import pytest

from repro.interconnect import MessageRing, PCIeBus
from repro.ixp import IXPIsland, IXPParams, MemoryHierarchy, classify_by_destination
from repro.ixp.scratch import HardwareSignal, ScratchRing
from repro.net import Packet
from repro.sim import Simulator, ms, us


class TestHardwareSignal:
    def test_assert_wakes_waiter(self):
        sim = Simulator()
        signal = HardwareSignal(sim)
        woken = []

        def waiter(sim):
            yield signal.wait()
            woken.append(sim.now)

        sim.spawn(waiter(sim))
        sim.call_in(us(5), signal.assert_signal)
        sim.run()
        assert woken == [us(5)]

    def test_edge_semantics_without_waiter(self):
        sim = Simulator()
        signal = HardwareSignal(sim)
        signal.assert_signal()  # nobody waiting: edge lost
        woken = []

        def waiter(sim):
            yield signal.wait()
            woken.append(True)

        sim.spawn(waiter(sim))
        sim.run(until=ms(1))
        assert woken == []

    def test_one_assert_wakes_one_waiter(self):
        sim = Simulator()
        signal = HardwareSignal(sim)
        woken = []

        def waiter(sim, tag):
            yield signal.wait()
            woken.append(tag)

        sim.spawn(waiter(sim, "a"))
        sim.spawn(waiter(sim, "b"))
        sim.call_in(us(1), signal.assert_signal)
        sim.run(until=ms(1))
        assert woken == ["a"]


class TestScratchRing:
    def _ring(self, capacity=4):
        sim = Simulator()
        return sim, ScratchRing(sim, MemoryHierarchy(), capacity=capacity)

    def test_put_get_roundtrip_with_latency(self):
        sim, ring = self._ring()
        results = []

        def producer(sim):
            ok = yield from ring.put("payload")
            results.append(("put", ok, sim.now))

        def consumer(sim):
            item = yield from ring.get()
            results.append(("got", item, sim.now))

        sim.spawn(consumer(sim))
        sim.spawn(producer(sim))
        sim.run()
        assert ("put", True, results[0][2]) == results[0]
        assert results[1][1] == "payload"
        # Each side pays one scratchpad access.
        scratch = MemoryHierarchy().latencies.scratch
        assert results[1][2] >= 2 * scratch

    def test_ring_full_rejects(self):
        sim, ring = self._ring(capacity=2)

        def producer(sim):
            outcomes = []
            for i in range(3):
                ok = yield from ring.put(i)
                outcomes.append(ok)
            return outcomes

        proc = sim.spawn(producer(sim))
        sim.run()
        assert proc.value == [True, True, False]
        assert ring.full_rejections == 1

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            ScratchRing(sim, MemoryHierarchy(), capacity=0)


class TestTwoStageRx:
    def _island(self, two_stage):
        sim = Simulator()
        island = IXPIsland(sim, IXPParams(two_stage_rx=two_stage))
        island.classifier.add_rule("by-dst", classify_by_destination)
        pcie = PCIeBus(sim)
        rx_ring = MessageRing(sim, "rx")
        tx_ring = MessageRing(sim, "tx")
        island.attach_host(pcie, rx_ring, tx_ring)
        island.register_vm_flow("vm1")
        return sim, island, rx_ring

    def test_two_stage_delivers_like_single_stage(self):
        for two_stage in (False, True):
            sim, island, rx_ring = self._island(two_stage)
            for _ in range(20):
                island.wire_sink()(Packet(src="c", dst="vm1", size=700))
            sim.run(until=ms(20))
            assert island.rx.processed == 20, f"two_stage={two_stage}"
            assert rx_ring.pushed == 20

    def test_two_stage_uses_second_microengine(self):
        sim, island, _ = self._island(True)
        island.wire_sink()(Packet(src="c", dst="vm1", size=700))
        sim.run(until=ms(5))
        assert island.microengines[1].busy_time > 0  # classifier ME worked
        assert island.microengines[0].busy_time > 0  # rx ME worked

    def test_single_stage_leaves_classifier_me_idle(self):
        sim, island, _ = self._island(False)
        island.wire_sink()(Packet(src="c", dst="vm1", size=700))
        sim.run(until=ms(5))
        assert island.microengines[1].busy_time == 0

    def test_two_stage_adds_ring_latency(self):
        stamps = {}
        for two_stage in (False, True):
            sim, island, rx_ring = self._island(two_stage)
            packet = Packet(src="c", dst="vm1", size=700)
            island.wire_sink()(packet)
            sim.run(until=ms(5))
            popped = rx_ring.pop()
            stamps[two_stage] = popped.stamps["pci-dma"] - popped.stamps["ixp-rx"]
        assert stamps[True] > stamps[False]

    def test_classified_hooks_fire_in_two_stage_mode(self):
        sim, island, _ = self._island(True)
        seen = []
        island.add_classified_hook(lambda p, f: seen.append(f))
        island.wire_sink()(Packet(src="c", dst="vm1", size=700))
        sim.run(until=ms(5))
        assert seen == ["vm1"]
