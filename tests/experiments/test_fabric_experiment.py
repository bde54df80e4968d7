"""Small-K smoke of the control-plane fabric sweep."""

import pytest

from repro.experiments.fabric import (
    ARMS,
    DUTY_SLOTS,
    HOT_SLOT,
    LATENCY_HIGH,
    LATENCY_LOW,
    FabricArmResult,
    ProbeCell,
    render_fabric,
    run_fabric_arm,
)
from repro.platform import EntityId
from repro.sim import RandomStreams, Simulator, ms, seconds
from repro.x86 import X86Island

K = 8
K_BIG = 32


@pytest.fixture(scope="module")
def results():
    return {
        (arm, K): run_fabric_arm(arm, K, duration=seconds(2), seed=1)
        for arm in ARMS
    }


class TestFabricArms:
    def test_all_arms_produce_results(self, results):
        for arm in ARMS:
            r = results[(arm, K)]
            assert isinstance(r, FabricArmResult)
            assert r.arm == arm
            assert r.num_islands == K
            assert r.total_messages > 0

    def test_qos_holds_across_arms(self, results):
        """The fabrics move control messages, not work: probe latency
        must be within a tight band regardless of directory shape."""
        means = [results[(arm, K)].mean_probe_latency_ms for arm in ARMS]
        assert max(means) - min(means) < 0.5
        assert max(means) < 2.0

    def test_gossip_has_no_hot_spot(self, results):
        """Central piles everything on the hub, and no node out-works the
        hierarchy's root; gossip's busiest node is barely busier than its
        average one."""
        central = results[("central", K)]
        hierarchical = results[("hierarchical", K)]
        gossip = results[("gossip", K)]
        assert central.root_messages == central.max_node_messages
        assert hierarchical.max_node_messages <= hierarchical.root_messages
        assert gossip.max_node_messages <= 3 * gossip.mean_node_messages

    def test_concentration_scaling(self, results):
        """Growing the fabric 4x grows the central hub's load ~4x but
        leaves gossip's busiest node flat — the O(K) vs O(1) story."""
        central_small = results[("central", K)]
        gossip_small = results[("gossip", K)]
        central_big = run_fabric_arm(
            "central", K_BIG, duration=seconds(2), seed=1
        )
        gossip_big = run_fabric_arm(
            "gossip", K_BIG, duration=seconds(2), seed=1
        )
        assert central_big.max_node_messages > 2 * central_small.max_node_messages
        assert gossip_big.max_node_messages < 1.5 * gossip_small.max_node_messages

    def test_partition_heals_and_discovery_converges(self, results):
        for arm in ARMS:
            r = results[(arm, K)]
            assert r.convergence_ms is not None, arm
            # Bounded: well under the remaining second of the run.
            assert r.convergence_ms < 1000.0

    def test_no_dead_letters_at_zero_loss(self, results):
        for arm in ARMS:
            assert results[(arm, K)].dead_letters == 0

    def test_unknown_arm_rejected(self):
        with pytest.raises(ValueError, match="unknown arm"):
            run_fabric_arm("mesh", 4)

    def test_render_mentions_every_arm(self, results):
        table = render_fabric(results)
        for arm in ARMS:
            assert arm in table
        assert "Converge" in table


class TestProbeCell:
    """The one local policy step every K-island experiment takes, fed
    through ``recent`` directly (the simulator never runs)."""

    @staticmethod
    def cell():
        island = X86Island(Simulator(), name="isle-0")
        jitter = RandomStreams(1).stream("probe-0")
        return ProbeCell(island, jitter, HOT_SLOT, DUTY_SLOTS, 0)

    def test_tune_locally_steps_the_probe_weight_down_to_the_floor(self):
        cell = self.cell()
        cell.recent.add(ms(5))
        assert cell.tune_locally() == ms(5)
        assert cell.probe.weight == 384
        assert cell.tunes == 1
        assert cell.recent.count == 0
        cell.recent.add(ms(1))
        assert cell.tune_locally() == ms(1)
        assert cell.probe.weight == 256
        assert cell.tunes == 2
        cell.recent.add(ms(1))
        cell.tune_locally()
        assert cell.probe.weight == 256
        assert cell.tunes == 2

    def test_mean_inside_the_band_applies_nothing(self):
        cell = self.cell()
        mean = (LATENCY_LOW + LATENCY_HIGH) / 2
        cell.recent.add(mean)
        assert cell.tune_locally() == mean
        assert cell.probe.weight == 256
        assert cell.tunes == 0
        assert cell.island.knobs.last_actuation(EntityId("isle-0", "probe")) is None
