"""End-to-end acceptance tests for causal span tracing (this ISSUE).

The bar: in a traced coordinated run, >= 95% of applied Tunes are
span-linked; spans survive retransmission and Tune coalescing with honest
merged-span bookkeeping; span ids reproduce exactly for a seed; and tracing
off means tracing *free* — the application-level results of a run are
bit-identical either way.
"""

from dataclasses import replace

from repro.apps.rubis import RubisConfig, deploy_rubis
from repro.coordination import CoordinationAgent, TuneMessage
from repro.interconnect import CoordinationChannel
from repro.platform import EntityId
from repro.sim import Simulator, ms, seconds
from repro.testbed import ChannelConfig, Testbed, TestbedConfig


def _traced_rubis(seed=5, loss=0.0, reliable=False, tracing=True):
    config = RubisConfig(
        coordinated=True,
        num_sessions=40,
        requests_per_session=10,
        think_time_mean=ms(300),
        warmup=seconds(4),
        testbed=TestbedConfig(
            seed=seed,
            tracing=tracing,
            channel=ChannelConfig(loss_probability=loss, reliable=reliable),
        ),
    )
    deployment = deploy_rubis(config)
    deployment.run(seconds(16))
    # Drain in-flight frames so loops close before we read the records.
    deployment.run(seconds(2))
    return deployment


class TestEndToEndLinking:
    def test_95_percent_of_applied_tunes_are_span_linked(self):
        deployment = _traced_rubis()
        testbed = deployment.testbed
        collector = testbed.observatory
        assert collector is not None  # tracing=True armed the observatory
        agent = testbed.x86_agent
        applied = agent.tunes_applied + agent.triggers_applied
        assert applied > 100  # the policy was actually busy
        assert collector.link_fraction(applied) >= 0.95
        # Clean channel: no retries, no losses, no merges.
        assert all(r.retries == 0 and not r.coalesced for r in collector.records)

    def test_stage_breakdown_is_sane(self):
        deployment = _traced_rubis()
        collector = deployment.testbed.observatory
        for record in collector.records:
            assert all(latency >= 0 for latency in record.stages.values())
            assert record.total == sum(record.stages.values())
            # The wire stage spans the channel's 150us default latency.
            assert record.stages["wire"] >= deployment.testbed.channel.latency
        report = collector.report()
        assert report["applied"] == len(collector.records)
        assert set(report["by_reason"])  # per-reason percentiles exist

    def test_control_loops_empty_when_untraced(self):
        testbed = Testbed(TestbedConfig(seed=1))
        assert testbed.observatory is None


class TestSpansSurviveLossAndCoalescing:
    def test_retransmitted_and_coalesced_spans_complete(self):
        deployment = _traced_rubis(loss=0.3, reliable=True)
        testbed = deployment.testbed
        collector = testbed.observatory
        sender = testbed.ixp_agent.endpoint

        assert testbed.channel.messages_lost > 0  # loss was real
        assert sender.coalesced > 0  # coalescing was real
        records = collector.records
        assert records
        # Spans rode retransmitted frames to completion.
        retried = [r for r in records if r.retries > 0]
        assert retried
        # Some retransmissions were caused by a lost *data* frame (others
        # by lost acks, which never delay the span's own delivery).
        lost = [r for r in retried if r.losses > 0]
        assert lost
        # A drop of the frame's first attempt delays delivery by a full
        # retransmission round-trip, charged to the wire stage. (A loss
        # can also hit a post-delivery duplicate copy, so not every lost
        # record shows the delay.)
        assert any(r.stages["wire"] > testbed.channel.latency for r in lost)
        assert all(r.stages["wire"] >= testbed.channel.latency for r in records)
        # Absorbed decisions completed through their survivor's frame.
        absorbed = [r for r in records if r.coalesced]
        survivors = [r for r in records if r.merged_from]
        assert absorbed and survivors
        absorbed_ids = {r.span_id for r in absorbed}
        claimed = {sid for r in survivors for sid in r.merged_from}
        assert absorbed_ids <= claimed
        for record in absorbed:
            assert all(latency >= 0 for latency in record.stages.values())
        # Even under 30% loss the observatory explains nearly every apply.
        agent = testbed.x86_agent
        applied = agent.tunes_applied + agent.triggers_applied
        assert collector.link_fraction(applied) >= 0.95

    def test_lossy_traced_run_is_reproducible(self):
        a = _traced_rubis(seed=5, loss=0.3, reliable=True)
        b = _traced_rubis(seed=5, loss=0.3, reliable=True)
        ids_a = [(r.trace_id, r.span_id, r.applied_at) for r in a.testbed.observatory.records]
        ids_b = [(r.trace_id, r.span_id, r.applied_at) for r in b.testbed.observatory.records]
        assert ids_a == ids_b


class TestTracingIsFree:
    def test_results_identical_with_tracing_off_and_on(self):
        """Tracing observes; it must never perturb. Same seed, tracing
        toggled: application-level results are bit-identical."""
        traced = _traced_rubis(seed=5, tracing=True)
        plain = _traced_rubis(seed=5, tracing=False)
        assert plain.testbed.observatory is None
        assert (
            traced.client.stats.throughput.rate_per_second()
            == plain.client.stats.throughput.rate_per_second()
        )
        assert (
            traced.testbed.x86_agent.tunes_applied
            == plain.testbed.x86_agent.tunes_applied
        )
        assert (
            traced.client.stats.responses.overall_summary_ms()
            == plain.client.stats.responses.overall_summary_ms()
        )

    def test_untraced_run_mints_nothing(self):
        plain = _traced_rubis(seed=5, tracing=False)
        testbed = plain.testbed
        assert not testbed.span_minter.active
        assert testbed.span_minter.minted == 0
        # Messages crossed the channel without span baggage.
        assert testbed.x86_agent.tunes_applied > 0


class TestUntimestampedApplies:
    def test_sentinel_sent_at_skipped_and_counted(self):
        """Regression (this ISSUE): a Tune built outside an agent carries
        the ``sent_at = -1`` sentinel; recording ``now - (-1)`` would poison
        ``apply_latencies`` with bogus near-``now`` values."""
        from repro.x86 import X86Island
        from repro.ixp import IXPIsland

        sim = Simulator()
        x86 = X86Island(sim)
        ixp = IXPIsland(sim)
        channel = CoordinationChannel(sim)
        x86_agent = CoordinationAgent(
            sim, x86, channel.endpoint("x86"), handler_vm=x86.dom0
        )
        CoordinationAgent(sim, ixp, channel.endpoint("ixp"))
        x86.create_vm("guest")
        sim.run(until=seconds(1))  # make "now" large enough to poison means
        # A raw message injected at the endpoint, bypassing send_tune.
        channel.endpoint("ixp").send(TuneMessage(EntityId("x86", "guest"), +64))
        sim.run(until=seconds(2))
        assert x86_agent.tunes_applied == 1
        assert x86_agent.untimestamped_applies == 1
        assert x86_agent.apply_latencies == []

    def test_agent_sent_messages_still_timed(self):
        deployment = _traced_rubis()
        agent = deployment.testbed.x86_agent
        assert agent.untimestamped_applies == 0
        assert len(agent.apply_latencies) == agent.tunes_applied + agent.triggers_applied


def test_trace_run_result_duration_scales():
    """Smoke the experiment driver at a tiny duration (full CLI smoke
    lives in tests/experiments/test_trace.py)."""
    from repro.experiments import run_traced_rubis

    base = RubisConfig(
        num_sessions=10,
        requests_per_session=4,
        think_time_mean=ms(300),
        warmup=seconds(2),
    )
    result = run_traced_rubis(
        duration=seconds(4), seed=2, destination="/dev/null",
        config=replace(base, testbed=TestbedConfig(seed=2)),
    )
    assert result.loops_completed > 0
    assert result.link_fraction >= 0.95
    assert result.events_written > 0
