"""Tests for the reliable delivery layer over the coordination mailbox."""

import pytest

from repro.interconnect import (
    AckFrame,
    CoordinationChannel,
    DataFrame,
    ReliableChannel,
    ReliableConfig,
)
from repro.sim import RandomStreams, Simulator, TraceLog, Tracer, ms, us


def build_reliable(sim, loss=0.0, seed=11, latency=us(100), config=None, tracer=None):
    rng = RandomStreams(seed).stream("loss") if loss > 0 else None
    raw = CoordinationChannel(
        sim, latency=latency, loss_probability=loss, rng=rng, tracer=tracer
    )
    return ReliableChannel(raw, config, tracer=tracer)


class TestFrames:
    def test_repr(self):
        assert "#3" in repr(DataFrame(3, "hello"))
        assert "#3" in repr(AckFrame(3))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ReliableConfig(initial_rto=0)
        with pytest.raises(ValueError):
            ReliableConfig(backoff=0.5)
        with pytest.raises(ValueError):
            ReliableConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ReliableConfig(max_rto=0)


class TestLosslessDelivery:
    def test_messages_delivered_and_acked(self):
        sim = Simulator()
        reliable = build_reliable(sim)
        received = []
        reliable.endpoint("x86").set_receiver(received.append)
        for i in range(10):
            reliable.endpoint("ixp").send(i)
        sim.run()
        assert received == list(range(10))
        sender = reliable.endpoint("ixp")
        assert sender.frames_sent == 10
        assert sender.frames_acked == 10
        assert sender.retransmits == 0
        assert sender.dead_lettered == 0
        assert sender.inflight == 0

    def test_bidirectional(self):
        sim = Simulator()
        reliable = build_reliable(sim)
        to_x86, to_ixp = [], []
        reliable.endpoint("x86").set_receiver(to_x86.append)
        reliable.endpoint("ixp").set_receiver(to_ixp.append)
        reliable.endpoint("ixp").send("a")
        reliable.endpoint("x86").send("b")
        sim.run()
        assert to_x86 == ["a"] and to_ixp == ["b"]

    def test_endpoint_lookup(self):
        sim = Simulator()
        reliable = build_reliable(sim)
        assert reliable.endpoint("ixp").name == "ixp"
        with pytest.raises(KeyError):
            reliable.endpoint("gpu")


class TestLossRecovery:
    def test_all_messages_recovered_despite_loss(self):
        sim = Simulator()
        # At 40% loss a round trip fails with p = 1 - 0.6^2 = 0.64; a
        # budget of 16 retries makes per-frame dead-letter odds ~ 5e-4.
        reliable = build_reliable(sim, loss=0.4, config=ReliableConfig(max_retries=16))
        received = []
        reliable.endpoint("x86").set_receiver(received.append)
        for i in range(100):
            reliable.endpoint("ixp").send(i)
        sim.run()
        sender = reliable.endpoint("ixp")
        assert sorted(received) == list(range(100))  # exactly once each
        assert sender.retransmits > 0
        assert sender.dead_lettered == 0
        assert reliable.channel.messages_lost > 0

    def test_duplicates_suppressed_and_reacked(self):
        """A lost ack makes the sender retransmit; the receiver must drop
        the duplicate payload but ack it again."""
        sim = Simulator()
        reliable = build_reliable(
            sim, loss=0.4, seed=3, config=ReliableConfig(max_retries=16)
        )
        received = []
        reliable.endpoint("x86").set_receiver(received.append)
        for i in range(200):
            reliable.endpoint("ixp").send(i)
        sim.run()
        receiver = reliable.endpoint("x86")
        assert sorted(received) == list(range(200))
        assert receiver.dups_dropped > 0
        assert receiver.acks_sent == receiver.received + receiver.dups_dropped

    def test_backoff_grows_rto(self):
        """With the peer unreachable, retransmissions must space out
        exponentially: 6 retries at backoff 2 take >= (2^6 - 1) RTOs."""
        sim = Simulator()
        config = ReliableConfig(initial_rto=ms(1), backoff=2.0, max_retries=6)
        raw = CoordinationChannel(
            sim,
            latency=us(100),
            loss_probability=0.99,
            rng=RandomStreams(2).stream("loss"),
        )
        wrapped = ReliableChannel(raw, config)
        wrapped.endpoint("x86").set_receiver(lambda m: None)
        wrapped.endpoint("ixp").send("x")
        sim.run()
        sender = wrapped.endpoint("ixp")
        # Whether or not the frame eventually got through, the last timer
        # fires after sum(rto * 2^k) ~ 63 ms; the run must span that.
        assert sim.now >= ms(1) * (2 ** config.max_retries - 1)
        assert sender.retransmits <= config.max_retries


class TestDeadLetter:
    def _blackout_pair(self, sim, config):
        """A channel that loses (almost) everything, so retries exhaust."""
        raw = CoordinationChannel(
            sim,
            latency=us(100),
            loss_probability=0.999,
            rng=RandomStreams(9).stream("loss"),
        )
        wrapped = ReliableChannel(raw, config)
        wrapped.endpoint("x86").set_receiver(lambda m: None)
        return wrapped

    def test_exhausted_retries_dead_letter_without_raising(self):
        sim = Simulator()
        wrapped = self._blackout_pair(sim, ReliableConfig(max_retries=3))
        for i in range(30):
            wrapped.endpoint("ixp").send(i)
        sim.run()  # must complete without exceptions
        sender = wrapped.endpoint("ixp")
        assert sender.dead_lettered > 0
        assert sender.dead_lettered + sender.frames_acked == sender.frames_sent
        assert sender.inflight == 0

    def test_zero_retry_budget_is_ack_observer(self):
        sim = Simulator()
        wrapped = self._blackout_pair(sim, ReliableConfig(max_retries=0))
        wrapped.endpoint("ixp").send("only-try")
        sim.run()
        sender = wrapped.endpoint("ixp")
        assert sender.retransmits == 0
        assert sender.dead_lettered == 1


class TestCoalescing:
    def _coalescing_endpoint(self, sim, loss=0.0, seed=5):
        reliable = build_reliable(sim, loss=loss, seed=seed)
        sender = reliable.endpoint("ixp")
        sender.set_coalescer(
            lambda m: m[0],  # key: first tuple element
            lambda old, new: (old[0], old[1] + new[1]) if old[1] + new[1] else None,
        )
        return reliable, sender

    def test_burst_collapses_to_two_frames(self):
        sim = Simulator()
        reliable, sender = self._coalescing_endpoint(sim)
        received = []
        reliable.endpoint("x86").set_receiver(received.append)
        for _ in range(50):
            sender.send(("web", 1))
        sim.run()
        # First send goes out immediately; the other 49 merge into one
        # follow-up frame released by the first ack.
        assert sender.frames_sent == 2
        assert sender.coalesced == 49
        assert sum(delta for _key, delta in received) == 50

    def test_distinct_keys_do_not_merge(self):
        sim = Simulator()
        reliable, sender = self._coalescing_endpoint(sim)
        reliable.endpoint("x86").set_receiver(lambda m: None)
        sender.send(("web", 1))
        sender.send(("db", 1))
        sim.run()
        assert sender.frames_sent == 2
        assert sender.coalesced == 0

    def test_cancelling_deltas_drop_pending_frame(self):
        sim = Simulator()
        reliable, sender = self._coalescing_endpoint(sim)
        received = []
        reliable.endpoint("x86").set_receiver(received.append)
        sender.send(("web", 4))    # in flight
        sender.send(("web", 8))    # pending
        sender.send(("web", -8))   # cancels the pending frame
        sim.run()
        assert sender.frames_sent == 1
        assert received == [("web", 4)]
        assert sender.pending_coalesced == 0

    def test_delta_conserved_under_loss(self):
        sim = Simulator()
        reliable, sender = self._coalescing_endpoint(sim, loss=0.3)
        received = []
        reliable.endpoint("x86").set_receiver(received.append)
        for _ in range(200):
            sender.send(("web", 1))
        sim.run()
        assert sender.dead_lettered == 0
        assert sum(delta for _key, delta in received) == 200

    def test_dead_letter_releases_queued_merge(self):
        """A dead-lettered frame must not strand the deltas merged behind
        it: the pending frame gets its own transmission attempts."""
        sim = Simulator()
        raw = CoordinationChannel(
            sim,
            latency=us(100),
            loss_probability=0.999,
            rng=RandomStreams(9).stream("loss"),
        )
        wrapped = ReliableChannel(raw, ReliableConfig(max_retries=2))
        sender = wrapped.endpoint("ixp")
        sender.set_coalescer(lambda m: m[0], lambda a, b: (a[0], a[1] + b[1]))
        wrapped.endpoint("x86").set_receiver(lambda m: None)
        sender.send(("web", 1))
        sender.send(("web", 1))
        sim.run()
        assert sender.frames_sent == 2  # the merged frame was attempted
        assert sender.dead_lettered == 2
        assert sender.pending_coalesced == 0


class TestTracing:
    def test_reliability_trace_kinds_emitted(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        reliable = build_reliable(sim, loss=0.4, seed=7, tracer=tracer)
        sender = reliable.endpoint("ixp")
        reliable.endpoint("x86").set_receiver(lambda m: None)
        for i in range(40):
            sender.send(i)  # distinct frames: loss must trigger retries
        sim.run()
        counts = log.count_by_kind()
        assert counts.get("frame-sent", 0) == sender.frames_sent == 40
        assert counts.get("frame-retransmit", 0) == sender.retransmits >= 1
        assert counts.get("frame-acked", 0) == sender.frames_acked >= 1
        assert counts.get("msg-dropped", 0) == reliable.channel.messages_lost >= 1

    def test_coalesce_trace_kind_emitted(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log, kinds=["frame-coalesced"])
        reliable = build_reliable(sim, tracer=tracer)
        sender = reliable.endpoint("ixp")
        sender.set_coalescer(lambda m: "k", lambda a, b: a + b)
        reliable.endpoint("x86").set_receiver(lambda m: None)
        for _ in range(5):
            sender.send(1)
        sim.run()
        assert len(log.of_kind("frame-coalesced")) == sender.coalesced == 4


class TestRawChannelAccounting:
    def test_dropped_counter_and_trace(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log, kinds=["msg-dropped", "msg-sent"])
        rng = RandomStreams(7).stream("loss")
        channel = CoordinationChannel(
            sim, latency=0, loss_probability=0.5, rng=rng, tracer=tracer
        )
        channel.endpoint("x86").set_receiver(lambda m: None)
        for i in range(100):
            channel.endpoint("ixp").send(i)
        sim.run()
        ixp = channel.endpoint("ixp")
        x86 = channel.endpoint("x86")
        # sent counts attempts: drops + deliveries + (0 in flight at end).
        assert ixp.sent == 100
        assert ixp.dropped == channel.messages_lost
        assert ixp.sent - ixp.dropped == x86.received
        assert len(log.of_kind("msg-dropped")) == ixp.dropped
        assert len(log.of_kind("msg-sent")) == ixp.sent - ixp.dropped

    def test_stats_snapshot(self):
        sim = Simulator()
        channel = CoordinationChannel(sim, latency=0)
        channel.endpoint("x86").set_receiver(lambda m: None)
        channel.endpoint("ixp").send("m")
        sim.run()
        stats = channel.stats()
        assert stats["sent"] == 1 and stats["received"] == 1
        assert stats["dropped"] == 0 and stats["raw_lost"] == 0


class TestDeadLetterSurfacing:
    """The on_dead_letter hook and per-entity counts (fault-domain feed)."""

    def _blackout_pair(self, sim, config):
        raw = CoordinationChannel(
            sim,
            latency=us(100),
            loss_probability=0.999,
            rng=RandomStreams(9).stream("loss"),
        )
        wrapped = ReliableChannel(raw, config)
        wrapped.endpoint("x86").set_receiver(lambda m: None)
        return wrapped

    def test_on_dead_letter_hook_fires_per_dead_frame(self):
        sim = Simulator()
        wrapped = self._blackout_pair(sim, ReliableConfig(max_retries=1))
        seen = []
        sender = wrapped.endpoint("ixp")
        sender.on_dead_letter = seen.append
        for i in range(20):
            sender.send(i)
        sim.run()
        assert sender.dead_lettered > 0
        assert len(seen) == sender.dead_lettered
        assert all(message in range(20) for message in seen)

    def test_dead_letters_keyed_per_entity(self):
        from repro.coordination import TuneMessage
        from repro.platform import EntityId

        sim = Simulator()
        wrapped = self._blackout_pair(sim, ReliableConfig(max_retries=1))
        sender = wrapped.endpoint("ixp")
        web = EntityId("x86", "web")
        db = EntityId("x86", "db")
        for _ in range(6):
            sender.send(TuneMessage(entity=web, delta=1))
        for _ in range(3):
            sender.send(TuneMessage(entity=db, delta=-1))
        sender.send("no-entity-attribute")
        sim.run()
        per_entity = wrapped.dead_letters_by_entity()
        # Only entity-bearing messages are keyed; totals never exceed the
        # dead-letter counter and every key is a stringified entity id.
        assert sum(per_entity.values()) <= sender.dead_lettered
        assert set(per_entity) <= {"x86/web", "x86/db"}
        assert per_entity.get("x86/web", 0) > 0

    def test_controller_channel_health_exposes_per_entity_counts(self):
        """The channel reports its own health: ``stats()`` counts the
        dead letters of both directions, ``dead_letters_by_entity()``
        says whose they were."""
        from repro.coordination import TuneMessage
        from repro.platform import EntityId

        sim = Simulator()
        wrapped = self._blackout_pair(sim, ReliableConfig(max_retries=1))
        for _ in range(8):
            wrapped.endpoint("ixp").send(TuneMessage(entity=EntityId("x86", "web"), delta=1))
        sim.run()
        stats = wrapped.stats()
        assert stats["dead_lettered"] > 0
        assert stats["dead_lettered"] == (
            wrapped.endpoint("ixp").dead_lettered + wrapped.endpoint("x86").dead_lettered
        )
        assert wrapped.dead_letters_by_entity() == {"x86/web": stats["dead_lettered"]}
