"""Windowed-counter alignment, and the channel's trace totals against
the counters its producers keep."""

from repro.interconnect import CoordinationChannel, ReliableChannel
from repro.metrics import WindowedCounter
from repro.sim import RandomStreams, Simulator, TraceLog, Tracer, ms, seconds, us

#: Channel trace kind -> the ``ReliableChannel.stats()`` counter that
#: counts the same event at its producer.
TRACE_KIND_COUNTERS = {
    "frame-sent": "frames_sent",
    "frame-retransmit": "retransmits",
    "frame-acked": "frames_acked",
    "frame-dup-dropped": "dups_dropped",
    "frame-coalesced": "coalesced",
    "frame-dead-letter": "dead_lettered",
    "msg-dropped": "raw_lost",
}


class TestWindowedCounterAlignment:
    def test_straddling_bucket_counted_in_full(self):
        """Regression: a bucket straddling an unaligned ``start`` used to be
        included or excluded whole based on its *start* time, misattributing
        its events to a span that does not contain them all."""
        sim = Simulator()
        counter = WindowedCounter(sim)

        def emitter(sim):
            yield sim.timeout(ms(100))
            counter.record(10)  # lands in bucket [0 s, 1 s)

        sim.spawn(emitter(sim))
        sim.run()
        # Unaligned query starting after the event: the old code summed the
        # whole bucket (its start 0 >= start failed -> excluded... or for
        # start=50ms included all 10 over a 0.95 s span = 10.5/s). Clamped
        # to the full [0 s, 1 s) window, the rate is exactly 10/s.
        assert counter.rate_per_second(ms(50), seconds(1)) == 10.0
        # A query clipped inside one window still charges the whole window.
        assert counter.rate_per_second(ms(50), ms(950)) == 10.0

    def test_unaligned_end_extends_to_bucket_boundary(self):
        sim = Simulator()
        counter = WindowedCounter(sim)

        def emitter(sim):
            yield sim.timeout(seconds(1) + ms(500))
            counter.record(6)  # bucket [1 s, 2 s)

        sim.spawn(emitter(sim))
        sim.run()
        # end=1.6 s straddles the event's bucket: span clamps to [1 s, 2 s).
        assert counter.rate_per_second(seconds(1), seconds(1) + ms(600)) == 6.0
        # A range strictly before the bucket sees nothing.
        assert counter.rate_per_second(0, seconds(1)) == 0.0

    def test_aligned_queries_unchanged(self):
        sim = Simulator()
        counter = WindowedCounter(sim)

        def emitter(sim):
            for _ in range(4):
                counter.record(5)
                yield sim.timeout(seconds(1))

        sim.spawn(emitter(sim))
        sim.run()
        assert counter.rate_per_second() == 5.0
        assert counter.rate_per_second(seconds(1), seconds(3)) == 5.0


class TestChannelTraceTotals:
    def test_trace_totals_match_producer_counters(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        raw = CoordinationChannel(
            sim,
            latency=us(100),
            loss_probability=0.4,
            rng=RandomStreams(13).stream("loss"),
            tracer=tracer,
        )
        reliable = ReliableChannel(raw)
        sender = reliable.endpoint("ixp")
        reliable.endpoint("x86").set_receiver(lambda m: None)
        for i in range(40):
            sender.send(i)
        sim.run()
        totals = log.count_by_kind()
        stats = reliable.stats()
        for kind, counter in TRACE_KIND_COUNTERS.items():
            assert totals.get(kind, 0) == stats[counter], kind
        assert totals["frame-sent"] == sender.frames_sent == 40
        assert totals["frame-retransmit"] == sender.retransmits > 0
        assert totals["frame-acked"] == sender.frames_acked
        assert totals["msg-dropped"] == raw.messages_lost > 0
