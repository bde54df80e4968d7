"""Tests for time helpers and the tracing hub."""

from repro.sim import (
    NS_PER_MS,
    NS_PER_S,
    NS_PER_US,
    Simulator,
    TraceLog,
    Tracer,
    ms,
    ns,
    seconds,
    to_ms,
    to_seconds,
    us,
)


class TestTimeUnits:
    def test_conversions(self):
        assert us(1) == NS_PER_US
        assert ms(1) == NS_PER_MS
        assert seconds(1) == NS_PER_S
        assert ns(5.4) == 5

    def test_fractions(self):
        assert ms(1.5) == 1_500_000
        assert us(0.5) == 500

    def test_roundtrip(self):
        assert to_ms(ms(125)) == 125
        assert to_seconds(seconds(3)) == 3

    def test_integer_results(self):
        assert isinstance(ms(2.7), int)
        assert isinstance(seconds(0.001), int)


class TestTracer:
    def test_emit_reaches_kind_subscriber(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log, kinds=["alpha"])
        tracer.emit("src", "alpha", detail=1)
        tracer.emit("src", "beta", detail=2)
        assert len(log) == 1
        assert log.records[0].kind == "alpha"
        assert log.records[0].payload == {"detail": 1}

    def test_global_subscriber_sees_everything(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        tracer.emit("a", "x")
        tracer.emit("b", "y")
        assert len(log) == 2

    def test_records_stamped_with_sim_time(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log, kinds=["tick"])
        sim.call_in(500, lambda: tracer.emit("clock", "tick"))
        sim.run()
        assert log.records[0].time == 500

    def test_disabled_tracer_emits_nothing(self):
        sim = Simulator()
        tracer = Tracer(sim, enabled=False)
        log = TraceLog()
        tracer.subscribe(log)
        tracer.emit("src", "kind")
        assert len(log) == 0

    def test_of_kind_filter(self):
        sim = Simulator()
        tracer = Tracer(sim)
        log = TraceLog()
        tracer.subscribe(log)
        tracer.emit("s", "a")
        tracer.emit("s", "b")
        tracer.emit("s", "a")
        assert len(log.of_kind("a")) == 2

    def test_no_subscribers_is_cheap_and_safe(self):
        sim = Simulator()
        tracer = Tracer(sim)
        tracer.emit("s", "unwatched")  # must not raise
