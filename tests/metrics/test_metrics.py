"""Tests for statistics, collectors, response recording and efficiency."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.metrics import (
    CpuUtilizationSampler,
    OnlineStats,
    ResponseTimeRecorder,
    WindowedCounter,
    percentile,
    platform_efficiency,
    summarize,
)
from repro.sim import Simulator, ms, seconds
from repro.x86 import CreditScheduler, VirtualMachine


class TestSummarize:
    def test_basic_summary(self):
        summary = summarize([1, 2, 3, 4, 5])
        assert summary.count == 5
        assert summary.mean == 3
        assert summary.minimum == 1
        assert summary.maximum == 5
        assert summary.p50 == 3
        assert summary.spread == 4

    def test_single_value(self):
        summary = summarize([7.5])
        assert summary.mean == 7.5
        assert summary.std == 0
        assert summary.p99 == 7.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_percentile_interpolation(self):
        assert percentile([0, 10], 50) == 5
        assert percentile([0, 10, 20], 25) == 5

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=100))
    def test_property_summary_invariants(self, values):
        summary = summarize(values)
        ulp = 1e-6 * max(1.0, abs(summary.maximum), abs(summary.minimum))
        assert summary.minimum - ulp <= summary.mean <= summary.maximum + ulp
        assert summary.minimum <= summary.p50 <= summary.p95 <= summary.p99 <= summary.maximum
        assert summary.std >= 0


class TestOnlineStats:
    def test_matches_batch_statistics(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        online = OnlineStats()
        for value in values:
            online.add(value)
        batch = summarize(values)
        assert math.isclose(online.mean, batch.mean)
        assert math.isclose(online.std, batch.std)
        assert online.minimum == batch.minimum
        assert online.maximum == batch.maximum

    def test_empty_stats(self):
        online = OnlineStats()
        assert online.mean == 0.0
        assert online.variance == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=2, max_size=200))
    def test_property_welford_agrees_with_batch(self, values):
        online = OnlineStats()
        for value in values:
            online.add(value)
        batch = summarize(values)
        assert math.isclose(online.mean, batch.mean, rel_tol=1e-9, abs_tol=1e-6)
        assert math.isclose(online.std, batch.std, rel_tol=1e-6, abs_tol=1e-3)


class TestResponseRecorder:
    def test_per_key_summaries_in_ms(self):
        sim = Simulator()
        recorder = ResponseTimeRecorder(sim)
        recorder.record("Browse", ms(100))
        recorder.record("Browse", ms(300))
        recorder.record("PutBid", ms(50))
        summary = recorder.summary_ms("Browse")
        assert summary.mean == 200
        assert recorder.count("Browse") == 2
        assert recorder.count() == 3

    def test_overall_summary(self):
        sim = Simulator()
        recorder = ResponseTimeRecorder(sim)
        recorder.record("a", ms(10))
        recorder.record("b", ms(30))
        assert recorder.overall_summary_ms().mean == 20

    def test_unknown_key(self):
        recorder = ResponseTimeRecorder(Simulator())
        with pytest.raises(KeyError):
            recorder.summary_ms("ghost")

    def test_negative_latency_rejected(self):
        recorder = ResponseTimeRecorder(Simulator())
        with pytest.raises(ValueError):
            recorder.record("a", -1)

    def test_table_covers_all_keys(self):
        recorder = ResponseTimeRecorder(Simulator())
        recorder.record("a", ms(1))
        recorder.record("b", ms(2))
        assert set(recorder.table_ms()) == {"a", "b"}


class TestWindowedCounter:
    def test_rate_per_second(self):
        sim = Simulator()
        counter = WindowedCounter(sim)

        def emitter(sim):
            for _ in range(20):
                counter.record()
                yield sim.timeout(ms(500))

        sim.spawn(emitter(sim))
        sim.run()
        assert counter.total == 20
        assert 1.8 < counter.rate_per_second() < 2.2

    def test_rate_over_subrange(self):
        sim = Simulator()
        counter = WindowedCounter(sim)

        def emitter(sim):
            yield sim.timeout(seconds(5))
            for _ in range(10):
                counter.record()
                yield sim.timeout(ms(100))

        sim.spawn(emitter(sim))
        sim.run()
        assert counter.rate_per_second(seconds(5), seconds(6)) == 10.0
        assert counter.rate_per_second(seconds(0), seconds(5)) == 0.0

    def test_empty_counter(self):
        counter = WindowedCounter(Simulator())
        assert counter.rate_per_second() == 0.0


class TestCpuSampler:
    def test_utilization_tracks_load(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        sampler = CpuUtilizationSampler(sim, [vm], window=seconds(1))

        def half_load(sim):
            while True:
                yield vm.execute(ms(5))
                yield sim.timeout(ms(5))

        sim.spawn(half_load(sim))
        sim.run(until=seconds(5))
        mean = sampler.mean_total("vm", skip_first=1)
        assert 40 < mean < 60

    def test_user_sys_split_in_samples(self):
        sim = Simulator()
        scheduler = CreditScheduler(sim, num_cpus=1)
        vm = VirtualMachine(sim, "vm")
        scheduler.add_domain(vm)
        sampler = CpuUtilizationSampler(sim, [vm], window=seconds(1))

        def sys_only(sim):
            while True:
                yield vm.execute(ms(2), kind="sys")
                yield sim.timeout(ms(8))

        sim.spawn(sys_only(sim))
        sim.run(until=seconds(3))
        sample = sampler.series("vm")[-1]
        assert sample.user == 0
        assert sample.sys > 0


class TestEfficiency:
    def test_matches_paper_arithmetic(self):
        # Table 2: 68 req/s at ~132.6% total utilisation -> 51.28
        assert math.isclose(platform_efficiency(68, 132.6), 51.28, rel_tol=0.01)

    def test_rejects_zero_utilization(self):
        with pytest.raises(ValueError):
            platform_efficiency(10, 0)
