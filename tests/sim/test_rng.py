"""Tests for deterministic random streams."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomStreams


def test_same_seed_same_draws():
    a = RandomStreams(42).stream("x")
    b = RandomStreams(42).stream("x")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_are_independent():
    streams = RandomStreams(42)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_differ():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_adding_consumer_does_not_perturb_existing():
    """Creating stream 'b' must not change what 'a' later draws."""
    one = RandomStreams(42)
    first = one.stream("a")
    baseline = [first.random() for _ in range(3)]

    two = RandomStreams(42)
    stream_a = two.stream("a")
    two.stream("b").random()  # extra consumer
    assert [stream_a.random() for _ in range(3)] == baseline


def test_exponential_positive_and_mean():
    stream = RandomStreams(3).stream("exp")
    samples = [stream.exponential(100.0) for _ in range(4000)]
    assert all(s >= 0 for s in samples)
    mean = sum(samples) / len(samples)
    assert 90 < mean < 110


def test_exponential_rejects_bad_mean():
    with pytest.raises(ValueError):
        RandomStreams(1).stream("x").exponential(0)


def test_bounded_normal_respects_minimum():
    stream = RandomStreams(5).stream("norm")
    samples = [stream.bounded_normal(10.0, 50.0, minimum=2.0) for _ in range(500)]
    assert all(s >= 2.0 for s in samples)


def test_weighted_choice_respects_weights():
    stream = RandomStreams(9).stream("choice")
    draws = [stream.weighted_choice(["rare", "common"], [1, 99]) for _ in range(1000)]
    assert draws.count("common") > 900


def test_weighted_choice_length_mismatch():
    with pytest.raises(ValueError):
        RandomStreams(1).stream("x").weighted_choice(["a"], [1, 2])


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_property_reproducible_for_any_seed_and_name(seed, name):
    a = RandomStreams(seed).stream(name).random()
    b = RandomStreams(seed).stream(name).random()
    assert a == b
