"""Tests for stores: FIFO semantics, capacity blocking, priority order."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import PriorityItem, PriorityStore, Simulator, Store


class TestStoreBasics:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("item")
        get = store.get()
        sim.run()
        assert get.value == "item"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        get = store.get()
        sim.run()
        assert not get.triggered
        store.put("late")
        sim.run()
        assert get.value == "late"

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        for i in range(5):
            store.put(i)
        results = [store.get() for _ in range(5)]
        sim.run()
        assert [g.value for g in results] == [0, 1, 2, 3, 4]

    def test_getters_served_in_arrival_order(self):
        sim = Simulator()
        store = Store(sim)
        first, second = store.get(), store.get()
        store.put("a")
        store.put("b")
        sim.run()
        assert first.value == "a"
        assert second.value == "b"

    def test_len_tracks_contents(self):
        sim = Simulator()
        store = Store(sim)
        assert len(store) == 0
        store.put(1)
        assert len(store) == 1

    def test_peek_does_not_remove(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        assert store.peek() == "x"
        assert len(store) == 1

    def test_peek_empty(self):
        assert Store(Simulator()).peek() is None


class TestCapacity:
    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Store(Simulator(), capacity=0)

    def test_put_blocks_when_full(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        first = store.put("a")
        second = store.put("b")
        sim.run()
        assert first.triggered
        assert not second.triggered
        get = store.get()
        sim.run()
        assert get.value == "a"
        assert second.triggered  # admitted once space freed
        assert store.peek() == "b"

    def test_is_full(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        store.put(1)
        assert not store.is_full
        store.put(2)
        assert store.is_full

    def test_try_put_respects_capacity(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.try_put("a") is True
        assert store.try_put("b") is False
        assert len(store) == 1

    def test_try_get(self):
        sim = Simulator()
        store = Store(sim)
        assert store.try_get() is None
        store.put("x")
        assert store.try_get() == "x"
        assert store.try_get() is None

    def test_try_get_admits_blocked_putter(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put("a")
        blocked = store.put("b")
        assert store.try_get() == "a"
        assert blocked.triggered


class TestCancelGet:
    def test_cancel_pending_get(self):
        sim = Simulator()
        store = Store(sim)
        get = store.get()
        assert store.cancel_get(get) is True
        store.put("x")
        sim.run()
        assert not get.triggered  # cancelled getter never receives
        assert store.peek() == "x"

    def test_cancel_fired_get_returns_false(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        get = store.get()
        assert store.cancel_get(get) is False


class TestPriorityStore:
    def test_smallest_first(self):
        sim = Simulator()
        store = PriorityStore(sim)
        for value in (5, 1, 3):
            store.put(value)
        gets = [store.get() for _ in range(3)]
        sim.run()
        assert [g.value for g in gets] == [1, 3, 5]

    def test_priority_item_wrapper(self):
        sim = Simulator()
        store = PriorityStore(sim)
        store.put(PriorityItem(2, "second"))
        store.put(PriorityItem(1, "first"))
        get = store.get()
        sim.run()
        assert get.value.item == "first"

    def test_priority_item_ordering(self):
        assert PriorityItem(1, "a") < PriorityItem(2, "b")
        assert PriorityItem(3, "x") == PriorityItem(3, "y")


class TestStoreWithProcesses:
    def test_producer_consumer_pipeline(self):
        sim = Simulator()
        store = Store(sim, capacity=2)
        consumed = []

        def producer(sim):
            for i in range(10):
                yield store.put(i)

        def consumer(sim):
            while len(consumed) < 10:
                item = yield store.get()
                consumed.append(item)
                yield sim.timeout(5)

        sim.spawn(producer(sim))
        sim.spawn(consumer(sim))
        sim.run()
        assert consumed == list(range(10))


def _fire_and_forget_run(use_try_put):
    """One producer/consumer program; returns ``(log, now, events, puts)``.

    The paired runs differ only in how a put that nobody waits on is
    spelled: ``store.try_put(x)`` or ``store.put(x)`` with its event
    dropped. Such puts land on getters that are already waiting, come
    several to an instant, and fill a bounded store that a slow consumer
    drains while a producer that yields its puts blocks on it.
    """
    sim = Simulator()
    log = []
    puts = [0]
    open_store = Store(sim, name="open")
    bounded = Store(sim, capacity=3, name="bounded")

    def post(store, item):
        if store.is_full:
            return  # a put() here would block; try_put would refuse
        puts[0] += 1
        if use_try_put:
            assert store.try_put(item) is True
        else:
            store.put(item)

    def consumer(name, store, pause):
        while True:
            item = yield store.get()
            log.append((sim.now, name, item))
            if pause:
                yield pause

    def producer():
        yield 5
        post(open_store, "a")  # the fast consumer is waiting
        post(open_store, "b")  # so is the slow one
        for i in range(5):
            post(open_store, i)  # nobody waiting: stored
        yield 2
        for i in range(5):
            post(bounded, ("fill", i))  # fills the bounded store
        yield 1
        post(open_store, "late")

    def blocking_producer():
        yield 8
        for i in range(4):
            yield bounded.put(("blocking", i))
            log.append((sim.now, "blocking-producer", i))

    def topper():
        yield 9
        for i in range(30):
            yield 1
            post(bounded, ("top", i))

    sim.spawn(consumer("fast", open_store, 0))
    sim.spawn(consumer("slow", open_store, 3))
    sim.spawn(consumer("drain", bounded, 4))
    sim.spawn(producer())
    sim.spawn(blocking_producer())
    sim.spawn(topper())
    sim.run()
    return log, sim.now, sim.events, puts[0]


class TestTryPutSpelling:
    """``try_put`` and a dropped ``put()`` event are one operation."""

    def test_fire_and_forget_spellings_agree(self):
        try_log, try_now, try_events, try_puts = _fire_and_forget_run(True)
        put_log, put_now, put_events, put_puts = _fire_and_forget_run(False)
        assert try_log == put_log
        assert try_now == put_now
        assert try_puts == put_puts
        # The put event is the only entry that goes; nothing else moves.
        assert put_events - try_events == try_puts
        # The program covers what it claims to.
        assert (5, "fast", "a") in try_log and (5, "slow", "b") in try_log
        assert try_log.count((5, "fast", 0)) == 1
        blocked_at = [t for t, name, _ in try_log if name == "blocking-producer"]
        assert len(blocked_at) == 4 and blocked_at[0] > 8
        assert any(item == ("fill", 2) for _, _, item in try_log)

    def test_try_put_on_full_store_never_overtakes_blocked_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put("first")
        blocked = store.put("blocked")
        sim.run()
        events = sim.events
        assert store.try_put("late") is False
        assert list(store.items) == ["first"]
        assert sim.events == events
        assert not blocked.triggered
        gets = [store.get(), store.get()]
        sim.run()
        assert [g.value for g in gets] == ["first", "blocked"]
        assert blocked.triggered
        assert store.try_put("late") is True
        assert store.peek() == "late"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=40))
def test_property_store_preserves_fifo(items):
    """Whatever goes in comes out in the same order."""
    sim = Simulator()
    store = Store(sim)
    for item in items:
        store.put(item)
    gets = [store.get() for _ in items]
    sim.run()
    assert [g.value for g in gets] == items


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), min_size=1, max_size=40))
def test_property_priority_store_sorts(items):
    """Priority store always yields ascending order."""
    sim = Simulator()
    store = PriorityStore(sim)
    for item in items:
        store.put(item)
    gets = [store.get() for _ in items]
    sim.run()
    assert [g.value for g in gets] == sorted(items)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(), min_size=1, max_size=30),
)
def test_property_capacity_never_exceeded(capacity, items):
    """A bounded store never holds more than its capacity."""
    sim = Simulator()
    store = Store(sim, capacity=capacity)
    observed = []

    def producer(sim):
        for item in items:
            yield store.put(item)
            observed.append(len(store))

    def consumer(sim):
        for _ in items:
            yield store.get()
            yield sim.timeout(1)

    sim.spawn(producer(sim))
    sim.spawn(consumer(sim))
    sim.run()
    assert all(count <= capacity for count in observed)
