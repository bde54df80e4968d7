"""Waitable queues (stores) for inter-process communication.

A :class:`Store` is an unbounded-or-bounded FIFO of arbitrary items.
``put``/``get`` return events, so processes block naturally when the store is
full/empty. :class:`PriorityStore` dequeues the smallest item first, which
the IXP model uses for weighted packet-queue service.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Generic, Optional, TypeVar

from .core import Event, Simulator

T = TypeVar("T")


class StorePut(Event):
    """Event returned by :meth:`Store.put`; fires once the item is stored."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim, name="store-put")
        self.item = item


class StoreGet(Event):
    """Event returned by :meth:`Store.get`; fires with the item as value."""

    __slots__ = ()


class Store(Generic[T]):
    """FIFO item store with optional capacity.

    The queue discipline is strict FIFO on both sides: puts complete in the
    order issued, and blocked getters are served in the order they asked.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name or "store"
        self.capacity = capacity
        self.items: deque[T] = deque()
        self._putters: deque[StorePut] = deque()
        self._getters: deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def is_full(self) -> bool:
        """True when a further ``put`` would block."""
        return self.capacity is not None and len(self.items) >= self.capacity

    def put(self, item: T) -> StorePut:
        """Deposit ``item``; the returned event fires when there is room."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Request one item; the returned event fires with the item."""
        event = StoreGet(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def try_put(self, item: T) -> bool:
        """Non-blocking put: False (and no side effect) when full.

        Otherwise the item is stored at once and handed to the oldest
        waiting getter, exactly as :meth:`put`'s dispatch would, but no
        :class:`StorePut` is built: nobody can wait on this put, so it
        files no kernel entry. FIFO order holds on both sides. A store
        with room has no blocked :meth:`put` (a blocked put means the
        store is full, and every get re-runs the dispatch that admits
        it), so this put cannot overtake one; and a waiting getter means
        the store was empty, so the getter takes this very item.
        """
        if self.is_full:
            return False
        self._store_item(item)
        if self._getters:
            self._getters.popleft().succeed(self._pop_item())
        return True

    def try_get(self) -> Optional[T]:
        """Non-blocking get: None when nothing is immediately available."""
        if not self.items:
            return None
        # Serve through the normal path so queued putters are admitted.
        item = self._pop_item()
        self._dispatch()
        return item

    def peek(self) -> Optional[T]:
        """The item ``get`` would return next, without removing it."""
        return self.items[0] if self.items else None

    def cancel_get(self, event: StoreGet) -> bool:
        """Withdraw a pending get; False if it already fired (or is foreign)."""
        try:
            self._getters.remove(event)
            return True
        except ValueError:
            return False

    # -- internals --------------------------------------------------------

    def _store_item(self, item: T) -> None:
        self.items.append(item)

    def _pop_item(self) -> T:
        return self.items.popleft()

    def _dispatch(self) -> None:
        """Admit pending puts while room, satisfy pending gets while items."""
        progressed = True
        while progressed:
            progressed = False
            while self._putters and not self.is_full:
                put = self._putters.popleft()
                self._store_item(put.item)
                put.succeed()
                progressed = True
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self._pop_item())
                progressed = True


class PriorityStore(Store[T]):
    """Store that always yields the smallest item (heap order).

    Items must be comparable; wrap them in :class:`PriorityItem` when the
    payload itself is not.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None, name: str = ""):
        super().__init__(sim, capacity=capacity, name=name or "priority-store")
        self._heap: list[T] = []
        self.items = self._heap  # type: ignore[assignment] # len()/truthiness only

    def _store_item(self, item: T) -> None:
        heapq.heappush(self._heap, item)

    def _pop_item(self) -> T:
        return heapq.heappop(self._heap)

    def peek(self) -> Optional[T]:
        return self._heap[0] if self._heap else None


class PriorityItem:
    """Orderable wrapper pairing a sort key with an arbitrary payload."""

    __slots__ = ("priority", "item")

    def __init__(self, priority: Any, item: Any):
        self.priority = priority
        self.item = item

    def __lt__(self, other: "PriorityItem") -> bool:
        return self.priority < other.priority

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PriorityItem) and self.priority == other.priority

    def __repr__(self) -> str:
        return f"PriorityItem({self.priority!r}, {self.item!r})"
