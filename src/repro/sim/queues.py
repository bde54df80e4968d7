"""Waitable queues (stores) for inter-process communication.

A :class:`Store` is an unbounded-or-bounded FIFO of arbitrary items.
``put``/``get`` return events, so processes block naturally when the store is
full/empty.
"""

from __future__ import annotations

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
        self.items.append(item)
        if self._getters:
            self._getters.popleft().succeed(self.items.popleft())
        return True

    def try_get(self) -> Optional[T]:
        """Non-blocking get: None when nothing is immediately available."""
        if not self.items:
            return None
        # Serve through the normal path so queued putters are admitted.
        item = self.items.popleft()
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

    def _dispatch(self) -> None:
        """Admit pending puts while room, satisfy pending gets while items."""
        progressed = True
        while progressed:
            progressed = False
            while self._putters and not self.is_full:
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progressed = True
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progressed = True
