"""Counted resources with FIFO grant order.

:class:`Resource` models a pool of identical servers (e.g. DMA engines, bus
slots). Processes ``yield resource.request()`` and must ``release`` the
returned request when done; a ``with``-style helper is provided through
:meth:`Request.__enter__` for straight-line process code.
"""

from __future__ import annotations

from collections import deque

from .core import Event, Simulator


class Request(Event):
    """A pending or granted claim on one unit of a :class:`Resource`."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        self.resource.release(self)

    def cancel(self) -> None:
        """Withdraw a not-yet-granted request (no-op if already granted)."""
        self.resource._cancel(self)


class Resource:
    """``capacity`` interchangeable units, granted first-come first-served."""

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = ""):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.sim = sim
        self.name = name or "resource"
        self.capacity = capacity
        self._users: list[Request] = []
        self._waiting: deque[Request] = deque()

    @property
    def in_use(self) -> int:
        """Number of granted units."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests still waiting for a grant."""
        return len(self._waiting)

    def request(self) -> Request:
        """Claim one unit; the returned event fires when granted."""
        req = Request(self)
        self._waiting.append(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted unit to the pool."""
        try:
            self._users.remove(request)
        except ValueError:
            raise ValueError(f"{request!r} does not hold {self.name}") from None
        self._grant()

    def _cancel(self, request: Request) -> None:
        try:
            self._waiting.remove(request)
        except ValueError:
            pass  # already granted or already cancelled

    def _grant(self) -> None:
        while self._waiting and len(self._users) < self.capacity:
            req = self._waiting.popleft()
            self._users.append(req)
            req.succeed(req)
