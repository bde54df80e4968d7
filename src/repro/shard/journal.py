"""WindowJournal: the bounded record that makes recovery deterministic.

A shard's trajectory is a pure function of ``(topology, build,
build_args)`` plus the sequence of window grants and the routed inbound
boundary batches it received — that is the *entire* input surface of a
shard (the same argument that makes ``shards=N`` bit-identical to
``shards=1``). The supervised engine
(:class:`~repro.shard.supervisor.SupervisedEngine`) therefore journals
exactly that, window by window, before granting it: ``(window index,
until, one routed batch per shard)``. Inline runs keep no journal.

When a worker crashes or hangs, the supervisor rebuilds its world from
``(build, build_args)`` and fast-forwards it by replaying the journal —
granting the dead shard's windows again with the very batches it was
fed the first time. The replayed shard lands bit-identical to a
never-crashed one, because nothing else ever influenced it.

The journal is bounded (``limit`` windows, evicting oldest). Once an
entry has been evicted the journal is *truncated*: per-shard replay
from birth is impossible, recovery gives up, and the coordinator reruns
the whole run inline from window 0 — still deterministic.

Entries hold references to the routed batch lists the coordinator
already built; nothing copies and nothing mutates them (workers receive
pickled copies), so journaling a clean run costs one tuple per window.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from .ports import BoundaryMessage

#: One journal entry: (window index, exclusive end time, routed batches).
JournalEntry = tuple[int, int, list[list[BoundaryMessage]]]


class WindowJournal:
    """Bounded per-run journal of every window grant and routed batch."""

    def __init__(self, shards: int, limit: int):
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if limit < 1:
            raise ValueError(f"limit must be >= 1 windows, got {limit}")
        self.shards = shards
        self.limit = limit
        self._entries: deque[JournalEntry] = deque()
        #: Total windows ever recorded (monotone; unaffected by eviction).
        self.windows_recorded = 0
        #: Total boundary messages across every journaled batch.
        self.messages_recorded = 0
        #: Windows evicted to honour ``limit``.
        self.evicted = 0

    # -- recording ------------------------------------------------------------

    def record(
        self, index: int, until: int, batches: list[list[BoundaryMessage]]
    ) -> None:
        """Journal window ``index`` (its grant bound and per-shard routed
        inbound batches) before the window runs, so the journal always
        covers the window a failure interrupts."""
        if index != self.windows_recorded:
            raise ValueError(
                f"journal expected window {self.windows_recorded}, got {index}; "
                "windows must be recorded contiguously from 0"
            )
        if len(batches) != self.shards:
            raise ValueError(
                f"expected one batch per shard ({self.shards}), got {len(batches)}"
            )
        self._entries.append((index, until, batches))
        self.windows_recorded += 1
        self.messages_recorded += sum(len(batch) for batch in batches)
        if len(self._entries) > self.limit:
            self._entries.popleft()
            self.evicted += 1

    # -- inspection -----------------------------------------------------------

    @property
    def complete(self) -> bool:
        """Whether the journal still reaches back to window 0 (the
        precondition for replaying a reborn shard from birth)."""
        return self.evicted == 0

    @property
    def first_index(self) -> Optional[int]:
        """Oldest retained window index (None when empty)."""
        return self._entries[0][0] if self._entries else None

    def __len__(self) -> int:
        return len(self._entries)

    # -- replay ---------------------------------------------------------------

    def replay(
        self, shard: int, upto: int
    ) -> Iterator[tuple[int, int, list[BoundaryMessage]]]:
        """Yield ``(index, until, batch)`` for journaled windows below
        ``upto``, in order, where ``batch`` is ``shard``'s routed inbound
        batch. Raises :class:`ValueError` when the requested range
        reaches behind the retained window set.
        """
        if upto == 0:
            return
        if not self._entries or self._entries[0][0] != 0:
            raise ValueError(
                f"journal truncated (oldest retained window: {self.first_index}); "
                "cannot replay from window 0"
            )
        for index, until, batches in self._entries:
            if index >= upto:
                break
            yield index, until, batches[shard]

    def __repr__(self) -> str:
        return (
            f"<WindowJournal windows={self.windows_recorded} "
            f"retained={len(self._entries)} evicted={self.evicted}>"
        )
