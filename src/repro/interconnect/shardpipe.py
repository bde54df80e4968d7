"""Seq-numbered framing over inter-process pipes (the shard transport).

The sharded execution mode (:mod:`repro.shard`) runs shard workers in
separate OS processes and exchanges window grants, boundary-message
batches and results over :mod:`multiprocessing` pipes. An OS pipe is
lossless and ordered, so this module carries the PR-1 reliable-frame
idiom in its cheapest form: every frame is sequence-numbered like a
:class:`~repro.interconnect.reliable.DataFrame`, but the numbers are an
*integrity check* rather than an ARQ — a gap, a reorder or an unexpected
kind is a protocol bug in the coordinator/worker state machines and is
raised immediately instead of retransmitted around.

:meth:`FramedConnection.send` is thread-safe (one lock per endpoint),
so a worker's heartbeat thread can prove the process alive with
``HEARTBEAT`` frames while the main thread simulates a window. The
supervision layer (:mod:`repro.shard.supervisor`) builds its barrier
deadlines and liveness probe from :meth:`FramedConnection.poll`.

Determinism note: frames carry only picklable simulation *data* (times,
message batches, metric payloads), never live simulator objects, so what
crosses a pipe is exactly what an in-process shard would have handed
over by reference. Heartbeats are wall-clock chatter and never carry
simulation state.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Optional, Sequence


class ShardProtocolError(RuntimeError):
    """A frame violated the inter-shard protocol (gap, reorder, bad kind)."""


#: Frame kind workers emit from their liveness thread; consumes sequence
#: numbers like any frame but carries no simulation data, so receivers
#: may skip any number of them without protocol consequence.
HEARTBEAT = "heartbeat"


@dataclass(frozen=True, slots=True)
class ShardFrame:
    """One sequence-numbered frame on an inter-shard pipe."""

    seq: int
    kind: str
    payload: Any = None

    def __repr__(self) -> str:
        return f"ShardFrame(#{self.seq}, {self.kind!r})"


class FramedConnection:
    """A duplex pipe endpoint speaking sequence-numbered frames.

    Wraps a :class:`multiprocessing.connection.Connection` (or anything
    with ``send``/``recv``/``poll``/``close``). Each direction numbers
    its frames 0, 1, 2, ... independently; :meth:`recv` asserts the next
    frame is exactly the one expected, so a desynchronized peer fails
    loudly at the first frame instead of silently skewing a simulation
    window.
    """

    def __init__(self, conn):
        self._conn = conn
        self._tx_seq = 0
        self._rx_seq = 0
        # Serializes sends: the worker's heartbeat thread and its main
        # thread share one endpoint, and both the seq counter and the
        # underlying pipe write must be atomic per frame.
        self._tx_lock = threading.Lock()

    def send(self, kind: str, payload: Any = None) -> ShardFrame:
        """Send one frame; returns it (mostly for tests/diagnostics).

        Thread-safe: concurrent senders are serialized, so frames are
        numbered and written atomically.
        """
        with self._tx_lock:
            frame = ShardFrame(self._tx_seq, kind, payload)
            self._tx_seq += 1
            self._conn.send(frame)
        return frame

    def recv(self, expect: Optional[Sequence[str]] = None) -> ShardFrame:
        """Receive the next frame (blocking), validating seq contiguity
        (and, when ``expect`` is given, the frame kind)."""
        frame = self._conn.recv()
        if not isinstance(frame, ShardFrame):
            raise ShardProtocolError(f"expected a ShardFrame, got {frame!r}")
        if frame.seq != self._rx_seq:
            raise ShardProtocolError(
                f"frame gap: expected seq {self._rx_seq}, got {frame!r}"
            )
        self._rx_seq += 1
        if expect is not None and frame.kind not in expect:
            raise ShardProtocolError(
                f"expected a frame of kind {tuple(expect)}, got {frame!r}"
            )
        return frame

    def poll(self, timeout: float = 0.0) -> bool:
        """Whether a frame is ready to :meth:`recv`."""
        return self._conn.poll(timeout)

    def close(self) -> None:
        self._conn.close()

    def __repr__(self) -> str:
        return f"<FramedConnection tx={self._tx_seq} rx={self._rx_seq}>"
