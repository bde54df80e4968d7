"""The MPlayer client model.

"Mplayer supports a benchmark option that plays out the streams at the
fastest frame rate possible and we also disable video output for all our
tests, just focusing on the decoded frames/sec output as our
application-level quality of service metric" (paper §3.2). The network
player reassembles RTP fragments into frames and decodes them as fast as
its VM gets CPU; the disk player decodes straight from local storage and
is effectively a CPU-bound loop.
"""

from __future__ import annotations

from typing import Optional

from ...sim import Simulator, Store, seconds, us
from ...metrics import WindowedCounter
from ...net import Packet, VirtualNIC
from ...x86.vm import VirtualMachine
from .streams import DecodeCostModel, StreamSpec

#: Guest kernel cost per received RTP packet (UDP + socket delivery).
PER_PACKET_RX_COST = us(10)
#: Guest cost to read one frame from local disk (page-cache hit era).
DISK_READ_COST = us(180)
#: Partial frames older than this are abandoned (fragments lost).
FRAME_ASSEMBLY_TIMEOUT = seconds(1)
#: Decode-queue depth that counts as "fallen behind the live edge". On
#: reaching it the player skips to the newest frame (dropping the rest),
#: like a live-stream player chasing its jitter buffer.
DECODE_QUEUE_LIMIT = 6


class MPlayerClient:
    """Network stream player inside a guest VM."""

    def __init__(
        self,
        sim: Simulator,
        vm: VirtualMachine,
        nic: VirtualNIC,
        cost_model: Optional[DecodeCostModel] = None,
    ):
        self.sim = sim
        self.vm = vm
        self.nic = nic
        self.cost_model = cost_model
        self.decoded = WindowedCounter(sim)
        self.frames_decoded = 0
        self.frames_dropped = 0
        self.frames_skipped = 0
        self.packets_received = 0
        self._assembly: dict[int, dict] = {}
        self._decode_queue: Store[int] = Store(sim, name=f"{vm.name}-decodeq")
        sim.spawn(self._rx_loop(), name=f"{vm.name}-mplayer-rx")
        sim.spawn(self._decode_loop(), name=f"{vm.name}-mplayer-decode")
        sim.spawn(self._assembly_gc(), name=f"{vm.name}-mplayer-gc")

    # -- receive + frame assembly -------------------------------------------

    def _rx_loop(self):
        while True:
            packet: Packet = yield self.nic.recv()
            yield self.vm.execute(PER_PACKET_RX_COST, kind="sys")
            if packet.kind != "rtp":
                continue  # RTSP control traffic
            self.packets_received += 1
            payload = packet.payload
            frame_id = payload["frame_id"]
            entry = self._assembly.setdefault(
                frame_id,
                {"have": 0, "need": payload["frag_count"], "bytes": payload["frame_bytes"],
                 "born": self.sim.now},
            )
            entry["have"] += 1
            if entry["have"] >= entry["need"]:
                del self._assembly[frame_id]
                if len(self._decode_queue) >= DECODE_QUEUE_LIMIT:
                    # Behind the live edge: skip everything queued and
                    # resume from this newest frame. Crucially this lets
                    # the decoder *block* again between frames, so the VM
                    # wakes (and boosts) per frame instead of sitting
                    # runnable forever.
                    while self._decode_queue.try_get() is not None:
                        self.frames_skipped += 1
                self._decode_queue.try_put(entry["bytes"])

    def _assembly_gc(self):
        while True:
            yield self.sim.timeout(FRAME_ASSEMBLY_TIMEOUT)
            cutoff = self.sim.now - FRAME_ASSEMBLY_TIMEOUT
            stale = [fid for fid, e in self._assembly.items() if e["born"] < cutoff]
            for fid in stale:
                del self._assembly[fid]
                self.frames_dropped += 1

    # -- decode ------------------------------------------------------------------

    def _decode_loop(self):
        while True:
            frame_bytes = yield self._decode_queue.get()
            model = self.cost_model
            if model is None:
                raise RuntimeError(
                    f"player in {self.vm.name} received frames before a cost "
                    "model was configured"
                )
            yield self.vm.execute(model.frame_cost(frame_bytes), kind="user")
            self.frames_decoded += 1
            self.decoded.record()

    # -- metrics --------------------------------------------------------------------

    def fps(self, start: int, end: int) -> float:
        """Mean decoded frames/second over [start, end)."""
        return self.decoded.rate_per_second(start, end)

    @property
    def backlog_frames(self) -> int:
        """Frames assembled but not yet decoded."""
        return len(self._decode_queue)


class DiskPlayer:
    """MPlayer playing a clip from the VM's local disk (Table 3's Dom-2).

    No network involvement at all: a read + decode loop that consumes as
    much CPU as the scheduler will give it.
    """

    def __init__(self, sim: Simulator, vm: VirtualMachine, stream: StreamSpec):
        self.sim = sim
        self.vm = vm
        self.stream = stream
        self.decoded = WindowedCounter(sim)
        self.frames_decoded = 0
        sim.spawn(self._loop(), name=f"{vm.name}-diskplayer")

    def _loop(self):
        demand = self.stream.decode_demand()
        while True:
            yield self.vm.execute(DISK_READ_COST, kind="sys")
            yield self.vm.execute(demand, kind="user")
            self.frames_decoded += 1
            self.decoded.record()

    def fps(self, start: int, end: int) -> float:
        """Mean decoded frames/second over [start, end)."""
        return self.decoded.rate_per_second(start, end)
