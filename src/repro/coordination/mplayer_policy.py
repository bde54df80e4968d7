"""Stream-property-driven Tune policy for media streaming.

The paper's first MPlayer scheme (§3.2): "when an RTSP session is
established, the IXP maintains bit- and frame-rate state on a per guest
virtual machine basis ... The IXP sends an 'Increase weight' message for a
high bit-rate, high frame-rate stream, whereas 'Decrease weight' message is
sent when servicing low bit-rate, low frame-rate streams."

The paper applies the scheme in stages on a live system (Figure 6): first
weights follow bit-rate detection (256-256 -> 384-512), then the higher
frame-rate requirement earns a further increase *and* more IXP threads for
that VM's receive queue "in tandem" (-> 384-640). The policy therefore
keeps per-VM stream state from RTSP setup and can advance its stage at
runtime, re-actuating for every known stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..obs import SpanMinter
from ..platform import EntityId
from ..sim import Simulator, Tracer
from ..ixp.island import IXPIsland
from ..net import Packet
from .agent import CoordinationAgent

#: Streams at or above this bitrate count as "high bit-rate".
HIGH_BITRATE_BPS = 500_000
#: Streams at or above this frame rate count as "high frame-rate".
HIGH_FRAMERATE_FPS = 24.0

#: Policy stages, in escalation order.
STAGE_OFF = "off"
STAGE_BITRATE = "bitrate"
STAGE_FRAMERATE = "framerate"
_STAGES = (STAGE_OFF, STAGE_BITRATE, STAGE_FRAMERATE)


@dataclass
class StreamState:
    """Per-VM stream properties learned from RTSP session setup."""

    vm: str
    bitrate_bps: int
    framerate_fps: float

    @property
    def is_high_bitrate(self) -> bool:
        return self.bitrate_bps >= HIGH_BITRATE_BPS

    @property
    def is_high_framerate(self) -> bool:
        return self.framerate_fps >= HIGH_FRAMERATE_FPS


class StreamQoSTunePolicy:
    """Translate stream-level properties into CPU weight (and IXP thread)
    allocations, with runtime stage escalation."""

    def __init__(
        self,
        sim: Simulator,
        ixp: IXPIsland,
        agent: CoordinationAgent,
        vm_entities: dict[str, EntityId],
        stage: str = STAGE_OFF,
        base_weight: int = 256,
        high_bitrate_delta: int = 256,
        mid_bitrate_delta: int = 128,
        low_bitrate_delta: int = -128,
        framerate_delta: int = 128,
        tandem_ixp_threads: int = 2,
        tracer: Optional[Tracer] = None,
    ):
        """``vm_entities`` maps VM host names (stream destinations) to
        their x86 entity ids. The per-stage target weight of a VM is
        ``base + bitrate component (+ framerate component at the framerate
        stage)``; advancing the stage re-actuates every known stream."""
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {_STAGES}")
        self.sim = sim
        self.ixp = ixp
        self.agent = agent
        self.vm_entities = vm_entities
        self.stage = stage
        self.base_weight = base_weight
        self.high_bitrate_delta = high_bitrate_delta
        self.mid_bitrate_delta = mid_bitrate_delta
        self.low_bitrate_delta = low_bitrate_delta
        self.framerate_delta = framerate_delta
        self.tandem_ixp_threads = tandem_ixp_threads
        self.tracer = tracer or Tracer(sim, enabled=False)
        self._minter = SpanMinter.shared(self.tracer)
        self.streams: dict[str, StreamState] = {}
        self._shadow: dict[str, int] = {}
        self._ixp_tandem_applied: set[str] = set()
        self.tunes_sent = 0
        #: Tunes withheld while the peer island was DOWN (degraded mode).
        self.tunes_suppressed = 0
        #: Tunes replayed on recovery to reconverge the remote weights.
        self.replays_sent = 0
        ixp.add_classified_hook(self._on_classified)
        detector = getattr(agent, "detector", None)
        if detector is not None:
            detector.on_up(self._replay)

    # -- stream discovery (RTSP setup tap on the Rx path) ----------------------

    def _on_classified(self, packet: Packet, flow: str) -> None:
        info = packet.payload.get("rtsp_setup")
        if info is None:
            return
        vm_name = packet.dst
        if vm_name not in self.vm_entities or vm_name in self.streams:
            return
        self.streams[vm_name] = StreamState(
            vm=vm_name,
            bitrate_bps=info["bitrate_bps"],
            framerate_fps=info["framerate_fps"],
        )
        self._shadow.setdefault(vm_name, self.base_weight)
        self._actuate(vm_name)

    # -- stage control ------------------------------------------------------------

    def advance_stage(self, stage: str) -> None:
        """Escalate the policy at runtime and re-actuate known streams."""
        if stage not in _STAGES:
            raise ValueError(f"unknown stage {stage!r}; expected one of {_STAGES}")
        self.stage = stage
        for vm_name in self.streams:
            self._actuate(vm_name)

    def target_weight(self, state: StreamState) -> int:
        """The stage-dependent weight target for a stream's VM."""
        if self.stage == STAGE_OFF:
            return self._shadow.get(state.vm, self.base_weight)
        if state.is_high_bitrate:
            target = self.base_weight + self.high_bitrate_delta
        elif state.framerate_fps >= 15.0:
            target = self.base_weight + self.mid_bitrate_delta
        else:
            target = self.base_weight + self.low_bitrate_delta
        if self.stage == STAGE_FRAMERATE and state.is_high_framerate:
            target += self.framerate_delta
        return target

    def _actuate(self, vm_name: str) -> None:
        state = self.streams[vm_name]
        if self.stage == STAGE_OFF:
            return
        target = self.target_weight(state)
        current = self._shadow[vm_name]
        delta = target - current
        reason = f"stream-qos:{self.stage}"
        if delta != 0:
            self._shadow[vm_name] = target
            if not self.agent.peer_available:
                # Degraded mode: keep the desired target in the shadow for
                # the recovery replay, send nothing remote. Local (IXP
                # tandem) actuation below is unaffected — local knobs
                # never needed the channel.
                self.tunes_suppressed += 1
                if self.tracer.wants("degraded-suppressed"):
                    self.tracer.emit(
                        "mplayer-policy", "degraded-suppressed", vm=vm_name,
                        desired=target,
                    )
            else:
                self.tunes_sent += 1
                span = None
                if self._minter.active:
                    span = self._minter.mint(
                        "mplayer-policy", entity=str(self.vm_entities[vm_name]),
                        reason=reason, op="tune", vm=vm_name,
                    )
                self.agent.send_tune(
                    self.vm_entities[vm_name], delta, reason=reason, span=span
                )
        if (
            self.stage == STAGE_FRAMERATE
            and state.is_high_framerate
            and vm_name not in self._ixp_tandem_applied
        ):
            # "...and also increase the number of IXP threads servicing
            # Domain-2 receive queue in tandem."
            ixp_entity = EntityId(self.ixp.name, vm_name)
            if self.ixp.has_entity(ixp_entity):
                tandem_span = None
                if self._minter.active:
                    tandem_span = self._minter.mint(
                        "mplayer-policy", entity=str(ixp_entity),
                        reason=f"{reason}:tandem", op="tune", vm=vm_name,
                    )
                self.ixp.apply_tune(
                    ixp_entity, self.tandem_ixp_threads, span=tandem_span
                )
                self._ixp_tandem_applied.add(vm_name)
        self.tracer.emit(
            "mplayer-policy", "actuated", vm=vm_name, stage=self.stage, target=target
        )

    def _replay(self) -> None:
        """Reconverge after recovery: one delta-from-baseline per VM
        restores the stage-desired weights onto the peer's reverted
        baselines (see :meth:`RequestTypeTunePolicy._replay`)."""
        for vm_name, desired in self._shadow.items():
            delta = desired - self.base_weight
            if delta == 0:
                continue
            self.replays_sent += 1
            self.tunes_sent += 1
            span = None
            if self._minter.active:
                span = self._minter.mint(
                    "mplayer-policy", entity=str(self.vm_entities[vm_name]),
                    reason="epoch-replay", op="tune", vm=vm_name,
                )
            self.agent.send_tune(
                self.vm_entities[vm_name], delta, reason="epoch-replay", span=span
            )
