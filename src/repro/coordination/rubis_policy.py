"""Request-type-driven Tune policy for multi-tier web applications.

The paper's RUBiS coordination scheme (§3.1): the IXP's classification
engine recovers the request type of each incoming packet, and per request
the IXP island sends weight increase/decrease messages toward the x86
island — "Browsing related requests result in sending 'weight increase'
messages for the web VM and 'weight decrease' message for the database
server, whereas servlet versions will correspond to 'weight increase'
messages for the database server domains. Given that the application
server sees increased activity for processing both request types, its
weight is increased in accordance with web server weight for read requests,
and with database server weight for write requests."

The magnitudes come from *offline profiling* (paper: "We use offline
profiles of behavior of the RUBiS components for various workloads to
actuate coordination"): each request class has a target weight vector
proportional to the tiers' profiled CPU burn under that class, scaled so
that a tier serving its class can stay UNDER in the credit scheduler (that
is what removes the run-queue steal time the baseline suffers). Each
classified request moves the shadow weights one bounded step toward the
current class's target, so the actual weights track an EWMA of the instant
read/write mix — and lag it when the mix oscillates faster than the
channel round-trip, the misapplication artefact the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs import SpanMinter
from ..platform import EntityId
from ..sim import Simulator, Tracer
from ..ixp.island import IXPIsland
from ..net import Packet
from .agent import CoordinationAgent


@dataclass(frozen=True, slots=True)
class TierEntities:
    """The three RUBiS tier VMs as coordination targets."""

    web: EntityId
    app: EntityId
    db: EntityId


@dataclass(frozen=True, slots=True)
class WeightProfile:
    """Offline-profiled target weights for one request class."""

    web: int
    app: int
    db: int


#: Browsing (read) profile: static content — web-heavy, db nearly idle.
READ_PROFILE = WeightProfile(web=768, app=512, db=384)
#: Servlet (write) profile: database-heavy, app significant, web light.
WRITE_PROFILE = WeightProfile(web=384, app=576, db=832)


class RequestTypeTunePolicy:
    """Per-request weight steering from IXP-side request classification."""

    def __init__(
        self,
        sim: Simulator,
        ixp: IXPIsland,
        agent: CoordinationAgent,
        tiers: TierEntities,
        step: int = 64,
        base_weight: int = 256,
        read_profile: WeightProfile = READ_PROFILE,
        write_profile: WeightProfile = WRITE_PROFILE,
        tracer: Tracer | None = None,
    ):
        """``agent`` must be the IXP-side agent (it sends toward x86).

        The policy keeps *shadow weights* — its belief of each tier's
        current weight — and moves them at most ``step`` per classified
        request toward the active class profile. The shadow can go stale
        while messages are in flight; that staleness is a modelled
        artefact, not a bug.
        """
        if step <= 0:
            raise ValueError("step must be positive")
        self.sim = sim
        self.agent = agent
        self.tiers = tiers
        self.step = step
        self.read_profile = read_profile
        self.write_profile = write_profile
        self.tracer = tracer or Tracer(sim, enabled=False)
        #: Platform-shared span minter: every steering decision roots a
        #: causal span linking the classified packet to the remote apply.
        self._minter = SpanMinter.shared(self.tracer)
        self.base_weight = base_weight
        self._shadow = {tiers.web: base_weight, tiers.app: base_weight, tiers.db: base_weight}
        self.requests_seen = 0
        self.tunes_sent = 0
        #: Tunes withheld while the peer island was DOWN (degraded mode).
        self.tunes_suppressed = 0
        #: Tunes replayed on recovery to reconverge the remote weights.
        self.replays_sent = 0
        ixp.add_classified_hook(self._on_classified)
        # Fault domain armed: replay the desired snapshot on peer recovery.
        detector = getattr(agent, "detector", None)
        if detector is not None:
            detector.on_up(self._replay)

    # -- IXP-side tap ----------------------------------------------------------

    def _on_classified(self, packet: Packet, flow: str) -> None:
        request_class = packet.payload.get("request_class")
        if request_class is None:
            return  # not an application request (fragment, stream, ...)
        if request_class == "read":
            profile = self.read_profile
        elif request_class == "write":
            profile = self.write_profile
        else:
            self.tracer.emit("rubis-policy", "unknown-class", cls=request_class)
            return
        self.requests_seen += 1
        self._steer(self.tiers.web, profile.web, request_class, packet)
        self._steer(self.tiers.app, profile.app, request_class, packet)
        self._steer(self.tiers.db, profile.db, request_class, packet)

    def _steer(
        self, entity: EntityId, target: int, reason: str, packet: Packet
    ) -> None:
        current = self._shadow[entity]
        gap = target - current
        if gap == 0:
            return
        delta = max(-self.step, min(self.step, gap))
        self._shadow[entity] = current + delta
        if not self.agent.peer_available:
            # Degraded mode: the peer is DOWN (it has reverted to its
            # declared baselines), so remote Tunes would black-hole. The
            # shadow keeps tracking the *desired* weight; recovery replays
            # it as one delta from baseline.
            self.tunes_suppressed += 1
            if self.tracer.wants("degraded-suppressed"):
                self.tracer.emit(
                    "rubis-policy", "degraded-suppressed", entity=str(entity),
                    desired=self._shadow[entity],
                )
            return
        self.tunes_sent += 1
        span = None
        if self._minter.active:
            # Root of the causal chain: this classified packet's decision.
            span = self._minter.mint(
                "rubis-policy", entity=str(entity), reason=reason, op="tune",
                pid=packet.pid, pkt_rx=packet.stamps.get("ixp-rx"),
            )
        self.agent.send_tune(entity, delta, reason=reason, span=span)

    def _replay(self) -> None:
        """Reconverge after recovery: replay the desired snapshot.

        The epoch-boundary contract guarantees the remote tiers are at
        their declared baselines when messages of the new epoch land, so
        one delta-from-baseline per tier restores the policy's desired
        weights exactly — no per-request re-steering marathon."""
        for entity, desired in self._shadow.items():
            delta = desired - self.base_weight
            if delta == 0:
                continue
            self.replays_sent += 1
            self.tunes_sent += 1
            span = None
            if self._minter.active:
                span = self._minter.mint(
                    "rubis-policy", entity=str(entity), reason="epoch-replay",
                    op="tune",
                )
            self.agent.send_tune(entity, delta, reason="epoch-replay", span=span)

    def shadow_weights(self) -> dict[EntityId, int]:
        """The policy's current belief of tier weights."""
        return dict(self._shadow)
