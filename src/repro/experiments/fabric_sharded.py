"""Extension experiment: sharded fabric execution (paper §5 at scale).

The :mod:`~repro.experiments.fabric` sweep grows a control-plane fabric
to K=128 islands inside one simulator. This experiment takes the same
hierarchical fabric shape to K=2048 by *sharding* it: the topology is
cut at cluster boundaries into per-shard worlds
(:class:`~repro.shard.ShardPlan`), each shard simulates its clusters in
its own process, and the conservative window protocol of
:func:`~repro.shard.run_sharded` synchronizes them so tightly that the
sharded run is **bit-identical** to the single-process run — asserted
here, every time, for every K.

Each shard's world is a :class:`FabricShardWorld`. Each island is the
fabric experiment's :class:`~repro.experiments.fabric.ProbeCell` (a
latency-sensitive probe VM plus duty-cycled hogs), under a two-level
control plane whose cross-cluster traffic all rides boundary messages:

* **reports** — each aggregator takes every member's local policy step
  (:meth:`~repro.experiments.fabric.ProbeCell.tune_locally`) once per
  policy period, coalesces the probe latencies it returns and reports
  upward to the root;
* **tunes** — the root picks the worst over-budget cluster per period
  and sends a Tune back to its aggregator, which actuates the member's
  credit weight;
* **gossip** — aggregators push their dynamic-entity views around a
  ring of peer links, a root-free dissemination path;
* **heartbeats** — the platform's :class:`~repro.faults.FailureDetector`
  watches every aggregator <-> root uplink from both ends, each detector
  on a handler-less :class:`~repro.coordination.CoordinationAgent` whose
  endpoint is a :class:`~repro.shard.BoundaryEndpoint`.

Mid-run a scripted blackout partitions the last cluster's aggregator
from every cross-cluster link; a spare entity registers while isolated.
Both uplink endpoints must walk UP -> SUSPECT -> DOWN, the aggregator
must suppress reports while DOWN, and on heal the epoch bump triggers a
view replay — discovery convergence is measured fabric-wide, exactly as
in the fabric sweep, but now across process boundaries.

Execution-side numbers (engine, wall clock, events/sec) are reported
next to the bit-equal simulation metrics, never mixed into them: on a
many-core host the sharded arm shows the speedup, on a single-CPU host
it honestly shows the windowing overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..coordination import CoordinationAgent
from ..faults import ChannelBlackout, FailureDetector, FaultConfig
from ..platform import EntityId, FabricTopology
from ..shard import BoundaryEndpoint, ShardPlan, run_sharded
from ..sim import PeriodicTask, RandomStreams, ms, seconds
from ..x86 import X86Island, X86Params
from .fabric import (
    DUTY_SLOTS,
    FANOUT,
    HOT_SLOT,
    LATENCY_HIGH,
    POLICY_PERIOD,
    ProbeCell,
)
from .report import render_table

#: One-way latency of intra-cluster and ring links (the lookahead, and
#: therefore the synchronization window, once clusters >= 3).
LINK_LATENCY = ms(5)
#: One-way latency of aggregator <-> root uplinks.
UPLINK_LATENCY = ms(10)
#: Ring gossip period (dynamic-entity view pushes to the ring successor).
GOSSIP_PERIOD = ms(50)
#: Root tune step applied to the worst over-budget cluster's worst probe.
ROOT_TUNE_DELTA = 128
#: Shard count of the sharded sweeps (this one and shard-chaos).
DEFAULT_SHARDS = 4


def sharded_topology(num_islands: int, fanout: int = FANOUT) -> FabricTopology:
    """The hierarchical fabric this experiment shards: clusters of
    ``fanout`` behind aggregators, aggregator -> root uplinks, and a
    ring of peer links over the aggregators (the gossip substrate)."""
    if num_islands <= fanout:
        raise ValueError(
            f"need more than one cluster to shard: K={num_islands} with "
            f"fanout={fanout} yields a single cluster"
        )
    names = tuple(f"isle-{i}" for i in range(num_islands))
    aggregators = tuple(names[i] for i in range(0, num_islands, fanout))
    ring = tuple(
        (aggregators[i], aggregators[(i + 1) % len(aggregators)])
        for i in range(len(aggregators))
    )
    return FabricTopology.clustered(
        names,
        fanout=fanout,
        link_latency=LINK_LATENCY,
        uplink_latency=UPLINK_LATENCY,
        extra_links=ring,
        gossip_period=GOSSIP_PERIOD,
    )


def _watch(world: "FabricShardWorld", local: str, peer: str) -> FailureDetector:
    """The platform failure detector at ``local`` watching ``peer``
    across their boundary link, with the default :class:`FaultConfig`."""
    endpoint = BoundaryEndpoint(world.sim, world.router, local, peer)
    agent = CoordinationAgent(world.sim, world.cells[local].island, endpoint)
    return FailureDetector(world.sim, agent, FaultConfig())


class _ClusterAgent:
    """One cluster's control locus, living on its shard.

    Local side: each member probe's local policy step. Boundary side:
    upward reports, inbound root tunes, ring gossip of the dynamic-entity
    view (and the root's sync of it on heal), and uplink heartbeats.
    """

    def __init__(self, world: "FabricShardWorld", cluster) -> None:
        self.world = world
        self.name = cluster.name
        self.aggregator = cluster.aggregator
        self.members = cluster.islands
        topo = world.topology
        self.is_root = self.aggregator == topo.root
        aggs = topo.aggregators
        self.ring_next = aggs[(aggs.index(self.aggregator) + 1) % len(aggs)]
        #: Dynamic-entity view: name -> (epoch, version, registered_at),
        #: plus the local discovery time of each entry.
        self.view: dict[str, tuple[int, int, int]] = {}
        self.seen_at: dict[str, int] = {}
        self.reports_sent = 0
        self.reports_suppressed = 0
        self.tunes_received = 0
        router, sim = world.router, world.sim
        router.register(self.aggregator, "tune", self._on_tune)
        router.register(self.aggregator, "gossip", self._on_view)
        if not self.is_root:
            router.register(self.aggregator, "announce", self._on_announce)
            router.register(self.aggregator, "sync", self._on_view)
            self.uplink = _watch(world, self.aggregator, topo.root)
            self.uplink.on_up(self._replay_view)
        else:
            self.uplink = None
        PeriodicTask(sim, POLICY_PERIOD, self._policy, name=f"policy-{self.name}")
        PeriodicTask(sim, GOSSIP_PERIOD, self._gossip, name=f"gossip-{self.name}")

    # -- local QoS policy + upward report ------------------------------------

    def _policy(self) -> None:
        world = self.world
        worst_member, worst_mean, total = self.members[0], -1.0, 0.0
        for member in self.members:
            mean = world.cells[member].tune_locally()
            total += mean
            if mean > worst_mean:
                worst_member, worst_mean = member, mean
        payload = {
            "cluster": self.name,
            "mean": total / len(self.members),
            "worst": worst_member,
            "worst_mean": worst_mean,
        }
        if self.is_root:
            self.world.root.receive_report(payload)
        elif self.uplink.is_down:
            self.reports_suppressed += 1
        else:
            self.world.router.send(
                self.aggregator, self.world.topology.root, "report",
                payload, self.world.sim.now,
            )
            self.reports_sent += 1

    def _on_tune(self, message) -> None:
        self.apply_tune(message.payload["member"], message.payload["delta"])

    def apply_tune(self, member: str, delta: int) -> None:
        """A root tune for one member's probe weight."""
        self.world.cells[member].island.apply_tune(EntityId(member, "probe"), delta)
        self.tunes_received += 1

    # -- the dynamic-entity view ---------------------------------------------

    def merge(self, name: str, stamp: tuple[int, int, int]) -> bool:
        """Adopt ``stamp`` if it is news; returns whether it was."""
        current = self.view.get(name)
        if current is not None and current[:2] >= stamp[:2]:
            return False
        self.view[name] = stamp
        self.seen_at.setdefault(name, self.world.sim.now)
        return True

    def register_entity(self, name: str, now: int) -> None:
        """A new entity appeared on this cluster: version it, try to
        announce it upward (a blackout may swallow the attempt). On the
        root's own cluster the root merges and fans it out directly."""
        if self.is_root:
            self.world.root.receive_announce(name, (0, 1, now), origin=self.name)
        else:
            self.merge(name, (self.uplink.agent.epoch, 1, now))
            self.world.router.send(
                self.aggregator, self.world.topology.root, "announce",
                {"name": name, "stamp": self.view[name]}, now,
            )

    def _on_announce(self, message) -> None:
        self.merge(message.payload["name"], tuple(message.payload["stamp"]))

    def _gossip(self) -> None:
        if not self.view:
            return
        self.world.router.send(
            self.aggregator, self.ring_next, "gossip",
            {"view": dict(self.view)}, self.world.sim.now,
        )

    def _on_view(self, message) -> None:
        """A peer's whole view (ring gossip, or the root's sync on heal)."""
        for name, stamp in sorted(message.payload["view"].items()):
            self.merge(name, tuple(stamp))

    def _replay_view(self) -> None:
        """Uplink recovery (epoch bumped): replay every known dynamic
        entity upward so the root can fan out whatever the fabric missed."""
        now = self.world.sim.now
        for name in sorted(self.view):
            epoch, version, registered_at = self.view[name]
            stamp = (max(epoch, self.uplink.agent.epoch), version + 1, registered_at)
            self.view[name] = stamp
            self.world.router.send(
                self.aggregator, self.world.topology.root, "announce",
                {"name": name, "stamp": stamp}, now,
            )

    def collect(self) -> dict[str, Any]:
        return {
            "reports_sent": self.reports_sent,
            "reports_suppressed": self.reports_suppressed,
            "tunes_received": self.tunes_received,
            "view": {name: tuple(stamp) for name, stamp in self.view.items()},
            "seen_at": dict(self.seen_at),
            "health": None if self.uplink is None else self.uplink.health(),
        }


class _RootAgent:
    """The fabric root: cluster-load ledger, global tune policy, and the
    announce fan-out hub. Lives on whichever shard owns the root."""

    def __init__(self, world: "FabricShardWorld", agent: _ClusterAgent) -> None:
        self.world = world
        self.agent = agent  # the root is also cluster-0's aggregator
        self.cluster_loads: dict[str, dict] = {}
        self.reports_received = 0
        self.tunes_sent = 0
        self.announces_relayed = 0
        topo = world.topology
        self.downlinks = {}
        for cluster in topo.clusters:
            if cluster.aggregator != topo.root:
                link = _watch(world, topo.root, cluster.aggregator)
                link.on_up(lambda agg=cluster.aggregator: self._sync_peer(agg))
                self.downlinks[cluster.aggregator] = link
        world.router.register(topo.root, "report", self._on_report)
        world.router.register(topo.root, "announce", self._on_announce)
        PeriodicTask(world.sim, POLICY_PERIOD, self._policy, name="root-policy")

    def receive_report(self, payload: dict) -> None:
        self.reports_received += 1
        self.cluster_loads[payload["cluster"]] = payload

    def _on_report(self, message) -> None:
        self.receive_report(message.payload)

    def _policy(self) -> None:
        """Tune the worst over-budget cluster's worst probe upward."""
        over = [
            load for load in self.cluster_loads.values()
            if load["worst_mean"] > LATENCY_HIGH
        ]
        if not over:
            return
        worst = max(over, key=lambda load: (load["worst_mean"], load["cluster"]))
        aggregator = self.world.topology.cluster_named(worst["cluster"]).aggregator
        if aggregator == self.world.topology.root:
            self.agent.apply_tune(worst["worst"], ROOT_TUNE_DELTA)
        else:
            self.world.router.send(
                self.world.topology.root, aggregator, "tune",
                {"member": worst["worst"], "delta": ROOT_TUNE_DELTA},
                self.world.sim.now,
            )
        self.tunes_sent += 1

    def receive_announce(self, name: str, stamp, origin: str) -> None:
        """Merge and fan out to every other cluster's aggregator."""
        if not self.agent.merge(name, tuple(stamp)):
            return
        topo = self.world.topology
        for cluster in topo.clusters:
            if cluster.name == origin or cluster.aggregator == topo.root:
                continue
            self.world.router.send(
                topo.root, cluster.aggregator, "announce",
                {"name": name, "stamp": tuple(stamp)}, self.world.sim.now,
            )
            self.announces_relayed += 1

    def _on_announce(self, message) -> None:
        origin = self.world.topology.cluster_of(message.src).name
        self.receive_announce(
            message.payload["name"], message.payload["stamp"], origin
        )

    def _sync_peer(self, aggregator: str) -> None:
        """Downlink recovery: push the root's full view to the healed peer."""
        self.world.router.send(
            self.world.topology.root, aggregator, "sync",
            {"view": {k: tuple(v) for k, v in self.agent.view.items()}},
            self.world.sim.now,
        )

    def collect(self) -> dict[str, Any]:
        return {
            "reports_received": self.reports_received,
            "tunes_sent": self.tunes_sent,
            "announces_relayed": self.announces_relayed,
            "downlinks": {
                agg: link.health() for agg, link in sorted(self.downlinks.items())
            },
        }


class FabricShardWorld:
    """One shard's slice of the fabric: islands, workload, agents.

    The class is the world builder :func:`~repro.shard.run_sharded` calls
    as ``FabricShardWorld(ctx, seed, duration, blackout)``; being module
    level, it pickles by reference into shard workers."""

    def __init__(self, ctx, seed: int, duration: int, blackout: bool) -> None:
        self.sim = ctx.sim
        self.router = ctx.router
        self.topology = ctx.plan.topology
        topo = self.topology
        rng = RandomStreams(seed)
        index_of = {name: i for i, name in enumerate(topo.islands)}

        self.cells = {
            name: ProbeCell(
                X86Island(self.sim, X86Params(), name=name),
                rng.stream(f"probe-{name}"),
                HOT_SLOT, DUTY_SLOTS, index_of[name] % DUTY_SLOTS,
            )
            for name in ctx.islands
        }

        owned = set(ctx.plan.clusters_of(ctx.shard_index))
        self.agents: dict[str, _ClusterAgent] = {}
        self.root: Optional[_RootAgent] = None
        for cluster in topo.clusters:
            if cluster.name not in owned:
                continue
            agent = _ClusterAgent(self, cluster)
            self.agents[cluster.name] = agent
            if agent.is_root:
                self.root = _RootAgent(self, agent)

        # The partition scenario: every shard scripts the same blackouts
        # (send-side filtering makes only the owning shards act on them),
        # and the shard owning the target cluster registers the spare.
        self.spare_registered_at: Optional[int] = None
        target_cluster = topo.clusters[-1]
        self.partition_at = duration // 2
        heal_at = (duration * 7) // 8
        if blackout:
            window = ChannelBlackout(
                start=self.partition_at,
                duration=heal_at - self.partition_at,
                direction="both",
            )
            target = target_cluster.aggregator
            for a, b, _latency in topo.cross_cluster_links():
                if target in (a, b):
                    self.router.add_blackout(a, b, window)
            if target_cluster.name in owned:
                register_at = self.partition_at + ms(60)

                def _register_spare() -> None:
                    self.cells[target].island.create_vm("spare")
                    self.spare_registered_at = self.sim.now
                    self.agents[target_cluster.name].register_entity(
                        "spare", self.sim.now
                    )

                self.sim.call_at(register_at, _register_spare)

    def collect(self) -> dict[str, Any]:
        return {
            "islands": {
                name: {
                    "probe_mean_ns": cell.overall.mean,
                    "probe_count": cell.overall.count,
                    "tunes_local": cell.tunes,
                }
                for name, cell in sorted(self.cells.items())
            },
            "clusters": {
                name: agent.collect() for name, agent in sorted(self.agents.items())
            },
            "root": None if self.root is None else self.root.collect(),
            "spare_registered_at": self.spare_registered_at,
        }


# -- the arm and the sweep ----------------------------------------------------


@dataclass
class FabricShardedArmResult:
    """One (K, shards) run: bit-equal simulation metrics + execution."""

    num_islands: int
    shards: int
    #: The full merged simulation outcome — the bit-equality artefact.
    metrics: dict
    mean_probe_latency_ms: float
    worst_probe_latency_ms: float
    root_reports: int
    root_tunes: int
    detect_ms: Optional[float]
    convergence_ms: Optional[float]
    recovery_epoch: int
    #: Execution side: allowed (expected!) to differ between arms.
    engine: str
    windows: int
    events: int
    wall_seconds: float

    @property
    def events_per_second(self) -> float:
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0


def _merge_shard_results(shard_results: list, counters: dict) -> dict:
    """Fold per-shard ``collect()`` payloads into one layout-independent
    view of the fabric — the dict two arms must agree on bit-for-bit."""
    merged: dict[str, Any] = {
        "islands": {}, "clusters": {}, "root": None,
        "spare_registered_at": None,
        "boundary": dict(counters),
    }
    for entry in shard_results:
        merged["islands"].update(entry["islands"])
        merged["clusters"].update(entry["clusters"])
        if entry["root"] is not None:
            merged["root"] = entry["root"]
        if entry["spare_registered_at"] is not None:
            merged["spare_registered_at"] = entry["spare_registered_at"]
    return merged


def run_fabric_sharded_arm(
    num_islands: int,
    shards: int = 1,
    duration: int = seconds(1),
    seed: int = 1,
    workers: Optional[int] = None,
    blackout: bool = True,
    fanout: int = FANOUT,
) -> FabricShardedArmResult:
    """Run the sharded fabric once at one (K, shards) point."""
    topology = sharded_topology(num_islands, fanout=fanout)
    plan = ShardPlan(topology, shards=shards)
    run = run_sharded(
        plan, FabricShardWorld, (seed, duration, blackout),
        duration=duration, workers=workers,
    )
    metrics = _merge_shard_results(run.results, run.counters)
    metrics["windows"] = run.windows
    metrics["undelivered"] = run.undelivered

    latencies = {
        name: data["probe_mean_ns"] / 1e6
        for name, data in metrics["islands"].items()
    }
    root = metrics["root"] or {}
    target = topology.clusters[-1].name
    target_data = metrics["clusters"].get(target, {})
    health = target_data.get("health") or {}
    detect = next(
        (
            (when - duration // 2) / 1e6
            for when, state, _reason in health.get("transitions", ())
            if state == "down"
        ),
        None,
    )
    registered = metrics["spare_registered_at"]
    convergence: Optional[float] = None
    if registered is not None:
        seen = [
            data["seen_at"].get("spare")
            for data in metrics["clusters"].values()
        ]
        if all(when is not None for when in seen):
            convergence = (max(seen) - registered) / 1e6
    return FabricShardedArmResult(
        num_islands=num_islands,
        shards=plan.shards,
        metrics=metrics,
        mean_probe_latency_ms=sum(latencies.values()) / len(latencies),
        worst_probe_latency_ms=max(latencies.values()),
        root_reports=root.get("reports_received", 0),
        root_tunes=root.get("tunes_sent", 0),
        detect_ms=detect,
        convergence_ms=convergence,
        recovery_epoch=health.get("epoch", 0),
        engine=run.engine,
        windows=run.windows,
        events=run.events,
        wall_seconds=run.wall_seconds,
    )


def run_fabric_sharded(
    island_counts=(128, 512, 2048),
    shards: int = DEFAULT_SHARDS,
    duration: int = seconds(1),
    seed: int = 1,
    workers: Optional[int] = None,
) -> dict[int, tuple[FabricShardedArmResult, FabricShardedArmResult]]:
    """The sweep: for each K, a single-process reference run and a
    sharded run — asserted bit-identical before anything is reported."""
    results = {}
    for count in island_counts:
        clusters = (count + FANOUT - 1) // FANOUT
        arm_shards = min(shards, clusters)
        reference = run_fabric_sharded_arm(
            count, shards=1, duration=duration, seed=seed
        )
        sharded = run_fabric_sharded_arm(
            count, shards=arm_shards, duration=duration, seed=seed,
            workers=workers,
        )
        if sharded.metrics != reference.metrics:
            raise AssertionError(
                f"sharded run diverged from the single-process reference at "
                f"K={count}, shards={arm_shards}"
            )
        results[count] = (reference, sharded)
    return results


def render_fabric_sharded(
    results: dict[int, tuple[FabricShardedArmResult, FabricShardedArmResult]]
) -> str:
    """Tabulate QoS, fault handling and execution per K."""
    rows = []
    for count in sorted(results):
        reference, sharded = results[count]
        speedup = (
            reference.wall_seconds / sharded.wall_seconds
            if sharded.wall_seconds > 0 else 0.0
        )
        rows.append((
            str(count),
            f"{sharded.shards} ({sharded.engine})",
            f"{sharded.mean_probe_latency_ms:.2f}",
            f"{sharded.worst_probe_latency_ms:.2f}",
            str(sharded.root_tunes),
            "-" if sharded.detect_ms is None else f"{sharded.detect_ms:.0f}",
            "-" if sharded.convergence_ms is None
            else f"{sharded.convergence_ms:.1f}",
            f"{reference.events_per_second / 1e3:.0f}",
            f"{sharded.events_per_second / 1e3:.0f}",
            f"{speedup:.2f}x",
        ))
    return render_table(
        ["K", "Shards", "Mean probe (ms)", "Worst probe (ms)", "Root tunes",
         "Detect (ms)", "Converge (ms)", "kEv/s x1", "kEv/s xN", "Speedup"],
        rows,
        title="Extension: sharded fabric execution "
              "(every row bit-identical to its single-process reference)",
    )
