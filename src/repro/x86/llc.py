"""Shared last-level cache and memory-bandwidth model for the x86 island.

The paper's thesis is that resources must be managed *across* types, not
per type; DVFS alone cannot see that a guest is stalled on the memory
system. This module models the two shared uncore resources that
coordinated energy/QoS policies steer (Nejat et al., *Coordinated
Management of DVFS and Cache Partitioning under QoS Constraints*; CBP:
cache + bandwidth partitioning + prefetch throttling):

* a **shared LLC** partitioned into ways (Intel CAT-style): each managed
  domain owns an exclusive way allocation; fewer ways than its profiled
  working set raises its miss ratio;
* a **memory-bandwidth pipe** shared by all domains' miss (and prefetch)
  traffic, arbitrated weighted-max-min by per-domain bandwidth shares
  (Intel MBA-style); a domain demanding more than its allocation has its
  memory-bound time stretched;
* a **prefetcher** per domain whose aggressiveness hides miss latency
  while bandwidth is plentiful but *wastes* bandwidth when the pipe is
  contended — the CBP throttling trade-off.

The model folds into execution as a service-time multiplier applied to
submitted CPU demand
(:attr:`~repro.x86.vm.VirtualMachine.demand_inflation`). The memory-bound
component is scaled by the current DVFS speed before being added, so in
*wall-clock* terms memory stalls are frequency-invariant: lowering the
frequency stretches only the compute-bound part of a burst. That is the
physical fact coordinated energy policies exploit — a cache/bandwidth
allocation that removes stalls buys QoS slack that DVFS can then convert
into energy at small performance cost.

Nothing here is constructed by default: an island without an attached
:class:`MemorySystem` (and experiments that never attach one) behaves
bit-identically to a build without this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from ..sim import Tracer
from .vm import VirtualMachine

#: Default LLC size in ways (a 2008-era 16-way inclusive LLC).
DEFAULT_TOTAL_WAYS = 16

#: Default memory-pipe capacity in GB/s (one DDR2/3 channel's worth).
DEFAULT_CAPACITY_GBPS = 6.0

#: Upper bound on a domain's relative bandwidth share.
MAX_BW_SHARE = 1024


@dataclass(frozen=True, slots=True)
class MemoryProfile:
    """Offline-profiled memory behaviour of one domain's workload.

    Mirrors the offline profiles the paper uses to parameterise its
    coordination actions (§3.1): how memory-bound the workload is, how
    much LLC it wants, and how much traffic its misses generate.
    """

    #: Fraction of CPU demand that is memory-bound (stalls on the
    #: memory system when it misses the LLC).
    mem_fraction: float = 0.3
    #: LLC ways at which the workload's miss ratio bottoms out.
    ways_needed: int = 8
    #: Miss-ratio floor with a full way allocation (compulsory misses).
    base_miss: float = 0.1
    #: Memory traffic at miss ratio 1.0 (GB/s).
    bw_demand_gbps: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mem_fraction <= 1.0:
            raise ValueError(f"mem_fraction must be in [0,1], got {self.mem_fraction}")
        if self.ways_needed < 1:
            raise ValueError(f"ways_needed must be >= 1, got {self.ways_needed}")
        if not 0.0 <= self.base_miss <= 1.0:
            raise ValueError(f"base_miss must be in [0,1], got {self.base_miss}")
        if self.bw_demand_gbps < 0:
            raise ValueError(f"bw_demand_gbps must be >= 0, got {self.bw_demand_gbps}")

    def miss_ratio(self, ways: int) -> float:
        """LLC miss ratio with ``ways`` allocated (linear stack-distance
        ramp down to the floor at ``ways_needed``)."""
        if ways >= self.ways_needed:
            return self.base_miss
        starvation = 1.0 - ways / self.ways_needed
        return self.base_miss + (1.0 - self.base_miss) * starvation


@dataclass(frozen=True, slots=True)
class MemorySystemParams:
    """Shape of the shared uncore: LLC ways, pipe capacity, penalties."""

    total_ways: int = DEFAULT_TOTAL_WAYS
    capacity_gbps: float = DEFAULT_CAPACITY_GBPS
    #: Stall-time multiplier weight of a fully-missing memory-bound burst
    #: (service time of the memory-bound fraction scales by 1 + this).
    miss_penalty: float = 3.0
    #: Fraction of miss stalls an unthrottled prefetcher hides (when the
    #: pipe has headroom to feed it).
    prefetch_hide: float = 0.6
    #: Extra traffic an unthrottled prefetcher adds on top of demand
    #: misses (useless speculative fetches included).
    prefetch_waste: float = 0.6

    def __post_init__(self) -> None:
        if self.total_ways < 2:
            raise ValueError(f"total_ways must be >= 2, got {self.total_ways}")
        if self.capacity_gbps <= 0:
            raise ValueError(f"capacity_gbps must be positive, got {self.capacity_gbps}")


@dataclass(slots=True)
class _DomainState:
    """Mutable per-domain allocation state."""

    profile: MemoryProfile
    ways: int
    bw_share: int
    #: Prefetch throttle percent: 0 = fully aggressive, 100 = prefetch off.
    prefetch_throttle: int


class MemorySystem:
    """The shared LLC + bandwidth pipe, and its per-domain allocations.

    Domains are put under management with :meth:`manage`; their effective
    service time then reflects the current partition through the VM's
    ``demand_inflation`` hook. All three controls are exposed as typed
    knobs by :meth:`~repro.x86.island.X86Island.memory_manage`.
    """

    def __init__(
        self,
        params: Optional[MemorySystemParams] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.params = params or MemorySystemParams()
        self.tracer = tracer
        self._domains: dict[str, _DomainState] = {}
        #: Current DVFS speed source (bound by the island on attach).
        self._speed: Callable[[], float] = lambda: 1.0
        self.repartitions = 0

    # -- membership ---------------------------------------------------------

    def bind_speed(self, speed: Callable[[], float]) -> None:
        """Install the island's DVFS speed source (used to keep memory
        stalls frequency-invariant in wall time)."""
        self._speed = speed

    def manage(
        self,
        vm: VirtualMachine,
        profile: Optional[MemoryProfile] = None,
        ways: int = 4,
        bw_share: int = 100,
        prefetch_throttle: int = 0,
    ) -> None:
        """Put a domain's memory behaviour under the shared model.

        ``ways`` is the initial exclusive LLC partition (clamped to what
        is free), ``bw_share`` the relative bandwidth share, and
        ``prefetch_throttle`` the initial prefetcher throttle percent.
        """
        if vm.name in self._domains:
            raise ValueError(f"domain {vm.name!r} already memory-managed")
        if self.free_ways < 1:
            raise ValueError("no LLC ways left to allocate")
        ways = max(1, min(ways, self.free_ways))
        self._domains[vm.name] = _DomainState(
            profile=profile or MemoryProfile(),
            ways=ways,
            bw_share=max(1, min(MAX_BW_SHARE, bw_share)),
            prefetch_throttle=max(0, min(100, prefetch_throttle)),
        )
        vm.demand_inflation = partial(self.inflation, vm.name)

    def managed(self) -> list[str]:
        """Managed domain names, in management order."""
        return list(self._domains)

    @property
    def free_ways(self) -> int:
        """LLC ways not allocated to any managed domain."""
        return self.params.total_ways - sum(s.ways for s in self._domains.values())

    # -- the three Tune translations ---------------------------------------

    def set_ways(self, vm_name: str, ways: int) -> int:
        """Resize a domain's exclusive way partition; returns the applied
        size. Growth is limited by unallocated ways (partitions never
        overlap); the floor is one way."""
        state = self._domains[vm_name]
        available = state.ways + self.free_ways
        applied = max(1, min(int(ways), available))
        if applied != state.ways:
            state.ways = applied
            self.repartitions += 1
            if self.tracer is not None:
                self.tracer.emit("llc", "repartition", vm=vm_name, ways=applied)
        return applied

    def set_bw_share(self, vm_name: str, share: int) -> int:
        """Set a domain's relative bandwidth share (weighted max-min)."""
        state = self._domains[vm_name]
        applied = max(1, min(MAX_BW_SHARE, int(share)))
        if applied != state.bw_share:
            state.bw_share = applied
            if self.tracer is not None:
                self.tracer.emit("llc", "bw-share", vm=vm_name, share=applied)
        return applied

    def set_prefetch_throttle(self, vm_name: str, percent: int) -> int:
        """Throttle a domain's prefetcher (0 = aggressive, 100 = off)."""
        state = self._domains[vm_name]
        applied = max(0, min(100, int(percent)))
        if applied != state.prefetch_throttle:
            state.prefetch_throttle = applied
            if self.tracer is not None:
                self.tracer.emit("llc", "prefetch-throttle", vm=vm_name, percent=applied)
        return applied

    def ways(self, vm_name: str) -> int:
        return self._domains[vm_name].ways

    def bw_share(self, vm_name: str) -> int:
        return self._domains[vm_name].bw_share

    def prefetch_throttle(self, vm_name: str) -> int:
        return self._domains[vm_name].prefetch_throttle

    # -- the model ----------------------------------------------------------

    def _traffic_gbps(self, state: _DomainState, ways: int, throttle: int) -> float:
        """Memory traffic: demand misses plus speculative prefetches."""
        aggressiveness = 1.0 - throttle / 100.0
        miss = state.profile.miss_ratio(ways)
        return (
            state.profile.bw_demand_gbps
            * miss
            * (1.0 + aggressiveness * self.params.prefetch_waste)
        )

    def _allocations(
        self, overrides: Optional[dict[str, tuple[int, int, int]]] = None
    ) -> dict[str, tuple[float, float]]:
        """Weighted max-min bandwidth allocation: ``{vm: (demand, got)}``.

        ``overrides`` maps a domain to hypothetical
        ``(ways, bw_share, prefetch_throttle)`` so policies can evaluate
        candidate moves without mutating state.
        """

        def settings(name: str, state: _DomainState) -> tuple[int, int, int]:
            if overrides is not None and name in overrides:
                return overrides[name]
            return state.ways, state.bw_share, state.prefetch_throttle

        demands: dict[str, float] = {}
        shares: dict[str, int] = {}
        for name, state in self._domains.items():
            ways, share, throttle = settings(name, state)
            demands[name] = self._traffic_gbps(state, ways, throttle)
            shares[name] = share

        granted: dict[str, float] = {}
        unsatisfied = [n for n in self._domains if demands[n] > 0]
        capacity = self.params.capacity_gbps
        for name in self._domains:
            if demands[name] <= 0:
                granted[name] = 0.0
        # Weighted max-min: repeatedly give every still-unsatisfied domain
        # its share of the remaining capacity; domains whose demand fits
        # take exactly their demand and leave the contention set. At most
        # one domain leaves per round, so this terminates in <= n rounds.
        while unsatisfied:
            total_share = sum(shares[n] for n in unsatisfied)
            fair = {n: capacity * shares[n] / total_share for n in unsatisfied}
            done = [n for n in unsatisfied if demands[n] <= fair[n]]
            if not done:
                for n in unsatisfied:
                    granted[n] = fair[n]
                break
            for n in done:
                granted[n] = demands[n]
                capacity -= demands[n]
                unsatisfied.remove(n)
        return {n: (demands[n], granted[n]) for n in self._domains}

    def _stall(
        self,
        state: _DomainState,
        ways: int,
        throttle: int,
        demand: float,
        got: float,
    ) -> float:
        """Memory-stall factor of one domain under the given allocation."""
        profile = state.profile
        miss = profile.miss_ratio(ways)
        slowdown = demand / got if demand > got > 0 else 1.0
        # Prefetch hides stalls only to the extent the pipe feeds it.
        feed = min(1.0, got / demand) if demand > 0 else 1.0
        aggressiveness = 1.0 - throttle / 100.0
        effective_miss = miss * (1.0 - aggressiveness * self.params.prefetch_hide * feed)
        return profile.mem_fraction * effective_miss * self.params.miss_penalty * slowdown

    def inflation(self, vm_name: str) -> float:
        """Current service-time multiplier of one managed domain.

        The stall component is scaled by the current DVFS speed so that
        memory-bound wall time is frequency-invariant: with
        ``demand' = demand * (1 + stall * speed)``, wall time is
        ``demand * (1/speed + stall)`` — only the compute part stretches
        when the island is slowed down.
        """
        state = self._domains[vm_name]
        demand, got = self._allocations()[vm_name]
        stall = self._stall(state, state.ways, state.prefetch_throttle, demand, got)
        return 1.0 + stall * self._speed()

    def predict_stall(
        self,
        vm_name: str,
        ways: Optional[int] = None,
        bw_share: Optional[int] = None,
        prefetch_throttle: Optional[int] = None,
    ) -> float:
        """Hypothetical stall factor of ``vm_name`` under overridden
        settings (speed-independent; what greedy policies compare)."""
        state = self._domains[vm_name]
        hyp = (
            state.ways if ways is None else ways,
            state.bw_share if bw_share is None else bw_share,
            state.prefetch_throttle if prefetch_throttle is None else prefetch_throttle,
        )
        allocations = self._allocations(overrides={vm_name: hyp})
        demand, got = allocations[vm_name]
        return self._stall(state, hyp[0], hyp[2], demand, got)

    def pipe_congested(self) -> bool:
        """Whether total traffic demand exceeds the pipe capacity."""
        allocations = self._allocations()
        total_demand = sum(demand for demand, _got in allocations.values())
        return total_demand > self.params.capacity_gbps

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Per-domain allocation and model state (for reports/tests)."""
        allocations = self._allocations()
        out: dict[str, dict[str, float]] = {}
        for name, state in self._domains.items():
            demand, got = allocations[name]
            out[name] = {
                "ways": state.ways,
                "bw_share": state.bw_share,
                "prefetch_throttle": state.prefetch_throttle,
                "miss_ratio": state.profile.miss_ratio(state.ways),
                "bw_demand_gbps": demand,
                "bw_granted_gbps": got,
                "stall": self._stall(
                    state, state.ways, state.prefetch_throttle, demand, got
                ),
            }
        return out
