"""Differential property test of the gossip directory's anti-entropy.

``FullScanGossipDirectory`` keeps the full-scan round and exchange that
:class:`~repro.platform.GossipDirectory` replaced: every exchange offers
every ownership record in both directions. Hypothesis drives it and the
production class through one schedule of island admissions, new
registrations, same-island re-registrations, moves, isolate/heal and
simulation steps. After every step both directories must hold the same
views in the same insertion order, the same message accounting and the
same discovery instrumentation, and each directory's holding counts and
spreading set must agree with a recount from its views. The explicit
examples make every branch of the production merge run on every run: a
heal that leaves one record spreading (offered alone), two records that
land in one receiver (the in-order scan), and an admission after
convergence (every record spreads again).
"""

from hypothesis import example, given, settings, strategies as st

from repro.platform import EntityId, GossipDirectory
from repro.sim import Simulator, ms
from repro.x86 import X86Island, X86Params

MAX_ISLANDS = 8


class FullScanGossipDirectory(GossipDirectory):
    """The reference: the full-scan anti-entropy round and exchange."""

    def _gossip_round(self) -> None:
        nodes = sorted(self._views)
        live = [node for node in nodes if node not in self._isolated]
        self.rounds += 1
        for node in live:
            peers = [peer for peer in live if peer != node]
            if not peers:
                continue
            peer = peers[self.rng.randrange(len(peers))]
            self._exchange(node, peer)

    def _exchange(self, a: str, b: str) -> None:
        """Push-pull anti-entropy between two nodes: both end up with the
        union of their views, newer ``(epoch, version)`` stamps winning.
        Costs two messages at each end (request + response)."""
        self.exchanges += 1
        self._count(a, 2)
        self._count(b, 2)
        for entity, record in list(self._views[a].items()):
            self._offer(b, entity, record)
        for entity, record in list(self._views[b].items()):
            self._offer(a, entity, record)


class World:
    """One simulator, one gossip directory and the islands it admitted."""

    def __init__(self, cls, initial_islands: int, seed: int):
        self.sim = Simulator()
        self.directory = cls(self.sim, seed=seed)
        self.islands: list[X86Island] = []
        self.entities: list[EntityId] = []
        for _ in range(initial_islands):
            self.admit()

    def admit(self) -> None:
        if len(self.islands) < MAX_ISLANDS:
            island = X86Island(
                self.sim, X86Params(num_cpus=1), name=f"isle-{len(self.islands)}"
            )
            self.directory.register_island(island)
            self.islands.append(island)

    def island(self, index: int) -> X86Island:
        return self.islands[index % len(self.islands)]

    def apply(self, step: tuple) -> None:
        kind, first, second = step
        directory = self.directory
        if kind == "admit":
            self.admit()
        elif kind == "register":
            entity = EntityId("svc", f"e{len(self.entities)}")
            self.entities.append(entity)
            directory.note_entity(self.island(first), entity)
        elif kind in ("reregister", "move") and self.entities:
            entity = self.entities[first % len(self.entities)]
            owner = directory.owner_name(entity)
            if kind == "reregister":
                target = directory.island(owner)
            else:
                target = self.island(second)
                if target.name == owner:
                    target = self.island(second + 1)
            directory.note_entity(target, entity)
        elif kind == "isolate":
            directory.isolate(self.island(first).name)
        elif kind == "heal":
            directory.heal(self.island(first).name)
        elif kind == "run":
            self.sim.run(until=self.sim.now + ms(first))


def observe(directory: GossipDirectory) -> tuple:
    """Everything the two exchanges must agree on, insertion order included."""
    return (
        [(node, list(view.items())) for node, view in directory._views.items()],
        directory.message_counts(),
        directory.rounds,
        directory.exchanges,
        {entity: directory.visible_at(entity) for entity in directory.known_entities()},
    )


def check_holding_counts(directory: GossipDirectory) -> None:
    """Recount "node holds the entity's authoritative record" from the views."""
    views = directory._views
    authoritative = directory._authoritative
    holding = {
        node: sum(view.get(entity) is record for entity, record in authoritative.items())
        for node, view in views.items()
    }
    reach = {
        entity: sum(view.get(entity) is record for view in views.values())
        for entity, record in authoritative.items()
    }
    assert directory._holding == holding
    assert directory._reach == reach
    assert sum(directory._holding.values()) == sum(directory._reach.values())
    assert directory._spreading == {
        entity for entity, count in reach.items() if count < len(views)
    }
    everywhere = {entity: count == len(views) for entity, count in reach.items()}
    assert directory.is_converged() == all(everywhere.values())
    for entity, visible in everywhere.items():
        assert (directory.visible_at(entity) is not None) == visible


INDEX = st.integers(min_value=0, max_value=MAX_ISLANDS - 1)
STEP = st.one_of(
    st.tuples(st.just("admit"), st.just(0), st.just(0)),
    st.tuples(st.just("register"), INDEX, st.just(0)),
    st.tuples(st.just("reregister"), INDEX, st.just(0)),
    st.tuples(st.just("move"), INDEX, INDEX),
    st.tuples(st.just("isolate"), INDEX, st.just(0)),
    st.tuples(st.just("heal"), INDEX, st.just(0)),
    st.tuples(st.just("run"), st.integers(min_value=1, max_value=300), st.just(0)),
)


CONVERGE = ("run", 300, 0)


@settings(max_examples=15, deadline=None)
@example(3, 1, [CONVERGE, ("isolate", 2, 0), ("register", 2, 0), ("run", 100, 0),
                ("heal", 2, 0), CONVERGE])
@example(3, 1, [CONVERGE, ("isolate", 2, 0), ("register", 2, 0), ("register", 2, 0),
                ("heal", 2, 0), CONVERGE])
@example(2, 1, [CONVERGE, ("admit", 0, 0), CONVERGE])
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=1000),
    st.lists(STEP, min_size=1, max_size=30),
)
def test_property_incremental_exchange_matches_full_scan(initial_islands, seed, schedule):
    reference = World(FullScanGossipDirectory, initial_islands, seed)
    production = World(GossipDirectory, initial_islands, seed)
    for step in schedule:
        reference.apply(step)
        production.apply(step)
        assert observe(production.directory) == observe(reference.directory)
        check_holding_counts(reference.directory)
        check_holding_counts(production.directory)
    # Heal every partition and let the epidemic finish: both converge to
    # the same views.
    for world in (reference, production):
        for island in world.islands:
            world.directory.heal(island.name)
        world.apply(("run", 2000, 0))
    assert observe(production.directory) == observe(reference.directory)
    check_holding_counts(production.directory)
    assert production.directory.is_converged()
