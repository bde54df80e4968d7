"""Deterministic random-number streams.

Every stochastic component of the simulation draws from its own named child
stream, derived from the experiment's root seed. This makes runs reproducible
*and* keeps components statistically independent: adding a new consumer of
randomness cannot perturb the draws seen by existing ones.
"""

from __future__ import annotations

import hashlib
import random
from typing import Sequence, TypeVar

T = TypeVar("T")


class RandomStream(random.Random):
    """A named ``random.Random`` with a few distribution helpers."""

    def __new__(cls, seed_material: bytes, name: str):
        # Python 3.10's random.Random.__new__ takes at most one argument;
        # __init__ seeds the generator, so none is passed on.
        return super().__new__(cls)

    def __init__(self, seed_material: bytes, name: str):
        digest = hashlib.sha256(seed_material).digest()
        super().__init__(int.from_bytes(digest[:8], "big"))
        self.name = name

    def exponential(self, mean: float) -> float:
        """Exponentially distributed sample with the given mean."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean}")
        return self.expovariate(1.0 / mean)

    def bounded_normal(self, mean: float, sigma: float, minimum: float = 0.0) -> float:
        """Normal sample truncated below at ``minimum`` (re-draws, max 64)."""
        for _ in range(64):
            sample = self.normalvariate(mean, sigma)
            if sample >= minimum:
                return sample
        return minimum

    def weighted_choice(self, options: Sequence[T], weights: Sequence[float]) -> T:
        """One of ``options`` with probability proportional to ``weights``."""
        if len(options) != len(weights):
            raise ValueError("options and weights must have the same length")
        return self.choices(options, weights=weights, k=1)[0]

    def __repr__(self) -> str:
        return f"<RandomStream {self.name!r}>"


class RandomStreams:
    """Factory of independent named :class:`RandomStream` children."""

    def __init__(self, seed: int):
        self.seed = seed
        self._children: dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """The child stream for ``name`` (created on first use, then cached)."""
        existing = self._children.get(name)
        if existing is not None:
            return existing
        material = f"{self.seed}:{name}".encode()
        child = RandomStream(material, name)
        self._children[name] = child
        return child

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self.seed} children={sorted(self._children)}>"
