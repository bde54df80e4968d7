"""Per-layer attribution of a cProfile trace, keyed on ``repro.<package>``.

Self time of code outside ``repro`` (C builtins, the standard library,
generated dataclass methods) is charged to whoever called it, split over
the calling edges by the time each edge spent there, until it reaches a
``repro`` function. Without that rule a third of a fabric run would sit
in unnamed builtins.
"""

from __future__ import annotations

import os
import pstats

#: The simulator's layers, one per ``repro`` sub-package.
LAYERS = (
    "sim", "x86", "ixp", "net", "interconnect", "coordination",
    "platform", "apps", "metrics", "obs", "experiments",
)


def _package_of(filename: str, src_repro: str):
    """``<package>`` for code under ``src/repro``, else None."""
    path = os.path.realpath(filename)
    if not path.startswith(src_repro + os.sep):
        return None
    head = path[len(src_repro) + 1:].split(os.sep, 1)[0]
    return head[:-3] if head.endswith(".py") else head


def attribute(profiler, src_repro: str) -> tuple[dict, dict, float]:
    """``(self_share, calls, coverage)`` per layer from a finished profile.

    ``self_share`` is each layer's share of all traced self time,
    builtins included; ``calls`` counts calls into the layer's own
    functions; ``coverage`` is the share the named layers hold together.
    """
    stats = pstats.Stats(profiler).stats  # func -> (cc, nc, tt, ct, callers)
    src_repro = os.path.realpath(src_repro)
    owner = {func: _package_of(func[0], src_repro) for func in stats}
    memo: dict = {}

    def shares(func, path: frozenset) -> dict:
        """Package -> fraction of ``func``'s self time it is charged."""
        if owner.get(func) is not None:
            return {owner[func]: 1.0}
        if func in memo:
            return memo[func]
        if func in path or func not in stats:
            return {None: 1.0}
        # callers: caller -> (nc, cc, tt, ct) of this edge.
        weights = {caller: edge[2] or edge[0] for caller, edge in stats[func][4].items()}
        total = sum(weights.values())
        if not total:
            result = {None: 1.0}
        else:
            result = {}
            for caller, weight in weights.items():
                for package, fraction in shares(caller, path | {func}).items():
                    result[package] = result.get(package, 0.0) + fraction * weight / total
        memo[func] = result
        return result

    self_time = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total_time = 0.0
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        total_time += tt
        if owner[func] in calls:
            calls[owner[func]] += nc
        for package, fraction in shares(func, frozenset()).items():
            if package in self_time:
                self_time[package] += tt * fraction
    self_share = {layer: t / total_time for layer, t in self_time.items()}
    return self_share, calls, sum(self_share.values())
