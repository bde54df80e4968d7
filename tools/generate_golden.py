"""Pin the simulated outputs of every experiment RESULTS.txt does not.

Run with::

    PYTHONPATH=src python tools/generate_golden.py > GOLDEN.txt

Each experiment runs at small scale and prints one ``path = value`` line
per leaf of its result: dataclass fields in declaration order, dict keys
sorted, values as ``repr``. Floats are rounded to 12 significant digits
first: Python 3.12's ``sum()`` compensates float rounding, so every mean
the experiments take with ``sum()`` differs from 3.10's in its last one
or two digits, and the file must be the same on every Python CI runs.
Host-side fields (``wall_seconds``, ``engine``, ``events_per_second``,
the trace ``destination``) stay out. Kernel event and window counts get
their own section, so a change that only drops no-op events moves that
section alone.

The sharded fabric runs at shards 1 and 2, and the tool fails unless the
two agree on every simulated field, kernel counts included. CI regenerates
the file under two hash seeds and compares it byte for byte with the
committed ``GOLDEN.txt``; a change that moves a row on purpose regenerates
the file and says which rows moved and why.
"""

from __future__ import annotations

import dataclasses
import sys
import tempfile
from pathlib import Path

from repro.experiments import (
    run_chaos_arm,
    run_energy_qos,
    run_fabric_arm,
    run_fabric_sharded_arm,
    run_power_cap_arm,
    run_scalability_arm,
    run_traced_rubis,
)
from repro.experiments.fabric import ARMS as FABRIC_ARMS
from repro.experiments.power import ARMS as POWER_ARMS
from repro.experiments.scalability import ARMS as SCALABILITY_ARMS
from repro.sim import ms, seconds

#: Fields and keys that describe the host or the harness, not the simulation.
HOST_FIELDS = frozenset({"wall_seconds", "engine", "events_per_second", "destination"})
#: Fields and keys that count kernel work: they go in the kernel section.
KERNEL_FIELDS = frozenset({"events", "windows"})
#: Significant digits a float keeps (see the module docstring).
FLOAT_DIGITS = 12


def _render(value, path: str, outputs: list[str], kernel: list[str]) -> None:
    """Append a ``path = repr`` line for every leaf under ``value``."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        for field in dataclasses.fields(value):
            _member(field.name, getattr(value, field.name), f"{path}.{field.name}",
                    outputs, kernel)
    elif isinstance(value, dict):
        for key in sorted(value, key=repr):
            _member(key, value[key], f"{path}[{key!r}]", outputs, kernel)
    elif isinstance(value, (list, tuple)) and value:
        for index, item in enumerate(value):
            _render(item, f"{path}[{index}]", outputs, kernel)
    elif isinstance(value, float):
        outputs.append(f"{path} = {float(f'{value:.{FLOAT_DIGITS}g}')!r}")
    else:
        outputs.append(f"{path} = {value!r}")


def _member(name, value, path: str, outputs: list[str], kernel: list[str]) -> None:
    """Render one field or dict entry into the section its name picks."""
    if not isinstance(name, str):
        _render(value, path, outputs, kernel)
    elif name in HOST_FIELDS:
        return
    elif name in KERNEL_FIELDS:
        _render(value, path, kernel, kernel)
    else:
        _render(value, path, outputs, kernel)


def _rows():
    """Yield ``(label, result)`` for every pinned arm."""
    for arm in FABRIC_ARMS:
        for count in (8, 32):
            for seed in (1, 7):
                yield f"fabric[{arm},K={count},seed={seed}]", run_fabric_arm(
                    arm, count, seed=seed
                )
    for arm in SCALABILITY_ARMS:
        for count in (2, 4, 8):
            yield f"scalability[{arm},K={count}]", run_scalability_arm(arm, count)
    for blackout in (200, 500, 1000):
        yield f"chaos[blackout={blackout}ms]", run_chaos_arm(ms(blackout))
    yield "energyqos[seed=1]", run_energy_qos(seed=1)
    for mode in POWER_ARMS:
        yield f"power-cap[{mode},5s]", run_power_cap_arm(mode, duration=seconds(5))
    with tempfile.TemporaryDirectory() as tmp:
        yield "trace[rubis,6s]", run_traced_rubis(
            duration=seconds(6), destination=str(Path(tmp) / "trace.json")
        )


def _sharded_rows():
    """The sharded fabric at K=128, blackout on and off (the off world is
    the one the shard-chaos drills run), checked across shard counts."""
    for blackout in (True, False):
        label = f"fabric-sharded[K=128,blackout={'on' if blackout else 'off'},shards=1|2]"
        rendered = []
        for shards in (1, 2):
            result = run_fabric_sharded_arm(128, shards=shards, blackout=blackout)
            outputs: list[str] = []
            kernel: list[str] = []
            _render(result, label, outputs, kernel)
            outputs.remove(f"{label}.shards = {shards!r}")
            rendered.append((outputs, kernel))
        if rendered[0] != rendered[1]:
            raise SystemExit(f"{label}: shards=2 diverged from shards=1")
        yield rendered[0]


def main() -> None:
    outputs: list[str] = []
    kernel: list[str] = []
    for label, result in _rows():
        _render(result, label, outputs, kernel)
    for sharded_outputs, sharded_kernel in _sharded_rows():
        outputs += sharded_outputs
        kernel += sharded_kernel
    sys.stdout.write("== outputs ==\n")
    sys.stdout.writelines(line + "\n" for line in outputs)
    sys.stdout.write("== kernel ==\n")
    sys.stdout.writelines(line + "\n" for line in kernel)


if __name__ == "__main__":
    main()
