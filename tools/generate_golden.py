"""Pin the simulated outputs of every experiment RESULTS.txt does not.

Run with::

    PYTHONPATH=src python tools/generate_golden.py > GOLDEN.txt

Each ``golden`` job of the experiment table (``EXPERIMENTS``) runs at
small scale, in table order, and prints one ``path = value`` line per
leaf of its result under ``<experiment>[<job label>]``: dataclass fields
in declaration order, dict keys sorted, values as ``repr``. Floats are
rounded to 12 significant digits first: Python 3.12's ``sum()``
compensates float rounding, so every mean the experiments take with
``sum()`` differs from 3.10's in its last one or two digits, and the file
must be the same on every Python CI runs. Host-side fields
(``wall_seconds``, ``engine``, ``shards``, ``events_per_second``, the
trace ``destination``) stay out. Kernel event and window counts get their
own section, so a change that only drops no-op events moves that section
alone.

Jobs that share a label must render identically, kernel counts included
(the sharded fabric at shards 1 and 2 does), and the file keeps one copy.
CI regenerates the file under two hash seeds and compares it byte for
byte with the committed ``GOLDEN.txt``; a change that moves a row on
purpose regenerates the file and says which rows moved and why.
"""

from __future__ import annotations

import dataclasses
import sys

from repro.experiments import EXPERIMENTS

#: Fields and keys that describe the host or the harness, not the simulation.
HOST_FIELDS = frozenset({"wall_seconds", "engine", "shards", "events_per_second", "destination"})
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


def main() -> None:
    outputs: list[str] = []
    kernel: list[str] = []
    rendered: dict[str, tuple[list[str], list[str]]] = {}
    for experiment in EXPERIMENTS:
        for job in experiment.golden:
            label = f"{experiment.name}[{job.label}]"
            rows: tuple[list[str], list[str]] = ([], [])
            _render(job.run(), label, *rows)
            if label not in rendered:
                rendered[label] = rows
                outputs += rows[0]
                kernel += rows[1]
            elif rendered[label] != rows:
                raise SystemExit(f"{label}: jobs that share this label diverged")
    sys.stdout.write("== outputs ==\n")
    sys.stdout.writelines(line + "\n" for line in outputs)
    sys.stdout.write("== kernel ==\n")
    sys.stdout.writelines(line + "\n" for line in kernel)


if __name__ == "__main__":
    main()
