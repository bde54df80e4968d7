"""Every ``src/`` definition has a reader outside ``tests/``.

The scan parses ``src/repro/**/*.py`` and collects its module-level
functions and classes, plus the methods of those classes, leaving out
dunders. A definition counts as read when its name occurs as an
``ast.Name`` or ``ast.Attribute`` anywhere in ``src/``, ``tools/``,
``examples/``, ``benchmarks/`` or ``perfbench/``; import aliases and
``__all__`` strings do not count.

``UNREAD_ALLOWED`` names the exceptions, each with its reason. The test
fails on an unread definition that is not listed, and on a listed entry
that is now read or gone, so the list cannot go stale.

Limits of the scan:

* it matches names, not bindings: a read of ``x.stats`` counts for every
  ``stats`` method in ``src/``, and a recursive call reads its own
  definition;
* it finds only first-order cases: code that only other unread code
  reads is counted as read, and shows up once its last reader goes;
* it does not scan constants or attributes, so an unread module
  constant or instance attribute is found only by hand.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Where code that reads ``src/`` lives, beside ``src/`` itself.
READER_DIRS = ("tools", "examples", "benchmarks", "perfbench")

_STATE_VIEW = "test view of state a run keeps"
_DIRECTORY = "Directory protocol surface; the directory rewrite in ROADMAP.md decides it"

#: ``"module:Qualname"`` -> why the definition stays with no reader
#: outside ``tests/``.
UNREAD_ALLOWED = {
    "repro.apps.mplayer.player:MPlayerClient.backlog_frames": _STATE_VIEW,
    "repro.apps.mplayer.streams:StreamSpec.cpu_share_required": _STATE_VIEW,
    "repro.apps.rubis.client:RubisClient.current_phase": _STATE_VIEW,
    "repro.interconnect.reliable:ReliableEndpoint.pending_coalesced": _STATE_VIEW,
    "repro.ixp.microengine:Microengine.threads_free": _STATE_VIEW,
    "repro.metrics.response:ResponseTimeRecorder.keys": _STATE_VIEW,
    "repro.platform.knobs:KnobRegistry.active_leases": _STATE_VIEW,
    "repro.x86.cpu:PhysicalCPU.idle_time": _STATE_VIEW,
    "repro.x86.guest:GuestKernel.has_work": _STATE_VIEW,
    "repro.x86.guest:GuestKernel.outstanding_io": _STATE_VIEW,
    "repro.x86.llc:MemorySystem.pipe_congested": _STATE_VIEW,
    "repro.platform.directory:Directory": _DIRECTORY,
    "repro.platform.directory:Directory.owner_of": _DIRECTORY,
    "repro.platform.directory:Directory.known_entities": _DIRECTORY,
    "repro.platform.directory:DirectoryBase.owner_of": _DIRECTORY,
    "repro.platform.directory:DirectoryBase.known_entities": _DIRECTORY,
    "repro.platform.directory:DirectoryBase.isolated": _DIRECTORY,
    "repro.platform.directory:DirectoryBase.discovery_latency": _DIRECTORY,
    "repro.platform.directory:GossipDirectory.is_converged": _DIRECTORY,
    "repro.sim.tracing:TraceLog": "test-support trace sink; the docs point at it",
    "repro.sim.tracing:TraceLog.of_kind": "test-support trace query",
    "repro.sim.tracing:TraceLog.count_by_kind": (
        "a traced run's per-kind totals, as docs/ARCHITECTURE.md documents"
    ),
    "repro.testbed:build_testbed": "documented entry point of docs/EXTENDING.md",
    "repro.platform.mesh:CoordinationMesh.inject_link_fault": (
        "the only way to inject faults into a fabric; TestbedConfig's error names it"
    ),
}

_DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_METHOD = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _parse(directory):
    """``(path, tree)`` of every Python file under ``directory``."""
    for path in sorted((ROOT / directory).rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def _src_definitions(src_trees):
    """``{"module:Qualname": node}`` of every definition the scan covers."""
    definitions = {}
    for path, tree in src_trees:
        parts = path.relative_to(ROOT / "src").with_suffix("").parts
        module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        for node in tree.body:
            if not isinstance(node, _DEFINITION):
                continue
            if not _is_dunder(node.name):
                definitions[f"{module}:{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, _METHOD) and not _is_dunder(method.name):
                        definitions[f"{module}:{node.name}.{method.name}"] = method
    return definitions


def _read_names(trees):
    names = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_src_definition_has_a_reader():
    src_trees = list(_parse("src"))
    reader_trees = src_trees + [
        parsed for directory in READER_DIRS for parsed in _parse(directory)
    ]
    definitions = _src_definitions(src_trees)
    names = _read_names(reader_trees)
    unread = {key for key, node in definitions.items() if node.name not in names}
    unlisted = sorted(unread - UNREAD_ALLOWED.keys())
    stale = sorted(UNREAD_ALLOWED.keys() - unread)
    assert not unlisted, (
        "only tests read these src/ definitions; delete them or list them "
        f"in UNREAD_ALLOWED with a reason: {unlisted}"
    )
    assert not stale, f"UNREAD_ALLOWED entries now read or gone: {stale}"
