"""Every public name of the library has a caller.

A public module-level name of ``src/qeuler`` (``cli`` aside, whose names are
the commands) must be read somewhere in the package outside its own
definition and ``__init__``, be wrapped by name in the benchmark's tracer
(a key of a layer's table in ``perfbench/tracing.py``'s ``LAYERS``), or be
called by the benchmark's ``perfbench/session.py``.  Reference-only code
belongs in the test that uses it.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qeuler"

# module.name -> the ROADMAP item that gives it a caller or moves it out
ALLOWED = {
    "eulerian.classical_gamma_a": "item 9: the q = 1 rows against the classical gamma triangles",
    "eulerian.classical_gamma_b": "item 9: the q = 1 rows against the classical gamma triangles",
    "unimodality.q1_unimodality": "item 9: the q = 1 rows against q1_unimodality",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree):
    """``(name, statement)`` for each public name bound at module level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id]
        else:
            continue
        yield from ((name, stmt) for name in names if not name.startswith("_"))


def _read(node):
    """The identifiers a node reads, as names or attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _benchmark_names():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    traced = {name for _, groups in tracing.LAYERS.values() for name in groups}
    # session.py calls qeuler.<name>, serialize.<name>, or looks a name up
    # from a string
    session = _parse(ROOT / "perfbench" / "session.py")
    called = set(_read(session)) | {
        node.value for node in ast.walk(session)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return traced | called


def _uncalled():
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"}
    reads = [(stmt, set(_read(stmt))) for tree in modules.values() for stmt in tree.body
             if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    benchmark = _benchmark_names()
    out = set()
    for mod, tree in modules.items():
        if mod == "cli":
            continue
        for name, definition in _definitions(tree):
            if name in benchmark:
                continue
            if not any(name in names for stmt, names in reads if stmt is not definition):
                out.add(f"{mod}.{name}")
    return out


def test_every_public_name_has_a_caller():
    # the allow-list holds exactly the names still waiting for their item, so
    # an entry goes stale as soon as its name gains a caller or is removed
    assert _uncalled() == set(ALLOWED)
