"""Every public name of the library has a caller.

A public module-level name of ``src/qeuler`` (``cli`` aside, whose names are
the commands) must be read somewhere in the package outside its own
definition and ``__init__``, be wrapped by name in the benchmark's tracer
(a key of a layer's table in ``perfbench/tracing.py``'s ``LAYERS``), or be
called by the benchmark's ``perfbench/session.py``.  A public method of a
class in those modules must be read as an attribute somewhere in the package
outside its own body, be wrapped by the tracer's ``METHODS``, or be read by
``perfbench/session.py``.  Reference-only code belongs in the test that uses
it.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qeuler"

# module.name or module.Class.method -> the ROADMAP item that gives it a
# caller or moves it out
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


def _methods(tree):
    """``(class name, method)`` for each public method of a module-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                    yield cls.name, stmt


def _read(node):
    """The identifiers a node reads, as names or attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _benchmark():
    """The tracer's wrapped function names, its wrapped ``(class, method)``
    pairs, and the names ``perfbench/session.py`` reads."""
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
    return traced, set(tracing.METHODS), called


def _uncalled(modules, traced=frozenset(), traced_methods=frozenset(), session=frozenset()):
    """The public names and methods of ``modules`` (module name -> tree) that
    nothing reads, as ``module.name`` and ``module.Class.method``."""
    reads = [(stmt, set(_read(stmt))) for tree in modules.values() for stmt in tree.body
             if not isinstance(stmt, (ast.Import, ast.ImportFrom))]
    attributes = [node for tree in modules.values() for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)]
    out = set()
    for mod, tree in modules.items():
        if mod == "cli":
            continue
        for name, definition in _definitions(tree):
            if name in traced or name in session:
                continue
            if not any(name in names for stmt, names in reads if stmt is not definition):
                out.add(f"{mod}.{name}")
        for cls, method in _methods(tree):
            if (cls, method.name) in traced_methods or method.name in session:
                continue
            own = {id(node) for node in ast.walk(method)}
            if not any(a.attr == method.name and id(a) not in own for a in attributes):
                out.add(f"{mod}.{cls}.{method.name}")
    return out


def test_every_public_name_has_a_caller():
    modules = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))
               if path.stem != "__init__"}
    # the allow-list holds exactly the names still waiting for their item, so
    # an entry goes stale as soon as its name gains a caller or is removed
    assert _uncalled(modules, *_benchmark()) == set(ALLOWED)


SAMPLE = '''
class Box:
    def called(self):
        return self

    def uncalled(self, n):
        # reads itself and its sibling: only the sibling's read is a caller
        return self.uncalled(n - 1) if n else self.called()


_BOX = Box()
'''


def test_the_method_rule_names_exactly_the_uncalled_method():
    modules = {"sample": ast.parse(SAMPLE)}
    assert _uncalled(modules) == {"sample.Box.uncalled"}
    assert _uncalled(modules, traced_methods={("Box", "uncalled")}) == set()
    assert _uncalled(modules, session={"uncalled"}) == set()
