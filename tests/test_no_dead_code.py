"""Every module-level function, class, method and UPPER_CASE constant under
src/minifair has a reader under src/, or is a layer that perfbench/tracer.py
wraps. Dunders and the entry points need no reader: the console script, and
the stand-in data generators that README documents and perfbench/run.py looks
up by name.

A reader is any load of the name: a bare name, an attribute access, or a
`from .module import name`. Reads inside a definition that has no reader do
not count, so a helper used only by dead code is dead too. The scan is by
name, not by binding: a method named like a numpy attribute (`copy`) or a
field of another class is kept alive by those reads, so it errs towards
passing.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "minifair"
TRACER = ROOT / "perfbench" / "tracer.py"
ENTRY_POINTS = {
    "cli.main",
    "synthdata.generate_law_csv",
    "synthdata.generate_compas_csv",
    "synthdata.generate_adult_csv",
}


def _definitions(module, tree):
    """(qualified name, bare name, node) of every definition the scan checks."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{item.name}", item.name, item
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield f"{module}.{target.id}", target.id, node


def _reads(node, skip):
    """Names loaded anywhere under `node`, except under the nodes in `skip`."""
    if node in skip:
        return
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        yield node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        yield from (alias.name for alias in node.names)
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, skip)


def _traced():
    """Qualified names of the layers perfbench/tracer.py wraps."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return {f"{module}.{attr}" for _, module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/tracer.py defines no TRACED")


def unread_definitions():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    allowed = _traced() | ENTRY_POINTS
    candidates = [
        (qualified, name, node)
        for module, tree in trees.items()
        for qualified, name, node in _definitions(module, tree)
        if not (name.startswith("__") and name.endswith("__")) and qualified not in allowed
    ]
    dead = {}
    while True:  # each pass drops the reads made only by dead definitions
        skip = set(dead.values())
        reads = {name for tree in trees.values() for name in _reads(tree, skip)}
        now = {q: node for q, name, node in candidates if name not in reads}
        if now.keys() == dead.keys():
            return sorted(dead)
        dead = now


def test_every_definition_has_a_reader_under_src():
    assert unread_definitions() == []
