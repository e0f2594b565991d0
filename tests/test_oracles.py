"""``tests/oracles.py`` holds no orphan: every top-level function and class
there is read by a test file, or by another name of the oracles that is."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def _reads(node) -> set:
    """The names, attribute names and imported names that ``node`` reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_every_oracle_is_read_by_a_test():
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    reads = {}  # each top-level name of the oracles -> what its definition reads
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            reads[node.name] = _reads(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in set().union(*map(_reads, targets)):
                reads[name] = _reads(node.value)
    todo = set().union(*(_reads(ast.parse(path.read_text(encoding="utf-8")))
                         for path in TESTS.glob("test_*.py")))
    seen = set()
    while todo:
        name = todo.pop()
        if name in reads and name not in seen:
            seen.add(name)
            todo |= reads[name]
    defined = [node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert [name for name in defined if name not in seen] == []
