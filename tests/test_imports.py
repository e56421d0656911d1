"""Every imported name is read somewhere in the module that imports it.

The check is by name over the whole module, so an import inside a
function counts as read when any code of the module reads that name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/htk/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(path):
    """``file:line name`` for each name ``path`` imports and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for line, name in bound if name not in read]


def test_the_sweep_covers_the_package_and_the_tests():
    names = {p.name for p in FILES}
    assert {"theory.py", "graded.py", "oracles.py", "test_imports.py"} <= names


def test_no_unused_imports():
    assert [hit for path in FILES for hit in unused_imports(path)] == []
