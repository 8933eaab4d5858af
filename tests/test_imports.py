"""Static hygiene: no module of the package imports a name it never uses."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "wreathfock"
# __init__.py imports only to re-export
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never referenced, also not in a quoted
    annotation such as "WreathType"."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    trees = [tree] + [ast.parse(c.value, mode="eval")
                      for a in _annotations(tree) if a is not None
                      for c in ast.walk(a) if isinstance(c, ast.Constant)
                      and isinstance(c.value, str)]
    used = {n.id for t in trees for n in ast.walk(t)
            if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == \
        ["os (line 1)"]
    assert unused_imports("from typing import List\nx: 'List[int]'\n") == []
    assert unused_imports("from typing import List\nx = 'List'\n") == \
        ["List (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
