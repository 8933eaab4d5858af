"""Import hygiene: no module of the package imports a name it never uses,
no public function or class lives in the package only for tests, and
start-up loads no module that only a dataclass needs."""
import ast
import os
import subprocess
import sys
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


# library entry points that no module of the package calls
ENTRY_POINTS = {
    "coset_gset",          # G acting on the cosets of a subgroup
    "trivial_char",        # the trivial class function of G_n
    "trivial_character",   # the trivial class function of G
}


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Top-level functions and classes, public or private, that no source
    names, other than at their own definition; a quoted annotation such
    as "WreathType" names one too.  A private helper that lost its last
    caller is dead code."""
    defined, used = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined[module, node.name] = node.lineno
        trees = [tree] + [ast.parse(c.value, mode="eval")
                          for a in _annotations(tree) if a is not None
                          for c in ast.walk(a) if isinstance(c, ast.Constant)
                          and isinstance(c.value, str)]
        used |= {n.id for t in trees for n in ast.walk(t)
                 if isinstance(n, ast.Name)}
    return [f"{name} ({module}:{line})"
            for (module, name), line in defined.items() if name not in used]


def test_scan_finds_an_unused_definition():
    sources = {"a.py": "def used():\n    pass\n\n\ndef planted():\n"
                       "    pass\n\n\nclass _Private:\n    pass\n",
               "b.py": "x: 'used'\n"}
    assert unused_definitions(sources) == ["planted (a.py:5)",
                                           "_Private (a.py:9)"]
    sources["b.py"] += "planted()\n_Private()\n"
    assert unused_definitions(sources) == []


def test_no_definition_lives_only_for_tests():
    """Every public name a module defines is used by the package itself;
    __init__.py re-exports do not count."""
    unused = unused_definitions({p.name: p.read_text() for p in MODULES})
    names = {entry.split()[0] for entry in unused}
    assert names - ENTRY_POINTS == set(), unused
    # an entry point that gained a caller leaves the list
    assert ENTRY_POINTS - names == set()


def test_cli_start_up_loads_no_dataclasses_or_inspect():
    """Every command pays its imports first: `import wreathfock.cli` loads
    neither `dataclasses` nor `inspect` (which brings ast, dis and
    tokenize).  -S keeps a site hook from loading them before the package."""
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import wreathfock.cli; import sys; print(sorted(sys.modules))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent))).stdout
    loaded = set(ast.literal_eval(out))
    assert "wreathfock.cli" in loaded
    assert loaded & {"dataclasses", "inspect"} == set()
