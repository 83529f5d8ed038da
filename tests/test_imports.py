"""Every name a module imports is used in that module.

The repository has no linter, so this check runs with the tests.  It
covers the package, the tests, the scripts and the benchmark.  The
package's ``__init__.py`` is skipped: its imports are the package's
public names.  A name imported only to register a pytest fixture would
need an exception here; no module does that.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "hullforge").glob("*.py") if p.name != "__init__.py"]
    + [p for d in ("tests", "scripts", "benchmark") for p in (ROOT / d).glob("*.py")])


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "HullParams"
    for node in ast.walk(tree):
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_check_finds_an_unused_import():
    assert unused_imports("import io\nfrom os import path, sep\nprint(sep)\n") \
        == ["io", "path"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text()) == []
