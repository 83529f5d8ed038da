"""Every name a module imports is used in that module.

The repository has no linter, so this check runs with the tests.  It
covers the package, the tests, the scripts and the benchmark.  The
package's ``__init__.py`` is skipped: its imports are the package's
public names.  A name imported only to register a pytest fixture would
need an exception here; no module does that.

Every name ``hullforge/__init__.py`` exports also has a caller outside
the tests: the name appears in another package module (not on its own
``def``/``class`` line), in ``scripts/`` or in ``benchmark/``.  A public
function that only tests call is a second implementation to keep in step.

Every module-level ``def``, ``class`` or assignment in the package is
read somewhere outside the tests: the name appears on another line of its
module, in another package module, in ``scripts/`` or in ``benchmark/``.

Every ``PipelineConfig`` knob has a second value in use: it differs
between ``smoke_config()`` and ``PipelineConfig()``, or ``scripts/`` or
``benchmark/`` pass it as a keyword.  A knob with one value is an option
no run exercises; it belongs in ``config.py`` as a constant.
"""

import ast
import re
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from hullforge.config import PipelineConfig, smoke_config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hullforge"
MODULES = sorted(
    [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    + [p for d in ("tests", "scripts", "benchmark") for p in (ROOT / d).glob("*.py")])
EXPORTS = sorted(alias.asname or alias.name
                 for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
CALLER_SOURCES = [p.read_text() for p in MODULES if p.parent.name != "tests"]
PACKAGE_MODULES = sorted(PACKAGE.glob("*.py"))
WORD = re.compile(r"\w+")


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


def mentions(name: str, source: str) -> bool:
    """``name`` appears in ``source`` on a line other than its own def/class line."""
    own = re.compile(rf"^\s*(?:def|class)\s+{name}\b")
    word = re.compile(rf"\b{name}\b")
    return any(word.search(line) and not own.match(line)
               for line in source.splitlines())


def test_check_finds_an_uncalled_definition():
    assert not mentions("f", "def f(x):\n    return x\n")
    assert mentions("f", "def f(x):\n    return x\n\ny = f(1)\n")
    assert not mentions("f", "def fg():\n    pass\n")


@pytest.mark.parametrize("name", EXPORTS)
def test_export_has_a_caller_outside_the_tests(name):
    assert any(mentions(name, source) for source in CALLER_SOURCES)


def module_names(source: str) -> dict:
    """name -> line of each module-level def, class or assignment target."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update((n.id, n.lineno) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return {k: v for k, v in names.items() if not k.startswith("__")}


def unread_names(source: str, others=()) -> list:
    """Module-level names of ``source`` that neither another of its lines
    nor any text in ``others`` mentions."""
    lines = source.splitlines()
    counts = Counter(WORD.findall(source))
    elsewhere = {w for text in others for w in WORD.findall(text)}
    return sorted(name for name, line in module_names(source).items()
                  if name not in elsewhere
                  and counts[name] == WORD.findall(lines[line - 1]).count(name))


def test_check_finds_an_unread_name():
    source = ("A = 1\nB, C = 2, 3\nD: int = 4\n\n"
              "def f():\n    return B\n\nclass K:\n    pass\n")
    assert unread_names(source) == ["A", "C", "D", "K", "f"]
    assert unread_names(source, ["f(A, K)", "D_2 = C"]) == ["D"]


@pytest.mark.parametrize("module", PACKAGE_MODULES, ids=lambda p: p.name)
def test_module_level_names_are_read(module):
    source = module.read_text()
    others = [p.read_text() for p in PACKAGE_MODULES if p != module]
    others += [p.read_text() for d in ("scripts", "benchmark")
               for p in (ROOT / d).glob("*.py")]
    assert unread_names(source, others) == []


# The paper's guidance weights stay knobs with one value in use: they are
# what a sampling study varies.
GUIDANCE_WEIGHTS = {"gamma", "lambda0", "lambda1"}


def one_value_knobs(configs, sources) -> list:
    """Knobs (fields with a config section) equal in every config of
    ``configs`` that no text in ``sources`` passes as ``name=``."""
    return sorted(f.name for f in fields(PipelineConfig) if "section" in f.metadata
                  and len({getattr(c, f.name) for c in configs}) == 1
                  and not any(re.search(rf"\b{f.name}=", text) for text in sources))


def test_check_finds_a_one_value_knob():
    found = one_value_knobs([PipelineConfig(), PipelineConfig(seed=1)],
                            ["run(workers=2)", "n_hulls = 3"])
    assert "n_hulls" in found
    assert "seed" not in found and "workers" not in found


def test_every_knob_has_a_second_value_in_use():
    sources = [p.read_text() for d in ("scripts", "benchmark")
               for p in (ROOT / d).glob("*.py")]
    found = one_value_knobs([PipelineConfig(), smoke_config()], sources)
    assert sorted(set(found) - GUIDANCE_WEIGHTS) == []
