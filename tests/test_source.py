"""The library is pure Python with exact integer arithmetic: no float or
complex literal, no true division, no use of `float`, and no import from
outside the standard library anywhere under src/sumsetlab.  Every name the
package exports has a caller outside its own definition.  Every raise names
one of the four error causes that errors.py defines."""

import ast
import re
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "sumsetlab").glob("*.py"))


def _stdlib(module: str) -> bool:
    return module.split(".")[0] in sys.stdlib_module_names


def impurities(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", "?")
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {line}: literal {node.value!r}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append(f"line {line}: true division")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {line}: use of float")
        elif isinstance(node, ast.Import):
            found += [f"line {line}: import {a.name}" for a in node.names if not _stdlib(a.name)]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and not _stdlib(node.module):
            found.append(f"line {line}: import from {node.module}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_is_pure(path):
    assert impurities(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    ["x = 0.5", "x = 2j", "x = a / b", "x /= 2", "x = float(1)", "import numpy",
     "import numpy.linalg", "from numpy import array"],
)
def test_checker_flags(snippet):
    assert impurities(ast.parse(snippet))


def test_checker_allows_integer_code():
    code = "from __future__ import annotations\nimport math\nfrom .engine import x\ny = a // b"
    assert impurities(ast.parse(code)) == []


ROOT = SOURCES[0].parent.parent.parent


def loaded_names(path: Path) -> set[str]:
    """Every name a module reads, as a bare name or an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    """Each name in __all__ is read in src/ (not counting __init__, and a
    definition is no read), in demos/, or named in the README."""
    import sumsetlab

    used = set()
    for path in [p for p in SOURCES if p.name != "__init__.py"] + sorted(ROOT.glob("demos/*.py")):
        used |= loaded_names(path)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    used |= set(re.findall(r"\w+", readme))
    assert sorted(set(sumsetlab.__all__) - used) == []


# One error type per cause (errors.py states the rule).
CAUSES = {"BadParams", "CostCapExceeded", "RegimeUnsupported", "PoolFailed"}


def stray_raises(tree: ast.AST) -> list[str]:
    """Each raise that names no cause in CAUSES.  A module's __getattr__
    may raise AttributeError, as PEP 562 asks of it."""
    getattr_lines = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
            getattr_lines.update(range(node.lineno, node.end_lineno + 1))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else None
        if name in CAUSES or (name == "AttributeError" and node.lineno in getattr_lines):
            continue
        found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_raise_names_a_cause(path):
    assert stray_raises(ast.parse(path.read_text(encoding="utf-8"))) == []


@pytest.mark.parametrize(
    "snippet",
    ["raise ValueError('x')", "raise", "raise errors.BadParams('x')",
     "def f():\n    raise AttributeError('x')"],
)
def test_raise_checker_flags(snippet):
    assert stray_raises(ast.parse(snippet))


def test_raise_checker_allows_causes():
    code = ("try:\n    x()\nexcept KeyError as ex:\n    raise PoolFailed('x') from ex\n"
            "raise BadParams\n"
            "def __getattr__(name):\n    raise AttributeError(name)")
    assert stray_raises(ast.parse(code)) == []


def test_errors_define_one_type_per_cause():
    tree = ast.parse((SOURCES[0].parent / "errors.py").read_text(encoding="utf-8"))
    classes = {
        node.name: [base.id for base in node.bases]
        for node in tree.body if isinstance(node, ast.ClassDef)
    }
    assert classes == {"SumsetLabError": ["Exception"],
                       **{name: ["SumsetLabError"] for name in CAUSES}}
