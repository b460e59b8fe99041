"""The library is pure Python with exact integer arithmetic: no float or
complex literal, no true division, no use of `float`, and no import from
outside the standard library anywhere under src/sumsetlab."""

import ast
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
