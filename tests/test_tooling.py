"""Checks on the package's source text."""

from __future__ import annotations

import ast
from pathlib import Path

import casedraft

SOURCES = sorted(Path(casedraft.__file__).parent.glob("*.py"))


def test_no_imports_inside_functions():
    assert SOURCES
    found = sorted({
        f"{path.name}:{inner.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    })
    assert found == []
