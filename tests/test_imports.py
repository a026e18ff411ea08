"""Every name a module of the package imports is used in that module.

There is no linter in the toolchain, so this reads the source with ``ast``.
``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast

import pytest

from helpers import REPO

MODULES = sorted(p for p in (REPO / "src" / "ribbonlab").glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_and_keeps_used():
    source = (
        "from __future__ import annotations\n"
        "import os, json as js\n"
        "from typing import Sequence\n"
        "from .core import A, B\n"
        "def f(x: Sequence[int]) -> None:\n"
        "    return os.path.join(A)\n"
    )
    assert unused_imports(source) == ["line 4: B", "line 2: js"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
