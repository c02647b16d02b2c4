"""Every imported name is used by the module that imports it.

The package's ``__init__.py`` is exempt (it re-exports), and so are
``from __future__`` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [p for p in (ROOT / "src" / "qmetric").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "demos").glob("*.py")))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    assert unused_imports("import os\nimport numpy as np\nfrom x import y\nnp.ones(y)\n") \
        == ["os (line 1)"]
    # a dotted import binds its first name; a function-level import counts too
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "from typing import Iterable, Optional\n\n"
                          "def f(x: Optional[int]):\n"
                          "    import scipy.sparse as sp\n"
                          "    return os.path.sep\n") \
        == ["Iterable (line 3)", "sp (line 6)"]
