"""Every module-level function and class of the package is used somewhere.

A definition in ``src/qmetric`` counts as used when its name appears in
``src/`` outside its own definition and outside ``__init__.py`` (which only
re-exports), in ``demos/`` or in ``qbench/``: as a name, an attribute, an
imported name or a string (qbench names the functions it traces by string).
The tests do not count, so a helper that only its own tests call is flagged.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmetric"
USERS = sorted([p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
               + list((ROOT / "demos").glob("*.py")) + list((ROOT / "qbench").glob("*.py")))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def mentioned(node: ast.AST) -> set[str]:
    """The names a syntax tree mentions: names, attributes, imports and strings."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def unused_definitions(defined: dict[str, ast.Module],
                       users: list[ast.Module]) -> list[str]:
    """Names of module-level definitions that no user mentions outside their own body.

    defined maps each definition module's name to its tree; users lists the
    trees that may use them (the definition modules among them).
    """
    definitions = {stmt.name: f"{module}.{stmt.name}"
                   for module, tree in defined.items() for stmt in tree.body
                   if isinstance(stmt, DEFINITIONS)}
    used = set()
    for tree in users:
        for stmt in tree.body:
            names = mentioned(stmt)
            if isinstance(stmt, DEFINITIONS):
                names.discard(stmt.name)
            used |= names
    return sorted(qualified for name, qualified in definitions.items() if name not in used)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_used():
    defined = {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"}
    assert unused_definitions(defined, [_parse(p) for p in USERS]) == []


def test_finds_an_unused_definition():
    module = ast.parse("def used():\n    return helper()\n\n"
                       "def helper():\n    return 1\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "class Traced:\n    pass\n")
    user = ast.parse("import m\nm.used()\nTARGET = 'Traced'\n")
    assert unused_definitions({"m": module}, [module, user]) == ["m.recursive"]
