"""Every module-level function and class of the package is used somewhere.

A definition in ``src/qmetric`` counts as used when its name appears in
``src/`` outside its own definition and outside ``__init__.py`` (which only
re-exports), in ``demos/`` or in ``qbench/``: as a name, an attribute, an
imported name or a string (qbench names the functions it traces by string).
The tests do not count, so a helper that only its own tests call is flagged.
The same holds for every method and property of a class in ``src/qmetric``,
with the same users and the same matching by name: it counts as used when
its name appears outside its own body.  Dunder methods, which Python calls,
and bodies that only raise NotImplementedError, which declare an interface,
are not counted.

Likewise every defaulted parameter of a function in ``src/qmetric`` (a
method's too) is passed, by keyword or by position, by some call in
``src/``, ``demos/`` or ``qbench/``: an option that only the tests set
should be a constant.  Calls are matched by the function's name, and a
class's name calls its ``__init__``.

And every parameter of a function in ``src/qmetric`` (a method's too, other
than self and cls) is read in its body: a parameter that is accepted and then
ignored should not be there.  A body that only raises NotImplementedError
declares an interface and is not counted.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmetric"
USERS = sorted([p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]
               + list((ROOT / "demos").glob("*.py")) + list((ROOT / "qbench").glob("*.py")))
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# the one option that no program passes: acceptance 6 caps its ball with it,
# and the acceptance tests stay as they are
ALLOWED_OPTIONS = ["wordlength.enumerate_ball(max_elements)"]
# the one parameter that is not read: the default outside bound, 1, holds on
# every ball, and the states that keep it are called with the same arguments
# as those whose bound depends on the ball
ALLOWED_UNREAD = ["states.StateRep.outside_bound(ball)"]


def mentions(node: ast.AST) -> Counter:
    """How often a syntax tree mentions each name: as a name, attribute, import or string."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.split(".")[-1]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names[sub.value] += 1
    return names


def mentioned(node: ast.AST) -> set[str]:
    """The names a syntax tree mentions: names, attributes, imports and strings."""
    return set(mentions(node))


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


def unused_methods(defined: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """Qualified "module.Class.method" of each method that no user mentions outside its body.

    Properties are methods here; dunder methods and interface bodies (see
    _only_raises_not_implemented) are not counted.  defined and users are
    as in unused_definitions, so every method body is also counted among
    the users' mentions, once, and is taken out again for its own method.
    """
    total = Counter()
    for tree in users:
        total += mentions(tree)
    return sorted(
        f"{module}.{cls.name}.{fn.name}"
        for module, tree in defined.items() for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) for fn in cls.body
        if isinstance(fn, FUNCTIONS) and not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not _only_raises_not_implemented(fn)
        and total[fn.name] <= mentions(fn)[fn.name])


def defaulted_parameters(module: str, tree: ast.Module):
    """(call names, qualified name, positional index or None, name) of each defaulted parameter.

    The positional index counts from the first argument a call writes, so a
    method's self or cls is not counted; a keyword-only parameter has None.
    """
    for parent in ast.walk(tree):
        for fn in ast.iter_child_nodes(parent):
            if not isinstance(fn, FUNCTIONS):
                continue
            method = isinstance(parent, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            names = {fn.name, parent.name} if method and fn.name == "__init__" else {fn.name}
            qualified = f"{module}.{parent.name}.{fn.name}" if method else f"{module}.{fn.name}"
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield names, f"{qualified}({arg.arg})", i - method, arg.arg
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    yield names, f"{qualified}({arg.arg})", None, arg.arg


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether the call may pass the parameter: by keyword, by position or by unpacking."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_options(defined: dict[str, ast.Module], users: list[ast.Module]) -> list[str]:
    """Qualified "module.function(parameter)" of each defaulted parameter that no call passes."""
    callees: dict[str, list[ast.Call]] = {}
    for tree in users:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                func = call.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                callees.setdefault(name, []).append(call)
    return sorted(qualified for module, tree in defined.items()
                  for names, qualified, index, name in defaulted_parameters(module, tree)
                  if not any(_passes(call, index, name)
                             for callee in names for call in callees.get(callee, [])))


def _only_raises_not_implemented(fn: ast.AST) -> bool:
    """Whether a function's body, after its docstring, is one raise of NotImplementedError."""
    body = fn.body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def unread_parameters(module: str, tree: ast.Module) -> list[str]:
    """Qualified "module.function(parameter)" of each parameter that its function never reads.

    A parameter is read when its body loads the name, nested functions
    included; self, cls and interface bodies (see
    _only_raises_not_implemented) are not counted.
    """
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
                continue
            if not isinstance(child, FUNCTIONS):
                visit(child, prefix)
                continue
            qualified = f"{prefix}.{child.name}"
            visit(child, qualified)
            if _only_raises_not_implemented(child):
                continue
            args = child.args
            params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg) if a is not None]
            read = {sub.id for stmt in child.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            found.extend(f"{qualified}({name})" for name in params
                         if name not in read and name not in ("self", "cls"))

    visit(tree, module)
    return found


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _package() -> dict[str, ast.Module]:
    return {p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def test_every_definition_is_used():
    assert unused_definitions(_package(), [_parse(p) for p in USERS]) == []


def test_every_method_is_used():
    assert unused_methods(_package(), [_parse(p) for p in USERS]) == []


def test_every_option_is_passed():
    assert unpassed_options(_package(), [_parse(p) for p in USERS]) == ALLOWED_OPTIONS


def test_every_parameter_is_read():
    assert sorted(qualified for module, tree in _package().items()
                  for qualified in unread_parameters(module, tree)) == ALLOWED_UNREAD


def test_finds_an_unused_definition():
    module = ast.parse("def used():\n    return helper()\n\n"
                       "def helper():\n    return 1\n\n"
                       "def recursive(n):\n    return recursive(n - 1)\n\n"
                       "class Traced:\n    pass\n")
    user = ast.parse("import m\nm.used()\nTARGET = 'Traced'\n")
    assert unused_definitions({"m": module}, [module, user]) == ["m.recursive"]


def test_finds_an_unused_method():
    module = ast.parse("class Op:\n"
                       "    def __init__(self, m):\n        self.m = m\n\n"
                       "    def run(self):\n        return self._step() + self.size\n\n"
                       "    def _step(self):\n        return 1\n\n"
                       "    @property\n"
                       "    def size(self):\n        return self.m\n\n"
                       "    def helper(self):\n        return self.helper()\n\n"
                       "    @property\n"
                       "    def unread(self):\n        return 0\n\n"
                       "    def hook(self):\n        raise NotImplementedError\n\n"
                       "    def traced(self):\n        return 2\n\n"
                       "    def __repr__(self):\n        return 'Op'\n")
    user = ast.parse("import m\nm.Op(1).run()\nTARGET = 'traced'\n")
    # helper is named only inside its own body, unread nowhere
    assert unused_methods({"m": module}, [module, user]) == ["m.Op.helper", "m.Op.unread"]


def test_finds_an_option_that_no_call_passes():
    module = ast.parse("def solve(m, tol=1e-9, cap=10):\n    return m\n\n"
                       "def scale(x, *, by=2.0, dry=False):\n    return x\n\n"
                       "def spread(a, b=1, c=2):\n    return a\n\n"
                       "class Op:\n"
                       "    def __init__(self, m, kind='op'):\n        self.m = m\n\n"
                       "    def norm(self, tol=1e-9):\n        return tol\n\n"
                       "    @classmethod\n"
                       "    def of(cls, g, coeff=1.0):\n        return cls(g)\n")
    user = ast.parse("import m\nm.solve(1, 1e-6)\nm.scale(2, by=3.0)\n"
                     "m.spread(*[1, 2, 3])\nop = m.Op(1, 'x')\nop.norm(1e-3)\n"
                     "m.Op.of(4)\n")
    assert unpassed_options({"m": module}, [module, user]) == [
        "m.Op.of(coeff)", "m.scale(dry)", "m.solve(cap)"]


def test_finds_a_parameter_that_is_not_read():
    module = ast.parse("def used(a, *rest, key=None, **extra):\n    return a, rest, key, extra\n\n"
                       "def ignores(a, b):\n    return a\n\n"
                       "def closure(x):\n    def inner(y):\n        return x\n    return inner\n\n"
                       "class Base:\n"
                       "    def hook(self, state):\n        \"\"\"An interface.\"\"\"\n"
                       "        raise NotImplementedError\n\n"
                       "    def default(self, ball):\n        return 1.0\n\n"
                       "    @classmethod\n"
                       "    def make(cls, n):\n        return cls()\n")
    assert sorted(unread_parameters("m", module)) == [
        "m.Base.default(ball)", "m.Base.make(n)", "m.closure.inner(y)", "m.ignores(b)"]
