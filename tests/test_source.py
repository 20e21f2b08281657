"""Static checks on the library source."""

import ast
from pathlib import Path

import enhq

SOURCE = Path(enhq.__file__).parent

# (module, qualified function name, parameter) left unread on purpose; a
# method's receiver (self, cls) is not counted, since an override may not
# need it
ALLOWED_UNREAD = set()

# (module, name) imported but not used there, on purpose
ALLOWED_UNUSED_IMPORTS = {
    # perfbench/tracer.py wraps enhq.dynamics.solve_ivp, looked up by name
    ("dynamics.py", "solve_ivp"),
}


def _unread_parameters(tree, module):
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                read = {
                    n.id for stmt in child.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                }
                found.extend((module, name, p) for p in params
                             if p not in read and p not in ("self", "cls"))
                visit(child, f"{name}.")
            else:
                visit(child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    visit(tree, "")
    return found


def _unused_imports(tree, module):
    if module == "__init__.py":
        return []  # its imports are the package's exports
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(module, name) for name in imported if name not in used]


def _findings(check):
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        found += check(ast.parse(path.read_text()), path.name)
    return found


# each allowlist must match its findings exactly, so a stale entry fails too

def test_every_parameter_is_read():
    assert set(_findings(_unread_parameters)) == ALLOWED_UNREAD


def test_every_import_is_used():
    assert set(_findings(_unused_imports)) == ALLOWED_UNUSED_IMPORTS


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("class A:\n    def f(self, x, y=1):\n        return x\n")
    assert _unread_parameters(tree, "m.py") == [("m.py", "A.f", "y")]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from math import pi as PI, tau\n\nprint(os.sep, tau)\n")
    assert _unused_imports(tree, "m.py") == [("m.py", "PI")]
