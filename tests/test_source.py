"""Static checks on the library source."""

import ast
from pathlib import Path

import enhq

SOURCE = Path(enhq.__file__).parent

# (module, qualified function name, parameter) left unread on purpose; a
# method's receiver (self, cls) is not counted, since an override may not
# need it
ALLOWED_UNREAD = {
    # solve_ivp calls its events as event(t, y); the label functions are
    # autonomous
    ("dynamics.py", "_dop853.as_event.event", "t"),
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


def test_every_parameter_is_read():
    unread = []
    for path in sorted(SOURCE.glob("*.py")):
        unread += _unread_parameters(ast.parse(path.read_text()), path.name)
    assert [u for u in unread if u not in ALLOWED_UNREAD] == []


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("class A:\n    def f(self, x, y=1):\n        return x\n")
    assert _unread_parameters(tree, "m.py") == [("m.py", "A.f", "y")]
