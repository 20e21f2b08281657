"""Static checks on the library source."""

import argparse
import ast
import importlib
import importlib.util
import inspect
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import enhq

SOURCE = Path(enhq.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"

# (module, qualified function name, parameter) left unread on purpose; a
# method's receiver (self, cls) is not counted, since an override may not
# need it
ALLOWED_UNREAD = set()

# (module, name) imported but not used there, on purpose
ALLOWED_UNUSED_IMPORTS = set()

# (module, function, imported module) from outside the standard library,
# loaded only when the function runs and never at import time
ALLOWED_DEFERRED_IMPORTS = {
    # perfbench/tracer.py wraps enhq.dynamics.solve_ivp, looked up by name
    # (test_every_name_the_tracer_wraps_resolves)
    ("dynamics.py", "__getattr__", "scipy.integrate"),
}

# the matrix exponential, and the eigendecomposition it runs on, are the
# tests' reference for the closed-form states: defined or bound in hilbert.py,
# exported by the package, and referenced by no other module
EXPONENTIAL_NAMES = {"apply_unitary", "eigh", "expm"}
ALLOWED_EXPONENTIAL_REFERENCES = {("__init__.py", "apply_unitary")}

# the per-word expectation and the differenced metric are the tests'
# references for enhance and the declared metrics: defined in their modules,
# exported by the package, and called by no library code
ORACLE_NAMES = {"poly_expectation", "fs_metric_numeric"}
ALLOWED_ORACLE_REFERENCES = {("__init__.py", "poly_expectation"),
                             ("__init__.py", "fs_metric_numeric")}

# top-level functions and classes of the package that nothing in it, other than their own
# definitions and the exports of __init__.py, and nothing in perfbench/ reads: each an entry
# point kept for its reason
ALLOWED_UNREAD_NAMES = {
    # Python calls a module's __getattr__ for a missing attribute: the tracer's
    # enhq.dynamics.solve_ivp
    ("dynamics.py", "__getattr__"),
    # the enhanced orbit's inner turning radius from its parameters, the README's
    # quick start; eq reads the same root off its core through _turning_radius
    ("models.py", "min_radius"),
}

# what builds a state or measures one: eq restricts label functions and reads declared
# geometry, so cli.py references none of them
STATE_NAMES = {"fs_metric", "fs_metric_numeric", "tangent", "state", "CapacityError"}

# what a family is, not what it declares: geometry, restriction and the CLI choose by
# neither (an error message may still name the kind)
FAMILY_IDENTITY = {"family.kind", "family.beta", "family.rep.s", "family.rep.kind"}
RESTRICTING_MODULES = ("coherent.py", "correspondence.py", "cli.py")


def _referenced_names(tree):
    # a definition is not a reference: a def's name is no Name node
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update((node.name.split(".")[-1], node.asname))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # getattr(module, "eigh")
    return names


def _unread_top_level_names(trees, readers=frozenset()):
    # (module, name) of each top-level function and class in trees ({module: tree}) that no
    # other top-level statement of trees reads and that is not in readers; the imports of
    # __init__.py are the package's exports, not readers
    statements = [(stmt, _referenced_names(stmt)) for module, tree in trees.items()
                  if module != "__init__.py" for stmt in tree.body]
    return [(module, stmt.name) for module, tree in trees.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt.name not in readers
            and not any(stmt.name in names for other, names in statements if other is not stmt)]


def _exponential_references(tree, module):
    if module == "hilbert.py":
        return []
    return [(module, name) for name in sorted(_referenced_names(tree) & EXPONENTIAL_NAMES)]


def _oracle_references(tree, module):
    return [(module, name) for name in sorted(_referenced_names(tree) & ORACLE_NAMES)]


def _state_references(tree, module):
    return [(module, name) for name in sorted(_referenced_names(tree) & STATE_NAMES)]


def _third_party_imports(tree, module):
    # (module, enclosing function, imported module) for each module imported
    # from outside the standard library, with function "" for an import that
    # runs at import time (a class body runs then too); a relative import
    # (level > 0) is the package's own
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                names = [child.module]
            else:
                names = []
            found.update((module, function, name) for name in names
                         if name.split(".")[0] not in sys.stdlib_module_names)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else function)

    visit(tree, "")
    return sorted(found)


def _imports_of(package):
    # the check for imports from package: every imported dotted name, where
    # import a.b gives a.b and from a import b gives a.b, so each form that
    # reaches the package names it
    def check(tree, module):
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names += [f"{node.module}.{alias.name}" for alias in node.names]
        return [(module, name) for name in names
                if name == package or name.startswith(f"{package}.")]

    return check


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


def _choices_by_family_identity(tree, module):
    # an identity attribute inside a comparison or a subscript chooses by it
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Compare, ast.Subscript)):
            found.update((module, ast.unparse(n)) for n in ast.walk(node)
                         if isinstance(n, ast.Attribute) and ast.unparse(n) in FAMILY_IDENTITY)
    return sorted(found)


def _config_key_rows(readme):
    # the first column of the README's config key table, the one headed "| key | meaning |"
    table = re.search(r"^\| key \| meaning \|\n\|[- |]+\n((?:\|.*\n)*)", readme, re.M).group(1)
    return re.findall(r"^\| `([^`]+)` \|", table, re.M)


def _synopsis_options(readme):
    # each subcommand's options on the README's synopsis lines, each mapped to
    # whether it is bracketed as optional
    lines = re.search(r"^```sh\n((?:eq .*\n)+)```", readme, re.M).group(1).splitlines()
    return {line.split()[1]: {option: bool(bracket)
                              for bracket, option in re.findall(r"(\[?)(--[a-z-]+)", line)}
            for line in lines}


def _parser_options(parser):
    # each subcommand's long options, each mapped to whether it is optional
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {option: not action.required for action in command._actions
                   for option in action.option_strings if option.startswith("--") and option != "--help"}
            for name, command in sub.choices.items()}


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


def test_no_exponential_outside_hilbert():
    # the dynamic counts (test_coherent.py) see only the paths they run
    assert set(_findings(_exponential_references)) == ALLOWED_EXPONENTIAL_REFERENCES


def test_the_check_sees_an_exponential():
    tree = ast.parse("import scipy.linalg as sl\nfrom .hilbert import apply_unitary as au\n"
                     "def f(a):\n    return sl.expm(a), getattr(np.linalg, 'eigh')\n")
    assert _exponential_references(tree, "m.py") == [
        ("m.py", "apply_unitary"), ("m.py", "eigh"), ("m.py", "expm")]
    assert _exponential_references(tree, "hilbert.py") == []


def test_no_library_code_calls_an_oracle():
    assert set(_findings(_oracle_references)) == ALLOWED_ORACLE_REFERENCES


def test_the_check_sees_an_oracle_reference():
    tree = ast.parse("def poly_expectation(poly):\n    return 0\n\n"
                     "def enhance(poly):\n    return poly_expectation(poly)\n\n"
                     "def metric(family):\n    return coherent.fs_metric_numeric(family)\n")
    assert _oracle_references(tree, "m.py") == [
        ("m.py", "fs_metric_numeric"), ("m.py", "poly_expectation")]
    assert _oracle_references(ast.parse("def poly_expectation(poly):\n    return 0\n"),
                              "m.py") == []


def test_every_top_level_name_has_a_reader():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}
    # what perfbench/ reads, the tracer's strings among it
    readers = set().union(*(_referenced_names(ast.parse(path.read_text()))
                            for path in sorted(PERFBENCH.glob("*.py"))))
    assert set(_unread_top_level_names(trees, readers)) == ALLOWED_UNREAD_NAMES


def test_the_check_sees_an_unread_name():
    trees = {"__init__.py": ast.parse("from .m import f, g, H, run\n"),
             "m.py": ast.parse("def f(n):\n    return f(n - 1) if n else 0\n\n"
                               "def g():\n    return 0\n\nclass H:\n    pass\n\n"
                               "def run():\n    return 0\n\nTABLE = {'g': g}\n")}
    # f reads only itself, H and run nothing: a name the readers hold is read
    assert _unread_top_level_names(trees) == [("m.py", "f"), ("m.py", "H"), ("m.py", "run")]
    assert _unread_top_level_names(trees, {"H", "run"}) == [("m.py", "f")]


def test_the_cli_builds_no_state():
    assert _state_references(ast.parse((SOURCE / "cli.py").read_text()), "cli.py") == []


def test_the_check_sees_a_state_reference():
    tree = ast.parse("from .coherent import fs_metric\nfrom .errors import CapacityError as Full\n"
                     "def f(family):\n    return family.state(0, 0), family.tangent(0, 0), "
                     "getattr(coherent, 'fs_metric_numeric')\n")
    assert _state_references(tree, "cli.py") == [
        ("cli.py", "CapacityError"), ("cli.py", "fs_metric"), ("cli.py", "fs_metric_numeric"),
        ("cli.py", "state"), ("cli.py", "tangent")]


def test_restriction_chooses_by_what_families_declare():
    found = [f for module in RESTRICTING_MODULES
             for f in _choices_by_family_identity(ast.parse((SOURCE / module).read_text()), module)]
    assert found == []


def test_the_check_sees_a_choice_by_family_identity():
    tree = ast.parse("def f(family, table):\n"
                     "    if family.kind != 'canonical' or family.beta is not None:\n"
                     "        return table[family.rep.kind]\n"
                     "    raise ValueError(f'not a {family.kind} family, s = {family.rep.s}')\n")
    assert _choices_by_family_identity(tree, "m.py") == [
        ("m.py", "family.beta"), ("m.py", "family.kind"), ("m.py", "family.rep.kind")]


def test_each_family_with_a_shifted_table_declares_the_span_walk():
    # the walk of CoherentFamily.exact_terms reads a term for every letter of the
    # family's alphabet and the family's span, phase letters and pairing; the one
    # family without a table, spin, restricts through its matrices
    fock = enhq.build_fock_rep(4)
    families = [enhq.canonical_family(fock), enhq.extended_family(fock, 0.3, 0.2),
                enhq.affine_family(enhq.build_halfline_rep(0.1, 10.0, 16, 1.0), 2.0),
                enhq.spin_family(enhq.build_spin_rep(0.5))]
    classes, found = [enhq.coherent.CoherentFamily], set()
    while classes:
        subclasses = classes.pop().__subclasses__()
        found.update(subclasses)
        classes += subclasses
    assert {type(family) for family in families} == found
    assert [family.kind for family in families if family.shifted is None] == ["spin"]
    for family in families:
        if family.shifted is not None:
            assert set(family.shifted) == set(enhq.correspondence._ALPHABETS[family.variables]), family.kind
            assert set(family._phase_letters) <= set(family.shifted), family.kind
            assert callable(family._span_action) and callable(family._pairing), family.kind


def test_the_library_imports_exactly_its_declared_dependencies():
    found = _findings(_third_party_imports)
    at_import = {name.split(".")[0] for _, function, name in found if not function}
    # the names of the requirements in pyproject.toml's dependencies list
    # (tomllib is not in Python 3.10, which the package supports)
    listed = re.search(r"^dependencies = \[(.*?)\]", PYPROJECT.read_text(), re.M | re.S).group(1)
    declared = set(re.findall(r'"([A-Za-z0-9_.-]+)', listed))
    assert at_import == declared == {"numpy"}
    assert {f for f in found if f[1]} == ALLOWED_DEFERRED_IMPORTS


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path, numpy as np\n"
                     "from scipy.linalg import eigh\nfrom . import errors\nfrom .errors import DomainError\n"
                     "class A:\n    import yaml\n"
                     "def f():\n    import jsonschema\n")
    assert _third_party_imports(tree, "m.py") == [
        ("m.py", "", "numpy"), ("m.py", "", "scipy.linalg"), ("m.py", "", "yaml"),
        ("m.py", "f", "jsonschema")]


def test_the_library_imports_no_sparse_matrices():
    # the half line is a grid and its weights: no operator is stored on it,
    # and its finite-difference letters live in the tests' oracles
    assert _findings(_imports_of("scipy.sparse")) == []


def test_the_library_imports_no_root_finder():
    # event roots are found by the library's own Brent's method, which the
    # tests check against scipy.optimize.brentq
    assert _findings(_imports_of("scipy.optimize")) == []


def test_the_check_sees_a_sparse_import():
    tree = ast.parse("import scipy.sparse as sp\nfrom scipy import sparse, special\n"
                     "from scipy.sparse.linalg import expm\nimport scipy.special\n"
                     "def f():\n    from scipy.sparse import diags\n")
    assert sorted(_imports_of("scipy.sparse")(tree, "m.py")) == [
        ("m.py", "scipy.sparse"), ("m.py", "scipy.sparse"), ("m.py", "scipy.sparse.diags"),
        ("m.py", "scipy.sparse.linalg.expm")]
    assert _imports_of("scipy.sparse")(ast.parse("from scipy.special import gammaln\n"), "m.py") == []
    assert _imports_of("scipy.optimize")(ast.parse("from scipy.optimize import brentq\n"), "m.py") == [
        ("m.py", "scipy.optimize.brentq")]


def test_the_check_sees_an_unread_parameter():
    tree = ast.parse("class A:\n    def f(self, x, y=1):\n        return x\n")
    assert _unread_parameters(tree, "m.py") == [("m.py", "A.f", "y")]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from math import pi as PI, tau\n\nprint(os.sep, tau)\n")
    assert _unused_imports(tree, "m.py") == [("m.py", "PI")]


def test_every_name_the_tracer_wraps_resolves():
    # perfbench/tracer.py replaces these by name when it installs; a name
    # that a refactor moved or removed breaks every traced benchmark run.
    # The tracer module is loaded, not installed.
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for _, module, attr in tracer._MODULE_FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)
    for _, module, cls_name, attr in tracer._METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        # on the class itself: a subclass's copy would escape the wrapper
        assert callable(vars(cls).get(attr)), (module, cls_name, attr)


def test_every_flow_option_is_an_integrator_key():
    # the integrator block reads t_final itself and passes the rest of
    # hamiltonian_flow's options through _FLOW_KEYS, cast to the type of
    # their defaults: an option with no key could not be set from a config,
    # and a key with no option would fail every flow that names it
    from enhq import cli
    from enhq.dynamics import hamiltonian_flow

    params = inspect.signature(hamiltonian_flow).parameters
    options = {name: type(p.default) for name, p in params.items()
               if p.default is not inspect.Parameter.empty}
    assert options == cli._FLOW_KEYS
    assert list(params)[:3] == ["H", "x0", "t_final"]
    assert {key for key in cli._KEYS if key.startswith("integrator.")} == {
        f"integrator.{name}" for name in ["t_final", *options]}


def test_the_readme_lists_every_config_key_and_no_other():
    from enhq import cli

    rows = _config_key_rows(README.read_text())
    assert len(rows) == len(set(rows))
    assert set(rows) == {path.split(".")[0] for path in cli._KEYS}


def test_the_readme_synopsis_is_the_parser():
    from enhq import cli

    assert _synopsis_options(README.read_text()) == _parser_options(cli._parser())


def test_the_readme_checks_see_a_missing_row_and_option():
    readme = ("| key | meaning |\n| --- | --- |\n| `hbar` | action |\n| `seed` | RNG seed |\n\n"
              "| experiment | keys read |\n| --- | --- |\n| `metric` | `hbar` |\n\n"
              "```sh\neq run    --config <path> [--out <dir>]\neq verify --config <path>\n```\n")
    assert _config_key_rows(readme) == ["hbar", "seed"]
    assert _config_key_rows(readme.replace("| `seed` | RNG seed |\n", "")) == ["hbar"]
    assert _synopsis_options(readme) == {"run": {"--config": False, "--out": True},
                                         "verify": {"--config": False}}
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers()
    run, verify = sub.add_parser("run"), sub.add_parser("verify")
    for command in (run, verify):
        command.add_argument("--config", required=True)
    run.add_argument("--out")
    assert _parser_options(parser) == _synopsis_options(readme)
    verify.add_argument("--stamp", action="store_true")
    assert _parser_options(parser) != _synopsis_options(readme)


def test_the_kernel_source_ships_as_package_data():
    package_data = re.search(r"^\[tool\.setuptools\.package-data\]\n(.*?)(?:^\[|\Z)",
                             PYPROJECT.read_text(), re.M | re.S).group(1)
    assert re.search(r'^enhq = \[.*"_rk45\.c".*\]$', package_data, re.M)
    assert (SOURCE / "_rk45.c").is_file()


def test_the_kernel_source_compiles_without_warnings(tmp_path):
    from enhq.dynamics import _CFLAGS

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("Python's C compiler is not installed")
    subprocess.run([*cc, *_CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "rk45.so"),
                    str(SOURCE / "_rk45.c"), "-lm"], check=True)


def test_importing_the_cli_loads_no_scipy():
    # numpy is the library's one dependency; the names the tracer wraps still
    # resolve, and only looking up dynamics.solve_ivp loads scipy
    code = ("import sys, numpy.linalg, enhq.cli, enhq.dynamics, enhq.hilbert\n"
            "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
            "assert enhq.hilbert.eigh is numpy.linalg.eigh\n"
            "import scipy.integrate\n"
            "assert enhq.dynamics.solve_ivp is scipy.integrate.solve_ivp\n")
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": str(SOURCE.parent)})


def test_importing_the_cli_loads_and_builds_no_kernel(tmp_path):
    # numpy imports ctypes itself: no module of the package may hold it
    # before a flow asks for the kernel, and the cache stays untouched
    code = ("import sys, enhq.cli, enhq.dynamics\n"
            "assert enhq.dynamics._kernel.cache_info().currsize == 0\n"
            "assert not [m for m in sys.modules if m.startswith('enhq') and "
            "'ctypes' in vars(sys.modules[m])]\n")
    env = {"XDG_CACHE_HOME": str(tmp_path), "PYTHONPATH": str(SOURCE.parent)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
    assert list(tmp_path.iterdir()) == []
