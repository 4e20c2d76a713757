"""Source rules for every module of the package, checked on its syntax tree."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parent.parent / "src" / "berkvol").rglob("*.py"))


def parse(path):
    return ast.walk(ast.parse(path.read_text(), filename=str(path)))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips asserts; invariant checks must raise explicitly
    lines = [node.lineno for node in parse(path) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def imported_modules(path):
    imported = []
    for node in parse(path):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""  # "" for "from . import x"
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return imported


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_concurrent_futures(path):
    assert "concurrent.futures" not in imported_modules(path), f"{path.name} imports concurrent.futures"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    # importing dataclasses loads inspect, ast, dis and tokenize, about half
    # of the package's start-up; its values are plain classes and NamedTuples
    assert "dataclasses" not in imported_modules(path), f"{path.name} imports dataclasses"


def modules_loaded(code):
    """Names in sys.modules after running code in a fresh isolated interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    script = f"import sys; sys.path.insert(0, {str(src)!r}); {code}; print(*sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_cli_import_loads_no_introspection_modules():
    added = modules_loaded("import berkvol.cli") - modules_loaded("pass")
    assert "berkvol.cli" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_random(path):
    # reports are deterministic by construction: no search draws random choices
    imported = imported_modules(path)
    assert not any(name.split(".")[0] == "random" for name in imported), f"{path.name} imports random"


def test_lp_is_oracle_only():
    # the dense simplex is the tests' envelope oracle and a benchmark target.
    # The package's __init__ loads it for the benchmark's tracer; no other
    # module imports it, and no module but simplex.py names its solver.
    importers = [
        path.name
        for path in MODULES
        if path.name not in ("simplex.py", "__init__.py")
        and any("simplex" in name.split(".") for name in imported_modules(path))
    ]
    assert importers == []
    callers = [
        path.name
        for path in MODULES
        if path.name != "simplex.py"
        and any(
            isinstance(node, ast.Attribute) and node.attr == "maximize"
            or isinstance(node, ast.alias) and node.name == "maximize"
            for node in parse(path)
        )
    ]
    assert callers == []


KM_NAMES = {"FieldContext", "FieldElement", "Lattice"}


def test_km_oracle_is_test_only():
    # lattices over K_M are the tests' oracle for unit_ball_valuations;
    # sections.sup_norm_lattice builds them.  No other module names the
    # field, its elements or lattices, or imports linalg.
    users = [
        path.name
        for path in MODULES
        if path.name not in ("field.py", "linalg.py", "lattices.py", "sections.py")
        and (
            any("linalg" in name.split(".") for name in imported_modules(path))
            or any(
                isinstance(node, ast.Name) and node.id in KM_NAMES
                or isinstance(node, ast.Attribute) and node.attr in KM_NAMES
                or isinstance(node, ast.alias) and node.name in KM_NAMES
                for node in parse(path)
            )
        )
    ]
    assert users == []


def callers_of(name):
    """(module, top-level function or None) of every call to name, by a
    bare name or as an attribute."""
    found = []
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            scope = stmt.name if isinstance(stmt, ast.FunctionDef) else None
            found += [
                (path.name, scope)
                for node in ast.walk(stmt)
                if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
    return found


def test_one_fit_routine():
    # no verdict rests on a fit: limits and derivatives are exact, and
    # volumes.affine_fit stays only as a name the benchmark's tracer patches
    assert callers_of("affine_fit") == []


def display_only_nodes(path, tree):
    """Nodes where a float may appear: the value of field.INF, and in cli.py
    the display columns (fmt_rational and the "normalized" series field)."""
    allowed = set()
    for node in ast.walk(tree):
        if path.name == "field.py" and isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id == "INF" for t in node.targets):
                allowed |= {id(n) for n in ast.walk(node.value)}
        if path.name == "cli.py" and isinstance(node, ast.FunctionDef):
            if node.name == "fmt_rational":
                allowed |= {id(n) for n in ast.walk(node)}
        if path.name == "cli.py" and isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Constant) and key.value == "normalized":
                    allowed |= {id(n) for n in ast.walk(value)}
    return allowed


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats(path):
    # every computed quantity is an exact rational; floats only for display
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = display_only_nodes(path, tree)
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            lines.append(node.lineno)
    assert lines == [], f"{path.name}: float at lines {lines}"


def tracer_targets():
    """(module, attribute) of each entry of TARGETS in bench/tracer.py, read
    from its syntax tree: the benchmark's file is neither imported nor run."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [tuple(elt.elts[i].value for i in (0, 1)) for elt in node.value.elts]
    raise AssertionError("bench/tracer.py defines no TARGETS list")


@pytest.mark.parametrize("module, attr", tracer_targets(), ids=lambda t: t)
def test_tracer_target_resolves(module, attr):
    # the benchmark's tracer patches these names; a missing one is skipped there
    owner = importlib.import_module(f"berkvol.{module}")
    for name in attr.split("."):
        assert hasattr(owner, name), f"berkvol.{module} has no {attr}"
        owner = getattr(owner, name)
    assert callable(owner)
