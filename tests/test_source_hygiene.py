"""Source rules for every module of the package, checked on its syntax tree."""

import ast
import hashlib
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
    # of the package's start-up; its values and reports are plain classes,
    # the immutable ones errors.Frozen
    assert "dataclasses" not in imported_modules(path), f"{path.name} imports dataclasses"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_named_tuples(path):
    # each NamedTuple class takes about 0.15 ms to create at import; reports
    # are errors.Frozen classes, as Metric and TreePoint are
    names = {name.split(".")[-1] for name in imported_modules(path)}
    assert names & {"NamedTuple", "namedtuple"} == set(), f"{path.name} imports a named tuple"


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
    # hashlib's _hashlib loads OpenSSL's libcrypto, a few milliseconds of
    # start-up: the config hash takes the interpreter's built-in SHA-256,
    # and the series file is written without the csv module
    assert added & {"hashlib", "_hashlib", "csv", "_csv"} == set()
    # argparse, and the gettext it loads, cost about 1.8 ms: the command
    # line is parsed by hand
    assert added & {"argparse", "gettext"} == set()


def test_cli_hash_falls_back_to_hashlib():
    """With neither built-in SHA-256 module, the import takes hashlib's and
    gives the same digest."""
    src = Path(__file__).resolve().parent.parent / "src"
    payload = b'{"kind": "orth"}'
    script = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None; "
        "import berkvol.cli; "
        f"print('hashlib' in sys.modules, berkvol.cli.sha256({payload!r}).hexdigest())"
    )
    out = subprocess.run([sys.executable, "-I", "-c", script], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["True", hashlib.sha256(payload).hexdigest()]


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


def sites(match):
    """(module, top-level function or class, or None) of every node for
    which match is true."""
    found = []
    for path in MODULES:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            scope = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
            found += [(path.name, scope) for node in ast.walk(stmt) if match(node)]
    return found


def callers_of(name):
    """sites of every call to name, by a bare name or as an attribute."""
    return sites(
        lambda node: isinstance(node, ast.Call)
        and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    )


def test_one_level_rule():
    # N = m d + 1 is computed in sections._level_dimension alone, which
    # refuses a level that is not an int >= 1; every other function that
    # needs N takes it from there, so none accepts a level the others refuse
    def m_times_d_plus_1(node):
        return (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.Mult)
            and getattr(node.left.left, "id", None) == "m"
            and getattr(node.right, "value", None) == 1
        )

    assert sites(m_times_d_plus_1) == [("sections.py", "_level_dimension")]


def test_one_integer_scaling_rule():
    # rationals are scaled to integers by the lcm of their denominators in
    # sections._integers alone, which refuses values of another field, so
    # the level series, the Fekete DP and the ramification index share it
    def lcm_of_denominators(node):
        return (
            isinstance(node, ast.Call)
            and "lcm" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            and any(getattr(arg, "attr", None) == "denominator" for arg in ast.walk(node))
        )

    assert sites(lcm_of_denominators) == [("sections.py", "_integers")]


def test_one_fit_routine():
    # no verdict rests on a fit: limits and derivatives are exact, and
    # volumes.affine_fit stays only as a name the benchmark's tracer patches
    assert callers_of("affine_fit") == []


def test_one_minorant_solve():
    # the Gauss point is a vertex of the leaf-to-root pass like any other:
    # one solve reads its knot list for limits and derivatives and walks the
    # pass for envelopes, and only the knot-list evaluation searches a list;
    # equilibrium metrics are the Dirac case of ma_solution.  A Metric runs
    # the solve on its own obstacle once, for vol_limit and envelope both;
    # right_derivative runs it on a dual obstacle
    assert callers_of("bisect_right") == [("metrics.py", "_eval")]
    assert callers_of("_leaf_to_root") == [("metrics.py", "_solve")]
    assert sorted(callers_of("_solve")) == [("metrics.py", "Metric"), ("volumes.py", "right_derivative")]


def test_one_potential_rule():
    # MA(phi) = mu is solved in metrics.ma_solution alone, by integrating
    # subtree masses; the equilibrium metric is its Dirac case and the
    # package's one caller, so metrics.py reads no meet
    metrics_py = next(path for path in MODULES if path.name == "metrics.py")
    named = {getattr(node, attr, None) for node in parse(metrics_py) for attr in ("id", "attr", "name")}
    assert "meet_q" not in named
    assert callers_of("ma_solution") == [("metrics.py", "equilibrium_metric")]


def test_knot_lists_stay_in_metrics():
    # W_v is the format of the leaf-to-root pass alone: no other module calls,
    # imports or names _eval or _leaf_to_root, so a rewrite of the pass
    # changes metrics.py only
    for path in MODULES:
        if path.name != "metrics.py":
            named = {getattr(node, attr, None) for node in parse(path) for attr in ("id", "attr", "name")}
            assert named & {"_eval", "_leaf_to_root"} == set(), path.name


def test_exact_passes_take_their_number_type_from_the_obstacle():
    # the passes run in the obstacle's number type, a Fraction or a dual, and
    # read their zero off it: metrics.py builds no Fraction, and no caller
    # passes a zero in
    assert [scope for module, scope in callers_of("Fraction") if module == "metrics.py"] == []
    metrics_py = next(path for path in MODULES if path.name == "metrics.py")
    params = {
        node.name: [arg.arg for arg in node.args.args]
        for node in parse(metrics_py)
        if isinstance(node, ast.FunctionDef) and node.name in ("_leaf_to_root", "_solve")
    }
    assert params == {"_leaf_to_root": ["tree", "obstacle"], "_solve": ["tree", "d", "obstacle"]}


def test_digit_order_is_decided_in_tree():
    # the p-adic digit order and the valuations of adjacent points come from
    # tree.digit_sorted alone: no other module sorts by a comparator or names
    # a digit order, experiments.py calls no valuation function, and
    # metrics.py builds no Gauss point (a measure puts d at its tree's root)
    for path in MODULES:
        named = {getattr(node, attr, None) for node in parse(path) for attr in ("id", "attr", "name")}
        if path.name != "tree.py":
            assert "functools.cmp_to_key" not in imported_modules(path), path.name
            assert named & {"cmp_to_key", "digit_order"} == set(), path.name
        if path.name == "experiments.py":
            assert named & {"padic_valuation", "int_valuation"} == set()
        if path.name == "metrics.py":
            assert "gauss_point" not in named


def test_tree_decides_where_discs_part_in_one_place():
    # _branch_depth, behind meet_q, is the one rule for where two discs part;
    # digit_sorted applies it to type-1 points, and placement descends by
    # meet_q with no valuation of its own
    assert [scope for module, scope in callers_of("int_valuation") if module == "tree.py"] == [
        "_branch_depth", "digit_sorted",
    ]


def test_tree_compares_no_infinity():
    # placement compares ints and Fractions only; the float INF stays out of tree.py
    tree_py = next(path for path in MODULES if path.name == "tree.py")
    assert "field.INF" not in imported_modules(tree_py)
    assert "INF" not in {getattr(node, "id", None) for node in parse(tree_py)}


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


def function_bodies(path):
    """(name, body) of every function and method in path, docstring dropped."""
    for node in parse(path):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            has_doc = ast.get_docstring(node, clean=False) is not None
            yield node.name, node.body[1:] if has_doc else node.body


def test_no_function_body_is_written_twice():
    # a helper is written once and imported: copies drift apart
    tests = sorted(Path(__file__).resolve().parent.glob("*.py"))
    seen = {}
    for path in MODULES + tests:
        for name, body in function_bodies(path):
            if len(body) >= 3:
                key = ast.dump(ast.Module(body=body, type_ignores=[]))
                seen.setdefault(key, []).append(f"{path.name}:{name}")
    copies = [names for names in seen.values() if len(names) > 1]
    assert copies == []


def tracer_targets():
    """(module, attribute) of each entry of TARGETS in bench/tracer.py, read
    from its syntax tree: the benchmark's file is neither imported nor run."""
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return [tuple(elt.elts[i].value for i in (0, 1)) for elt in node.value.elts]
    raise AssertionError("bench/tracer.py defines no TARGETS list")


#: Names kept with no use in the package and no tracer target, each for a reader outside it.
KEPT_FOR_OUTSIDE_READERS = {
    ("metrics", "trivial_metric"),  # README's Library block calls it
    ("sections", "required_ramification"),  # bench/tracer.py's _vol_m_attrs reads it
}


def is_dunder(name):
    """A special method, which Python calls by its name.  __post_init__ counts
    as a plain method: no dataclass calls it here."""
    return name.startswith("__") and name.endswith("__") and name != "__post_init__"


def test_every_package_name_has_a_use():
    # the package holds only what runs: each top-level function or class, and
    # each method but the dunders (__post_init__ is a method like any other),
    # is named in package code outside its own definition, is a benchmark
    # tracer target, or is kept above for a reader outside the package.
    # A helper only tests call lives in tests/
    definitions, uses = [], {}  # uses: name -> the nodes that name it
    for path in MODULES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                definitions.append((path.stem, stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                definitions += [
                    (path.stem, f"{stmt.name}.{node.name}", node)
                    for node in stmt.body
                    if isinstance(node, ast.FunctionDef) and not is_dunder(node.name)
                ]
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name is not None:
                uses.setdefault(name, []).append(node)
    kept = set(tracer_targets()) | KEPT_FOR_OUTSIDE_READERS
    unused = []
    for module, name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        uses_outside = [node for node in uses.get(name.rpartition(".")[2], []) if id(node) not in inside]
        if (module, name) not in kept and not uses_outside:
            unused.append(f"{module}.{name}")
    assert unused == []


@pytest.mark.parametrize("module, attr", tracer_targets(), ids=lambda t: t)
def test_tracer_target_resolves(module, attr):
    # the benchmark's tracer patches these names; a missing one is skipped there
    owner = importlib.import_module(f"berkvol.{module}")
    for name in attr.split("."):
        assert hasattr(owner, name), f"berkvol.{module} has no {attr}"
        owner = getattr(owner, name)
    assert callable(owner)
