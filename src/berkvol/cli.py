"""Configuration-driven experiment runner.

Usage:
    berkvol list
    berkvol describe KIND
    berkvol run CONFIG [--out-dir DIR] [--m-max M]

The options of run may come before or after CONFIG, and may also be written
--out-dir=DIR and --m-max=M.  -h or --help prints this text.  A usage error
prints the command's usage line and exits with status 2.

Configs are JSON with every rational written exactly: an integer, the
string "num/den" (or an integer string, with an optional sign), or a
[num, den] pair; a decimal or exponent string is a validation error.  Reports
carry both the exact rational (as "num/den") and a display decimal.
Exit status: 0 all assertions pass, 1 assertion failure, 2 parse error,
3 validation error (a malformed config, an input outside the domain of the
experiment, or a report that cannot be written).
"""

from __future__ import annotations

import json
import os
import re
import sys
from contextlib import suppress
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple

# The interpreter's own SHA-256, as random.py takes its sha512: hashlib would
# load OpenSSL's libcrypto, a few milliseconds of start-up, to hash one config.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import BerkvolError
from .field import check_prime
from .metrics import Metric
from .tree import PLFunction, TreeError, TreePoint, build_tree
from . import experiments as ex
from . import volumes as vo

OUT_DIR_ENV = "BERKVOL_OUT_DIR"

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3

#: Largest section degree m*d a config may ask for (the level-m sections
#: have m*d + 1 coefficients); a bound checked before anything is allocated.
MAX_SECTION_DEGREE = 10_000

#: Largest Fekete pool.  The residue-class DP keeps at most N + 1 entries
#: per segment, and the winner's re-check takes N - 1 valuations in digit
#: order: for the nested pool {0, 1, 2, ..., 2^998} at m = 999 the run takes
#: about 0.5-0.8 s on one core, 0.05 s of it the re-check.
MAX_POOL_POINTS = 1_000

#: Largest radius exponent q of a tree vertex or a point.  A disc of radius
#: p^-q is keyed by its center modulo p^ceil(q), so q bounds the size of
#: every integer that names a disc; checked before any point is built.
MAX_RADIUS_EXPONENT = 1_000


class ConfigError(BerkvolError):
    """Raised for structurally invalid configs (exit status 3)."""


# ---------------------------------------------------------------------------
# Exact rational (de)serialization


def parse_int(obj: Any, where: str) -> int:
    """A JSON integer; booleans are not integers here."""
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(f"{where}: expected an integer, got {obj!r}")
    return obj


#: A rational written as a string: an integer or "num/den", with an optional sign.
_RATIONAL_STRING = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(obj: Any, where: str) -> Fraction:
    if isinstance(obj, int):
        return Fraction(parse_int(obj, where))
    if isinstance(obj, str):
        # Fraction would also read decimals and exponents, and build 10^e
        # for "1e<e>"; only the exact forms get that far.
        if not _RATIONAL_STRING.fullmatch(obj):
            raise ConfigError(f"{where}: bad rational {obj!r}: expected an integer or 'num/den'")
        try:
            return Fraction(obj)
        except (ValueError, ZeroDivisionError) as e:
            raise ConfigError(f"{where}: bad rational {obj!r}: {e}") from None
    if isinstance(obj, list) and len(obj) == 2:
        num, den = parse_int(obj[0], where), parse_int(obj[1], where)
        if den == 0:
            raise ConfigError(f"{where}: zero denominator")
        return Fraction(num, den)
    raise ConfigError(f"{where}: expected 'num/den', int, or [num, den], got {obj!r}")


def exact_terms(x: Fraction, where: str) -> Tuple[str, str]:
    """x's numerator and denominator in decimal; where names the field.  Python
    writes no integer past sys.get_int_max_str_digits() digits."""
    try:
        return str(x.numerator), str(x.denominator)
    except ValueError:
        raise ConfigError(f"{where}: the value has too many digits to print") from None


def fmt_rational(x: Fraction, where: str) -> Dict[str, Any]:
    """x as its exact "num/den" and a display decimal; where names the field."""
    try:
        decimal = float(x)
    except OverflowError:
        raise ConfigError(f"{where}: the value is too large for a display decimal") from None
    num, den = exact_terms(x, where)
    return {"exact": f"{num}/{den}", "decimal": decimal}


def fmt_results(obj: Any, where: str = "results") -> Any:
    """obj with every Fraction in it written by fmt_rational, named by its path.

    Each runner formats its results before it writes its assertion details,
    so every value a detail prints has passed exact_terms.
    """
    if isinstance(obj, Fraction):
        return fmt_rational(obj, where)
    if isinstance(obj, dict):
        return {k: fmt_results(v, f"{where}.{k}") for k, v in obj.items()}
    if isinstance(obj, list):
        return [fmt_results(v, f"{where}[{i}]") for i, v in enumerate(obj)]
    return obj


def fmt_point(pt: TreePoint) -> Dict[str, Any]:
    return {
        "center": f"{pt.center.numerator}/{pt.center.denominator}",
        "q": f"{pt.q.numerator}/{pt.q.denominator}",
    }


def fmt_measure(mu) -> List[Dict[str, Any]]:
    items = sorted(mu.masses.items(), key=lambda kv: (kv[0].q, str(kv[0].center)))
    return [{**fmt_point(pt), "mass": m} for pt, m in items]


# ---------------------------------------------------------------------------
# Config -> domain objects


def parse_pl_function(rows: Any, p: int, where: str) -> PLFunction:
    if not isinstance(rows, list) or not rows:
        raise ConfigError(f"{where}: expected a nonempty list of vertex rows")
    values: Dict[TreePoint, Fraction] = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 6:
            raise ConfigError(f"{where}[{i}]: expected [c_num, c_den, q_num, q_den, v_num, v_den]")
        pt = parse_point(row[:4], p, f"{where}[{i}]")
        v = parse_rational(row[4:6], f"{where}[{i}].value")
        if pt in values:
            j, first = next((j, x) for j, x in enumerate(values) if x == pt)
            raise ConfigError(f"{where}[{i}]: names the same disc as {where}[{j}], {first}")
        values[pt] = v
    tree = build_tree(p, values)
    given = list(values)
    for v in tree.vertices:
        # A vertex no row names is the meet of rows below two of its
        # children, or else the Gauss point, which defaults to 0.
        if v not in values and len(tree.children[v]) >= 2:
            named = []
            for c in tree.children[v][:2]:
                while c not in values:  # an unnamed vertex has children
                    c = tree.children[c][0]
                named.append(given.index(c))
            i, j = named
            raise ConfigError(
                f"{where}: vertex set is not meet-closed; the meet of "
                f"{where}[{i}] {given[i]} and {where}[{j}] {given[j]} is missing"
            )
    values.setdefault(tree.root, Fraction(0))
    return PLFunction(tree, values)


def check_section_degree(m: int, d: int, where: str) -> None:
    """Reject levels whose sections exceed degree MAX_SECTION_DEGREE."""
    n = m * max(d, 1)
    if n > MAX_SECTION_DEGREE:
        raise ConfigError(f"{where}: section degree m*d = {n} exceeds {MAX_SECTION_DEGREE}")


def parse_metric(obj: Any, p: int, where: str) -> Metric:
    if not isinstance(obj, dict) or "d" not in obj or "tree" not in obj:
        raise ConfigError(f"{where}: expected an object with 'd' and 'tree'")
    d = parse_int(obj["d"], f"{where}.d")
    if d < 0:
        raise ConfigError(f"{where}.d: expected a nonnegative integer")
    check_section_degree(1, d, f"{where}.d")
    return Metric(d, parse_pl_function(obj["tree"], p, f"{where}.tree"))


def parse_m_range(obj: Any, where: str, m_max: Optional[int], d: int) -> List[int]:
    """The sorted levels of a list or start/stop/step, those above m_max
    dropped; the top level's sections, of degree m*d, are bounded as well."""
    if isinstance(obj, list):
        ms = sorted({parse_int(x, where) for x in obj})
        check_section_degree(max(ms, default=1), 1, where)
    elif isinstance(obj, dict):
        try:
            start = parse_int(obj["start"], f"{where}.start")
            stop = parse_int(obj["stop"], f"{where}.stop")
        except KeyError as e:
            raise ConfigError(f"{where}: missing {e}") from None
        step = parse_int(obj.get("step", 1), f"{where}.step")
        if step < 1:
            raise ConfigError(f"{where}: step must be >= 1")
        check_section_degree(max(start, stop), 1, where)
        if (stop - start) // step >= MAX_SECTION_DEGREE:
            raise ConfigError(f"{where}: more than {MAX_SECTION_DEGREE} levels")
        ms = list(range(start, stop + 1, step))
    else:
        raise ConfigError(f"{where}: expected a list of ints or start/stop/step")
    if m_max is not None:
        ms = [m for m in ms if m <= m_max]
    if not ms or ms[0] < 1:
        raise ConfigError(f"{where}: empty or invalid m range")
    check_section_degree(ms[-1], d, where)
    return ms


def parse_point(obj: Any, p: int, where: str) -> TreePoint:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ConfigError(f"{where}: expected [c_num, c_den, q_num, q_den]")
    c = parse_rational(obj[0:2], f"{where}.center")
    q = parse_rational(obj[2:4], f"{where}.q")
    if q > MAX_RADIUS_EXPONENT:
        raise ConfigError(f"{where}.q: radius exponent {q} exceeds {MAX_RADIUS_EXPONENT}")
    try:
        return TreePoint(p, c, q)
    except BerkvolError as e:
        raise ConfigError(f"{where}: {e}") from None


# ---------------------------------------------------------------------------
# Experiment runners: (config, prime p, --m-max or None) -> (results with
# exact Fractions, assertions, series rows)


def _series_rows(samples, k: int, t: str = "") -> List[Tuple[int, str, str, str, float]]:
    """Rows (m, t, value_num, value_den, normalized) of a level series
    [(m, v)]: v exactly, and v / m^k as a display decimal.  The decimal
    divides v's own integers, which rounds once, as float(v / m**k) does, and
    overflows where it does."""
    rows = []
    for m, v in samples:
        where = f"series m={m}" + (f" t={t}" if t else "")
        num, den = exact_terms(v, f"{where} value")
        try:
            rows.append((m, t, num, den, v.numerator / (v.denominator * m**k)))
        except OverflowError:
            raise ConfigError(
                f"{where} normalized: the value is too large for a display decimal"
            ) from None
    return rows


def run_orth(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi = parse_metric(cfg.get("metric"), p, "metric")
    residual = ex.orthogonality_experiment(phi)
    results = fmt_results({"residual": residual})
    assertions = [("orthogonality_residual_zero", residual == 0, f"residual = {residual}")]
    return results, assertions, []


def run_dirac(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi = parse_metric(cfg.get("metric"), p, "metric")
    x = parse_point(cfg.get("point"), p, "point")
    rep = ex.dirac_experiment(x, phi)
    results = fmt_results({
        "measure": fmt_measure(rep.measure),
        "equilibrium_values": [
            {**fmt_point(v), "value": rep.metric.g.values[v]}
            for v in rep.metric.tree.vertices
        ],
    })
    assertions = [
        ("measure_is_d_dirac_at_x", rep.is_dirac(), f"measure = {rep.measure.masses}")
    ]
    return results, assertions, []


def run_diff(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi = parse_metric(cfg.get("metric"), p, "metric")
    f = parse_pl_function(cfg.get("direction"), p, "direction")
    t_raw = cfg.get("t_grid", ["1/8", "1/16"])
    if not isinstance(t_raw, list):
        raise ConfigError("t_grid: expected a list of rationals")
    t_grid = [parse_rational(t, "t_grid") for t in t_raw]
    if not any(t_grid):
        raise ConfigError("t_grid: needs at least one nonzero t")
    ms = parse_m_range(cfg.get("m_range"), "m_range", m_max, phi.d)
    rep = ex.diff_experiment(phi, f, t_grid, ms)
    rows = []
    for leg in rep.legs:
        t = f"{leg.t.numerator}/{leg.t.denominator}"
        rows += _series_rows(leg.samples, 2, t)
    results = fmt_results({
        "target": rep.target,
        "right_derivative": rep.right_derivative,
        "left_derivative": rep.left_derivative,
    })
    assertions = [
        (f"{side}_derivative_equals_pairing", value == rep.target, f"{side} = {value}")
        for side, value in (("right", rep.right_derivative), ("left", rep.left_derivative))
    ]
    return results, assertions, rows


def run_sandwich(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi = parse_metric(cfg.get("metric"), p, "metric")
    psi1 = parse_metric(cfg.get("psi1"), p, "psi1")
    psi2 = parse_metric(cfg.get("psi2"), p, "psi2")
    if "m_range" in cfg:  # validated, though the exact volume reads no level
        parse_m_range(cfg["m_range"], "m_range", None, 1)
    rep = ex.sandwich_check(phi, psi1, psi2)
    results = fmt_results({"lower": rep.lower, "middle": rep.middle, "upper": rep.upper})
    assertions = [("sandwich_holds", rep.holds(), f"{rep.lower} <= {rep.middle} <= {rep.upper}")]
    return results, assertions, []


def run_vol_energy(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi = parse_metric(cfg.get("metric"), p, "metric")
    psi = parse_metric(cfg.get("metric2"), p, "metric2")
    ms = parse_m_range(cfg.get("m_range"), "m_range", m_max, max(phi.d, psi.d))
    rep = vo.check_vol_equals_energy(phi, psi, ms)
    rows = _series_rows(rep.samples, 2)
    results = fmt_results({"limit": rep.limit, "energy": rep.energy, "gap": rep.gap})
    assertions = [("vol_equals_energy", rep.gap == 0, f"gap = {rep.gap}")]
    return results, assertions, rows


def run_rr(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi_D = parse_pl_function(cfg.get("divisor"), p, "divisor")
    phi_A = parse_metric(cfg.get("ample"), p, "ample")
    ms = parse_m_range(cfg.get("m_range"), "m_range", m_max, phi_A.d)
    rep = vo.rr_slope_experiment(phi_D, phi_A, ms)
    rows = _series_rows(rep.samples, 1)
    results = fmt_results({"slope": rep.slope, "target": rep.target})
    assertions = [("slope_matches_pairing", rep.slope == rep.target, f"slope = {rep.slope}")]
    return results, assertions, rows


def run_fekete(cfg: Dict[str, Any], p: int, m_max: Optional[int]) -> Tuple[Dict, List, List]:
    phi = parse_metric(cfg.get("metric"), p, "metric")
    m = parse_int(cfg.get("m"), "m")
    if m < 1:
        raise ConfigError("m: expected a positive integer")
    check_section_degree(m, phi.d, "m")
    pool_raw = cfg.get("pool")
    if not isinstance(pool_raw, list):
        raise ConfigError("pool: expected a list of rationals")
    if len(pool_raw) > MAX_POOL_POINTS:
        raise ConfigError(f"pool: {len(pool_raw)} points exceed {MAX_POOL_POINTS}")
    pool = [parse_rational(x, "pool") for x in pool_raw]
    try:
        rep = ex.fekete_experiment(phi, m, pool)
    except TreeError as e:  # a pool point off the closed unit disc
        raise ConfigError(f"pool: {e}") from None
    results = fmt_results({
        "best_valuation": rep.best_valuation,
        "best_config": [f"{x.numerator}/{x.denominator}" for x in rep.best_config],
        "n_optima": rep.n_optima,
        "empirical": fmt_measure(rep.empirical),
        "target": fmt_measure(rep.target),
        "tv_distance": rep.tv_distance,
    })
    assertions = []
    expected = cfg.get("expected_valuation")
    if expected is not None:
        want = parse_rational(expected, "expected_valuation")
        assertions.append(
            ("optimal_valuation", rep.best_valuation == want, f"got {rep.best_valuation}")
        )
    tv_max = cfg.get("tv_max")
    if tv_max is not None:
        want = parse_rational(tv_max, "tv_max")
        assertions.append(("tv_distance_small", rep.tv_distance <= want, f"tv = {rep.tv_distance}"))
    return results, assertions, []


#: Each kind's runner, and the text describe prints: a literal, which -OO keeps.
KINDS: Dict[str, Tuple[Callable, str]] = {
    "diff": (run_diff, (
        "Differentiability of relative volumes: the one-sided derivative of "
        "t -> vol(L, phi + t f, phi) at t = 0 equals the pairing of f with "
        "MA(P(phi)), the Monge-Ampere measure of the psh envelope of phi, for "
        "any continuous phi (P(phi) = phi when phi is psh).  Both exact "
        "one-sided derivatives are checked for equality with the exact pairing."
    )),
    "sandwich": (run_sandwich, (
        "Siu-type sandwich bound: for f = psi1 - psi2 a difference of psh "
        "metrics on an auxiliary O(e), the defect between the mixed pairing "
        "int f d(MA(phi) + MA(psi1)) and vol(L, phi + f, phi) lies between "
        "e * inf f and e * sup f."
    )),
    "orth": (run_orth, (
        "Orthogonality: the Monge-Ampere measure of the psh envelope is "
        "supported in the contact locus {env(phi) = phi}, i.e. the residual "
        "int (phi - env(phi)) d MA(env(phi)) vanishes exactly."
    )),
    "dirac": (run_dirac, (
        "Dirac solutions: the equilibrium metric of a nonpluripolar point x "
        "solves the Monge-Ampere equation MA(phi_x) = d * delta_x exactly."
    )),
    "fekete": (run_fekete, (
        "Fekete equidistribution: configurations maximizing the metrized "
        "Vandermonde determinant equidistribute, after retraction to the "
        "skeleton, toward the normalized Monge-Ampere measure of the metric."
    )),
    "rr": (run_rr, (
        "Asymptotic Riemann-Roch slope: the content of the level-m "
        "restriction to a vertical divisor grows like m times the pairing "
        "of the divisor function with the Monge-Ampere measure of the ample "
        "metric.  The exact slope is checked for equality with the pairing."
    )),
    "vol-energy": (run_vol_energy, (
        "Volume equals energy: the exact relative volume of two metrics "
        "equals the relative Monge-Ampere energy of their psh envelopes."
    )),
}


# ---------------------------------------------------------------------------
# Entry points


def cmd_list(_args) -> int:
    for kind in sorted(KINDS):
        print(kind)
    return EXIT_OK


def cmd_describe(args) -> int:
    kind = args.kind
    if kind not in KINDS:
        print(f"unknown experiment kind: {kind!r}", file=sys.stderr)
        return EXIT_VALIDATION
    print(f"{kind}: {KINDS[kind][1]}")
    return EXIT_OK


def cmd_run(args) -> int:
    """Run one config and write <name>.report.json, and <name>.series.csv
    for a kind with a level series, into the output directory.

    The series file is a header and one row per level, five comma-separated
    columns with CRLF line ends and no quoting (no field can hold a comma, a
    quote or a line end): the bytes an excel-dialect csv writer gives.  Both
    files are written in full to temporary files before either replaces its
    target, the series first, so a report on disk always sits beside its own
    series; for a kind with no series, an older <name>.series.csv is removed
    before the report is replaced.  A run whose write fails removes the
    temporary files it wrote, and no other path.
    """
    path = Path(args.config)
    try:
        raw = path.read_text()
        cfg = json.loads(raw)
    except (OSError, ValueError, RecursionError) as e:  # bad JSON or UTF-8, deep nesting
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE

    try:
        if not isinstance(cfg, dict):
            raise ConfigError("top-level config must be an object")
        kind = cfg.get("kind")
        if not isinstance(kind, str) or kind not in KINDS:
            raise ConfigError(f"unknown experiment kind: {kind!r}")
        fld = cfg.get("field")
        if not isinstance(fld, dict) or "p" not in fld:
            raise ConfigError("field: expected an object with a prime 'p'")
        p = parse_int(fld["p"], "field.p")
        check_prime(p)
        for key in ("name", "out_dir"):
            if not isinstance(cfg.get(key, ""), str):
                raise ConfigError(f"{key}: expected a string, got {cfg[key]!r}")
        if any(sep in cfg.get("name", "") for sep in ("/", os.sep)):
            raise ConfigError(f"name: {cfg['name']!r} contains a path separator")
        results, assertions, rows = KINDS[kind][0](cfg, p, args.m_max)
    except BerkvolError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    out_dir = Path(
        args.out_dir or cfg.get("out_dir") or os.environ.get(OUT_DIR_ENV) or "."
    )
    stem = cfg.get("name") or path.stem
    config_hash = sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()

    report = {
        "config_hash": config_hash,
        "tool_version": __version__,
        "kind": kind,
        "results": results,
        "assertions": [
            {"name": name, "passed": ok, "detail": detail} for name, ok, detail in assertions
        ],
    }
    report_path = out_dir / f"{stem}.report.json"
    series_path = out_dir / f"{stem}.series.csv"
    written = []  # (temporary file, target) of each file this run wrote
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        files = []  # (target, text, newline), the series first
        if rows:
            lines = ["m,t,value_num,value_den,normalized\r\n"]
            lines += [f"{m},{t},{num},{den},{normalized!r}\r\n" for m, t, num, den, normalized in rows]
            files.append((series_path, "".join(lines), ""))
        files.append((report_path, json.dumps(report, indent=2, sort_keys=True) + "\n", None))
        for target, text, newline in files:
            tmp = target.with_suffix(".tmp")
            tmp.write_text(text, newline=newline)
            written.append((tmp, target))
        if not rows:  # an older run's series would sit beside a report it does not belong to
            series_path.unlink(missing_ok=True)
        for tmp, target in written:
            tmp.replace(target)
    except (OSError, ValueError) as e:  # ValueError: a NUL byte in a path
        for tmp, _ in written:  # each one this run wrote, never a path that blocked it
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
        print(f"validation error: cannot write the report: {e}", file=sys.stderr)
        return EXIT_VALIDATION

    failed = [a for a in report["assertions"] if not a["passed"]]
    for a in report["assertions"]:
        status = "PASS" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}")
    print(f"report: {report_path}")
    return EXIT_ASSERTION if failed else EXIT_OK


#: Each command's handler, its operand's metavar or None (the attribute that
#: holds the operand is the metavar in lower case), its options with the
#: attribute that holds each, and its usage line.
COMMANDS: Dict[str, Tuple[Callable, Optional[str], Dict[str, str], str]] = {
    "list": (cmd_list, None, {}, "usage: berkvol list"),
    "describe": (cmd_describe, "KIND", {}, "usage: berkvol describe KIND"),
    "run": (cmd_run, "CONFIG", {"--out-dir": "out_dir", "--m-max": "m_max"},
            "usage: berkvol run CONFIG [--out-dir DIR] [--m-max M]"),
}


def _usage_error(usage: str, message: str) -> NoReturn:
    print(usage, file=sys.stderr)
    print(f"berkvol: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


def _is_option(arg: str) -> bool:
    """A dash word, as argparse reads one: not "-" and not a negative integer."""
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def parse_argv(argv: List[str]) -> SimpleNamespace:
    """The command line: the command, its operand and its options.

    -h or --help prints the module docstring and exits 0; a usage error
    prints the usage line and the offending argument and exits 2.
    """
    usage = f"usage: berkvol {{{','.join(COMMANDS)}}} ..."
    if argv and argv[0] in ("-h", "--help"):
        print(__doc__ or usage)
        raise SystemExit(EXIT_OK)
    if not argv or argv[0] not in COMMANDS:
        what = f"invalid command {argv[0]!r}" if argv else "a command is required"
        _usage_error(usage, f"{what} (choose from {', '.join(map(repr, COMMANDS))})")
    command, rest = argv[0], argv[1:]
    _, metavar, options, usage = COMMANDS[command]
    args = SimpleNamespace(command=command, **dict.fromkeys(options.values()))
    operands = []
    i = 0
    while i < len(rest):
        arg = rest[i]
        i += 1
        if arg in ("-h", "--help"):
            print(__doc__ or usage)
            raise SystemExit(EXIT_OK)
        if not _is_option(arg):
            operands.append(arg)
            continue
        name, eq, value = arg.partition("=")
        if name not in options:
            _usage_error(usage, f"unrecognized option {arg!r}")
        if not eq:
            if i == len(rest) or _is_option(rest[i]):
                _usage_error(usage, f"option {name} expects a value")
            value = rest[i]
            i += 1
        if name == "--m-max":
            try:
                value = int(value)
            except ValueError:
                _usage_error(usage, f"option --m-max: {value!r} is not an integer")
        setattr(args, options[name], value)
    if metavar:
        if not operands:
            _usage_error(usage, f"{metavar} is required")
        setattr(args, metavar.lower(), operands.pop(0))
    if operands:
        _usage_error(usage, f"unexpected argument {operands[0]!r}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else argv)
    return COMMANDS[args.command][0](args)


if __name__ == "__main__":
    sys.exit(main())
