import copy
import csv
import hashlib
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import berkvol.cli as cli_module
from berkvol.cli import (
    KINDS,
    MAX_POOL_POINTS,
    MAX_RADIUS_EXPONENT,
    MAX_SECTION_DEGREE,
    ConfigError,
    _series_rows,
    main,
    parse_metric,
    parse_rational,
)
from berkvol.tree import TreePoint, build_tree, gauss_point, meet


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


VOL_ENERGY_CFG = {
    "kind": "vol-energy",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2]]},
    "metric2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
    "m_range": {"start": 8, "stop": 24, "step": 2},
}


def test_list_prints_all_kinds(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert sorted(out) == sorted(KINDS)


def test_describe_known_kind(capsys):
    assert main(["describe", "orth"]) == 0
    out = capsys.readouterr().out
    assert "supported in the contact locus" in out


def test_describe_unknown_kind(capsys):
    assert main(["describe", "nope"]) == 3


def test_run_vol_energy_report_and_series(tmp_path, capsys):
    cfg = write_config(tmp_path, "ve.json", VOL_ENERGY_CFG)
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ve.report.json").read_text())
    assert report["kind"] == "vol-energy"
    assert report["results"]["energy"]["exact"] == "-1/8"
    assert report["results"]["limit"]["exact"] == "-1/8"
    assert all(a["passed"] for a in report["assertions"])
    with open(tmp_path / "ve.series.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["m"] == "8"
    assert rows[0]["value_num"] == "-10" and rows[0]["value_den"] == "1"


def test_run_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, "ve.json", VOL_ENERGY_CFG)
    a = tmp_path / "a"
    b = tmp_path / "b"
    main(["run", cfg, "--out-dir", str(a)])
    main(["run", cfg, "--out-dir", str(b)])
    assert (a / "ve.report.json").read_bytes() == (b / "ve.report.json").read_bytes()
    assert (a / "ve.series.csv").read_bytes() == (b / "ve.series.csv").read_bytes()


def test_run_m_max_truncates_series(tmp_path):
    cfg = write_config(tmp_path, "ve.json", VOL_ENERGY_CFG)
    main(["run", cfg, "--out-dir", str(tmp_path), "--m-max", "16"])
    with open(tmp_path / "ve.series.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert max(int(r["m"]) for r in rows) <= 16


def test_out_dir_env_var(tmp_path, monkeypatch):
    target = tmp_path / "envout"
    monkeypatch.setenv("BERKVOL_OUT_DIR", str(target))
    cfg = write_config(tmp_path, "ve.json", VOL_ENERGY_CFG)
    assert main(["run", cfg]) == 0
    assert (target / "ve.report.json").exists()


MALFORMED_FILES = {
    "not-json": b"{nope",
    "nested-too-deep": b"[" * 100_000 + b"]" * 100_000,
    "integer-past-the-digit-limit": b'{"kind": "orth", "m": ' + b"9" * 5_000 + b"}",
    "invalid-utf-8": b'{"kind": "orth\xff"}',
}


def test_parse_error_status(tmp_path, capsys):
    for name, data in MALFORMED_FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        assert main(["run", str(path), "--out-dir", str(tmp_path)]) == 2, name
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("parse error: "), (name, err)


def test_validation_error_names_missing_meet(tmp_path, capsys):
    cfg = {
        "kind": "orth",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 1, 1, 0, 1], [1, 1, 1, 1, 0, 1]]},
    }
    assert main(["run", write_config(tmp_path, "bad.json", cfg)]) == 3
    err = capsys.readouterr().err
    assert "not meet-closed" in err
    assert "zeta(0, q=1)" in err and "zeta(1, q=1)" in err

    # seeded row sets: rejected exactly when some pairwise meet is no row,
    # and then the named rows meet at a vertex that no row names
    rng = random.Random(29)
    rejected = 0
    for k in range(300):
        p = rng.choice([2, 3, 5])
        rows = [] if rng.random() < 0.5 else [[0, 1, 0, 1, 0, 1]]
        pts = set()
        for _ in range(rng.randint(1, 5)):
            c = Fraction(rng.randint(0, p**3 - 1), rng.choice([1, p + 1]))
            q = Fraction(rng.randint(1, 8), rng.choice([1, 2]))
            if TreePoint(p, c, q) not in pts:
                pts.add(TreePoint(p, c, q))
                rows.append([c.numerator, c.denominator, q.numerator, q.denominator, -k, 1])
        given = [TreePoint(p, Fraction(r[0], r[1]), Fraction(r[2], r[3])) for r in rows]
        closed = all(meet(x, y) in given for x, y in itertools.combinations(given, 2))
        cfg = {"kind": "orth", "field": {"p": p}, "metric": {"d": 1, "tree": rows}}
        status = main(["run", write_config(tmp_path, "rows.json", cfg), "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        if closed:
            assert status in (0, 1), err
            continue
        rejected += 1
        assert status == 3 and len(err.splitlines()) == 1 and "not meet-closed" in err
        i, j = map(int, re.findall(r"metric\.tree\[(\d+)\]", err))
        assert f"metric.tree[{i}] {given[i]}" in err and f"metric.tree[{j}] {given[j]}" in err
        missing = meet(given[i], given[j])
        assert missing not in given and missing in build_tree(p, given).vertices
    assert rejected > 100


def test_missing_gauss_point_that_is_no_meet_is_zero(tmp_path):
    """A Gauss point with one child below it is no meet: it stays implicit at 0."""
    rows = [[0, 1, 1, 1, -1, 1], [2, 1, 2, 1, -3, 1]]
    phi = parse_metric({"d": 1, "tree": rows}, 2, "metric")
    assert phi.g.values == {
        gauss_point(2): 0,
        TreePoint(2, Fraction(0), Fraction(1)): -1,
        TreePoint(2, Fraction(2), Fraction(2)): -3,
    }
    cfg = {"kind": "orth", "field": {"p": 2}, "metric": {"d": 1, "tree": rows}}
    assert main(["run", write_config(tmp_path, "g.json", cfg), "--out-dir", str(tmp_path)]) == 0


def test_validation_error_nonprime(tmp_path, capsys):
    cfg = dict(VOL_ENERGY_CFG, field={"p": 6})
    assert main(["run", write_config(tmp_path, "p6.json", cfg)]) == 3
    assert "not prime" in capsys.readouterr().err


def test_assertion_failure_status(tmp_path):
    cfg = {
        "kind": "fekete",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m": 2,
        "pool": ["0", "1", "2", "3"],
        "expected_valuation": "0",
    }
    # three points over Q_2 always collide mod 2, so valuation 0 is impossible
    assert main(["run", write_config(tmp_path, "fk.json", cfg), "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "fk.report.json").read_text())
    assert not all(a["passed"] for a in report["assertions"])


def test_fekete_plain_integers_and_tv_max(tmp_path):
    """Plain JSON integers read as their "num/den" spelling; tv_max bounds
    tv_distance = 1/6 from above, inclusively."""
    cfg = {
        "kind": "fekete",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2]]},
        "m": 2,
        "pool": list(range(8)),
        "tv_max": 1,
        "expected_valuation": -1,
    }
    spelled = dict(cfg, pool=[f"{x}/1" for x in range(8)], tv_max="1/1", expected_valuation="-1/1")

    def run(name, cfg):
        path = write_config(tmp_path, f"{name}.json", cfg)
        with redirect_stdout(io.StringIO()):
            status = main(["run", path, "--out-dir", str(tmp_path)])
        return status, json.loads((tmp_path / f"{name}.report.json").read_text())

    (a, plain), (b, text) = run("plain", cfg), run("text", spelled)
    assert a == b == 0 and plain["results"] == text["results"]
    assert plain["results"]["tv_distance"]["exact"] == "1/6"
    assert plain["assertions"] == text["assertions"] and len(plain["assertions"]) == 2
    for tv_max, status in [("1/6", 0), ("1/7", 1), (0, 1)]:
        assert run("tv", dict(cfg, tv_max=tv_max))[0] == status, tv_max


def test_run_orth_and_dirac_kinds(tmp_path):
    orth = {
        "kind": "orth",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]]},
    }
    assert main(["run", write_config(tmp_path, "o.json", orth), "--out-dir", str(tmp_path)]) == 0
    dirac = {
        "kind": "dirac",
        "field": {"p": 2},
        "metric": {"d": 2, "tree": [[0, 1, 0, 1, 0, 1]]},
        "point": [0, 1, 1, 1],
    }
    assert main(["run", write_config(tmp_path, "d.json", dirac), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "d.report.json").read_text())
    assert report["results"]["measure"][0]["mass"]["exact"] == "2/1"


def test_run_rr_and_diff_kinds(tmp_path):
    rr = {
        "kind": "rr",
        "field": {"p": 2},
        "divisor": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]],
        "ample": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2]]},
        "m_range": {"start": 2, "stop": 20, "step": 2},
    }
    assert main(["run", write_config(tmp_path, "rr.json", rr), "--out-dir", str(tmp_path)]) == 0
    diff = {
        "kind": "diff",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2]]},
        "direction": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]],
        "t_grid": ["1/8"],
        "m_range": {"start": 16, "stop": 80, "step": 16},
    }
    assert main(["run", write_config(tmp_path, "df.json", diff), "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "df.report.json").read_text())
    assert report["results"]["target"]["exact"] == "1/2"
    assert report["results"]["right_derivative"]["exact"] == "1/2"
    assert report["results"]["left_derivative"]["exact"] == "1/2"


DIFF_SERIES_CFG = {
    "kind": "diff",
    "field": {"p": 3},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [1, 1, 1, 1, -1, 2]]},
    "direction": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 2, 1, 3]],
    "t_grid": ["1/2", "1/4"],
    "m_range": {"start": 2, "stop": 9, "step": 2},
}

DIFF_SERIES_CSV = """\
m,t,value_num,value_den,normalized
2,1/4,0,1,0.0
4,1/4,0,1,0.0
6,1/4,0,1,0.0
8,1/4,0,1,0.0
2,-1/4,-1,6,-0.041666666666666664
4,-1/4,-1,3,-0.020833333333333332
6,-1/4,-1,2,-0.013888888888888888
8,-1/4,-5,6,-0.013020833333333334
2,1/2,0,1,0.0
4,1/2,0,1,0.0
6,1/2,0,1,0.0
8,1/2,0,1,0.0
2,-1/2,-1,3,-0.08333333333333333
4,-1/2,-5,6,-0.052083333333333336
6,-1/2,-3,2,-0.041666666666666664
8,-1/2,-5,2,-0.0390625
"""


def test_run_diff_series_csv(tmp_path):
    """One row per leg and level, legs in the order +t, -t by increasing |t|."""
    main(["run", write_config(tmp_path, "df.json", DIFF_SERIES_CFG), "--out-dir", str(tmp_path)])
    got = (tmp_path / "df.series.csv").read_bytes()
    assert got == DIFF_SERIES_CSV.replace("\n", "\r\n").encode()


VOL_ENERGY_SERIES_CFG = {
    "kind": "vol-energy",
    "field": {"p": 3},
    "metric": {"d": 2, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 2, -1, 3], [0, 1, 3, 2, -5, 4]]},
    "metric2": {"d": 2, "tree": [[0, 1, 0, 1, 1, 5], [0, 1, 2, 3, -2, 7]]},
    "m_range": [1, 2, 3, 5, 7, 10],
}

VOL_ENERGY_SERIES_CSV = """\
m,t,value_num,value_den,normalized
1,,-191,140,-1.3642857142857143
2,,-887,210,-1.055952380952381
3,,-1201,140,-0.9531746031746032
5,,-603,28,-0.8614285714285714
7,,-203,5,-0.8285714285714286
10,,-3373,42,-0.8030952380952381
"""

# the divisor branches at the Gauss point, so the common tree is no chain
RR_SERIES_CFG = {
    "kind": "rr",
    "field": {"p": 2},
    "divisor": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 2], [1, 1, 1, 1, 2, 3]],
    "ample": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 3], [0, 1, 5, 2, -2, 3]]},
    "m_range": [1, 2, 3, 4, 6, 9],
}

RR_SERIES_CSV = """\
m,t,value_num,value_den,normalized
1,,7,6,1.1666666666666667
2,,4,3,0.6666666666666666
3,,5,3,0.5555555555555556
4,,5,3,0.4166666666666667
6,,13,6,0.3611111111111111
9,,8,3,0.2962962962962963
"""


@pytest.mark.parametrize(
    "name, cfg, want",
    [
        ("ve", VOL_ENERGY_SERIES_CFG, VOL_ENERGY_SERIES_CSV),
        ("rr", RR_SERIES_CFG, RR_SERIES_CSV),
    ],
)
def test_run_series_csv_bytes(tmp_path, name, cfg, want):
    """vol-energy rows are normalized by m^2 (a chain against a two-vertex
    chain), rr rows by m (on a branching common tree)."""
    path = write_config(tmp_path, f"{name}.json", cfg)
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
    got = (tmp_path / f"{name}.series.csv").read_bytes()
    assert got == want.replace("\n", "\r\n").encode()


def test_degree_zero_diff_series_holds_the_volumes(tmp_path):
    """At d = 0 the series holds vol_m = m (min g_phi - min g_psi), as at
    any other degree."""
    cfg = {
        "kind": "diff",
        "field": {"p": 2},
        "metric": {"d": 0, "tree": [[0, 1, 0, 1, 0, 1]]},
        "direction": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 1]],
        "t_grid": ["1/2"],
        "m_range": [1, 2, 3, 4],
    }
    assert main(["run", write_config(tmp_path, "d0.json", cfg), "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "d0.series.csv") as fh:
        rows = [r for r in csv.DictReader(fh) if r["t"] == "1/2"]
    assert [Fraction(int(r["value_num"]), int(r["value_den"])) for r in rows] == [
        Fraction(-1, 2), Fraction(-1), Fraction(-3, 2), Fraction(-2)
    ]


def test_diff_has_no_tolerance_key(tmp_path):
    """An unknown "tolerance" key changes no result and no verdict.  With a
    fit, m = 1..4 read the derivative -2 with bound 0 against the target 0;
    the exact one-sided derivatives are 0."""
    cfg = {
        "kind": "diff",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [3, 1, 1, 1, -1, 5]]},
        "direction": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 2, -6, 1]],
        "t_grid": ["1/8"],
        "m_range": [1, 2, 3, 4],
    }
    reports = []
    for name, extra in (("plain", {}), ("tol", {"tolerance": "100"})):
        path = write_config(tmp_path, f"{name}.json", dict(cfg, **extra))
        assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / f"{name}.report.json").read_text())
        reports.append((report["results"], report["assertions"]))
    assert reports[0] == reports[1]
    results, assertions = reports[0]
    assert results["right_derivative"]["exact"] == results["left_derivative"]["exact"] == "0/1"
    assert [a["name"] for a in assertions] == [
        "right_derivative_equals_pairing", "left_derivative_equals_pairing"
    ]


def test_config_hash_covers_every_key(tmp_path):
    """Every key enters the hash, "_"-prefixed ones too."""
    hashes = []
    for extra in ({}, {"_note": "a"}, {"_note": "b"}):
        cfg = write_config(tmp_path, "ve.json", dict(VOL_ENERGY_CFG, **extra))
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        hashes.append(json.loads((tmp_path / "ve.report.json").read_text())["config_hash"])
    assert len(set(hashes)) == 3


def test_failed_series_write_leaves_no_new_report(tmp_path, capsys):
    """The series is written before the report, so a run that cannot write
    its series leaves no report behind, and an older report unchanged."""
    out = tmp_path / "out"
    (out / "ve.series.tmp").mkdir(parents=True)  # blocks the series' temporary file
    cfg = write_config(tmp_path, "ve.json", VOL_ENERGY_CFG)
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error: cannot write the report: ")
    assert not (out / "ve.report.json").exists()

    (out / "ve.series.tmp").rmdir()
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    old = (out / "ve.report.json").read_bytes()
    (out / "ve.series.tmp").mkdir()
    cfg = write_config(tmp_path, "ve.json", dict(VOL_ENERGY_CFG, m_range=[2, 3]))
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    assert (out / "ve.report.json").read_bytes() == old


def test_failed_report_write_leaves_the_older_series(tmp_path, capsys):
    """Both temporary files are written before either target is replaced, so
    a run that cannot write its report leaves the older report and series."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "ve.json", dict(VOL_ENERGY_CFG, m_range=[2, 3]))
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    old = {name: (out / name).read_bytes() for name in ("ve.report.json", "ve.series.csv")}
    (out / "ve.report.tmp").mkdir()  # blocks the report's temporary file
    cfg = write_config(tmp_path, "ve.json", dict(VOL_ENERGY_CFG, m_range=[2, 3, 4]))
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error: cannot write the report: ")
    assert {name: (out / name).read_bytes() for name in old} == old


def test_failed_report_write_removes_the_new_series_temporary_file(tmp_path, capsys):
    """A run whose report cannot be written removes the series' temporary
    file it wrote, and leaves the directory that blocked the write."""
    out = tmp_path / "out"
    cfg = write_config(tmp_path, "ve.json", dict(VOL_ENERGY_CFG, m_range=[2, 3]))
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    old = {name: (out / name).read_bytes() for name in ("ve.report.json", "ve.series.csv")}
    (out / "ve.report.tmp").mkdir()  # blocks the report's temporary file
    cfg = write_config(tmp_path, "ve.json", dict(VOL_ENERGY_CFG, m_range=[2, 3, 4]))
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error: cannot write the report: ")
    assert sorted(path.name for path in out.iterdir()) == sorted([*old, "ve.report.tmp"])
    assert (out / "ve.report.tmp").is_dir()
    assert {name: (out / name).read_bytes() for name in old} == old


def test_series_that_cannot_be_removed_removes_the_report_temporary_file(tmp_path, capsys):
    """A kind with no series that cannot remove an older <name>.series.csv
    removes the report's temporary file it wrote, and leaves the older report
    and the directory in the series' place."""
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "x.json", ORTH_CFG), "--out-dir", str(out)]) == 0
    old = (out / "x.report.json").read_bytes()
    (out / "x.series.csv").mkdir()  # unlink fails on a directory
    cfg = write_config(tmp_path, "x.json", dict(ORTH_CFG, metric=NON_PSH_METRIC))
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error: cannot write the report: ")
    assert sorted(path.name for path in out.iterdir()) == ["x.report.json", "x.series.csv"]
    assert (out / "x.series.csv").is_dir()
    assert (out / "x.report.json").read_bytes() == old


def test_kind_without_series_removes_an_older_series(tmp_path):
    """A report never sits beside a series of another run: a kind with no
    series removes an older <name>.series.csv."""
    out = tmp_path / "out"
    assert main(["run", write_config(tmp_path, "x.json", VOL_ENERGY_CFG), "--out-dir", str(out)]) == 0
    assert (out / "x.series.csv").exists()
    assert main(["run", write_config(tmp_path, "x.json", ORTH_CFG), "--out-dir", str(out)]) == 0
    assert json.loads((out / "x.report.json").read_text())["kind"] == "orth"
    assert not (out / "x.series.csv").exists()


def test_series_that_cannot_be_removed_leaves_no_report(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "x.series.csv").mkdir(parents=True)  # unlink fails on a directory
    assert main(["run", write_config(tmp_path, "x.json", ORTH_CFG), "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err.startswith("validation error: cannot write the report: ")
    assert not (out / "x.report.json").exists()


ORTH_CFG = {"kind": "orth", "field": {"p": 2}, "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]}}
DIFF_CFG = {
    "kind": "diff",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2]]},
    "direction": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]],
    "t_grid": ["1/8"],
    "m_range": [1, 2, 3, 4],
}
FEKETE_CFG = {
    "kind": "fekete",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
    "m": 1,
    "pool": ["0", "1", "2"],
}
DIRAC_CFG = {
    "kind": "dirac",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
    "point": [0, 1, 1, 1],
}
SANDWICH_CFG = {
    "kind": "sandwich",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
    "psi1": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [1, 1, 1, 1, -1, 1]]},
    "psi2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
}
# rises by 1 from the Gauss point: negative mass at zeta(0, 1)
NON_PSH_METRIC = {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]]}
DEGREE_ZERO_METRIC = {"d": 0, "tree": [[0, 1, 0, 1, 0, 1]]}

NON_PSH_DIFF_CFG = {
    "kind": "diff",
    "field": {"p": 2},
    "metric": NON_PSH_METRIC,
    "direction": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]],
    "m_range": {"start": 4, "stop": 10, "step": 2},
}

DOMAIN_ERROR_CFGS = {
    "rr-negative-divisor": {
        "kind": "rr",
        "field": {"p": 2},
        "divisor": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 1]],
        "ample": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": {"start": 2, "stop": 8, "step": 2},
    },
    "fekete-degree-zero": {
        "kind": "fekete",
        "field": {"p": 2},
        "metric": {"d": 0, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m": 2,
        "pool": ["0", "1"],
    },
    "m-range-string-start": {
        "kind": "vol-energy",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "metric2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": {"start": "1", "stop": 4},
    },
    # building this level list would raise OverflowError
    "m-range-huge-stop": {
        "kind": "vol-energy",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "metric2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": {"start": 1, "stop": 10**30},
    },
    "m-range-too-many-levels": {
        "kind": "rr",
        "field": {"p": 2},
        "divisor": [[0, 1, 0, 1, 0, 1]],
        "ample": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": {"start": -(10**30), "stop": 4},
    },
    "fekete-pool-too-large": {
        "kind": "fekete",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m": 1,
        "pool": list(range(MAX_POOL_POINTS + 1)),
    },
    # p^ceil(q) would be computed for these radius exponents
    "dirac-point-huge-radius": {
        "kind": "dirac",
        "field": {"p": 3},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "point": [0, 1, 10**8, 1],
    },
    "tree-row-huge-radius": {
        "kind": "orth",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 10**12, 1, -1, 1]]},
    },
    # output places: checked before the run, or failing while the report is written
    "out-dir-not-a-string": dict(ORTH_CFG, out_dir=5),
    "out-dir-uncreatable": dict(ORTH_CFG, out_dir="/dev/null/berkvol"),
    "name-not-a-string": dict(ORTH_CFG, name={"a": 1}),
    "name-with-separator": dict(ORTH_CFG, name="sub/x"),
    "name-too-long-to-write": dict(ORTH_CFG, name="x" * 300),
    "name-with-nul": dict(ORTH_CFG, name="a\0b"),
    # a diff with no nonzero t would check nothing
    "diff-t-grid-zero": dict(DIFF_CFG, t_grid=["0"]),
    "diff-t-grid-empty": dict(DIFF_CFG, t_grid=[]),
    # JSON booleans are not integers
    "metric-d-true": dict(ORTH_CFG, metric={"d": True, "tree": [[0, 1, 0, 1, 0, 1]]}),
    "fekete-m-true": dict(FEKETE_CFG, m=True),
    "m-range-list-true": dict(DIFF_CFG, m_range=[True, 2, 3, 4]),
    "m-range-start-true": dict(DIFF_CFG, m_range={"start": True, "stop": 4}),
    "m-range-stop-true": dict(DIFF_CFG, m_range={"start": 1, "stop": True}),
    "m-range-step-true": dict(DIFF_CFG, m_range={"start": 1, "stop": 4, "step": True}),
    "field-p-true": dict(ORTH_CFG, field={"p": True}),
    "pair-numerator-true": dict(FEKETE_CFG, pool=["0", [True, 1], "2"]),
    "pair-denominator-true": dict(DIFF_CFG, t_grid=[[1, True]]),
    # rationals are integers or "num/den": no decimal or exponent strings,
    # and 10^30000000 is never built
    "diff-t-grid-decimal": dict(DIFF_CFG, t_grid=["1.5"]),
    "fekete-pool-exponent": dict(FEKETE_CFG, pool=["0", "1e30000000", "2"]),
    # an exact result beyond the float range has no display decimal
    "vol-energy-value-overflow": dict(
        VOL_ENERGY_CFG, metric={"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -(10**400), 1]]}
    ),
    "dirac-value-overflow": {
        "kind": "dirac",
        "field": {"p": 3},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, -(10**400), 1]]},
        "point": [0, 1, 1, 1],
    },
    # limit and energy have 5001 digits: a float exists, a decimal string does not
    "vol-energy-too-many-digits": {
        "kind": "vol-energy",
        "field": {"p": 2},
        "metric": {
            "d": 1,
            "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -(10**2500 + 7), 3 * 10**2500 + 1]],
        },
        "metric2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": [1, 2],
    },
    # each of the rest meets its own check, and prints DOMAIN_ERROR_MESSAGES[name]
    "tree-empty": dict(ORTH_CFG, metric={"d": 1, "tree": []}),
    "metric-d-negative": dict(ORTH_CFG, metric={"d": -1, "tree": [[0, 1, 0, 1, 0, 1]]}),
    "tree-row-off-disc": dict(ORTH_CFG, metric={"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [1, 2, 1, 1, 0, 1]]}),
    "dirac-point-off-disc": dict(DIRAC_CFG, point=[1, 2, 1, 1]),
    "m-range-step-zero": dict(DIFF_CFG, m_range={"start": 1, "stop": 4, "step": 0}),
    "m-range-start-past-stop": dict(DIFF_CFG, m_range={"start": 4, "stop": 1}),
    "dirac-point-wrong-shape": dict(DIRAC_CFG, point=[0, 1, 1]),
    "rational-as-object": dict(DIFF_CFG, t_grid=[{"a": 1}]),
    "diff-t-grid-not-a-list": dict(DIFF_CFG, t_grid="1/8"),
    "fekete-m-zero": dict(FEKETE_CFG, m=0),
    "fekete-pool-not-a-list": dict(FEKETE_CFG, pool="0"),
    "fekete-pool-repeated": dict(FEKETE_CFG, pool=["0", "1", "2/2"]),
    "fekete-pool-too-small": dict(FEKETE_CFG, pool=["0"]),
    "fekete-pool-off-disc": dict(FEKETE_CFG, pool=["0", "1", "1/2"]),
    "sandwich-two-bundles": dict(SANDWICH_CFG, psi2={"d": 2, "tree": [[0, 1, 0, 1, 0, 1]]}),
    "vol-energy-two-bundles": dict(VOL_ENERGY_CFG, metric2={"d": 2, "tree": [[0, 1, 0, 1, 0, 1]]}),
    "sandwich-not-psh": dict(SANDWICH_CFG, metric=NON_PSH_METRIC),
    "vol-energy-degree-zero": dict(VOL_ENERGY_CFG, metric=DEGREE_ZERO_METRIC, metric2=DEGREE_ZERO_METRIC),
    "dirac-degree-zero": dict(DIRAC_CFG, metric=DEGREE_ZERO_METRIC),
    "rr-ample-not-psh": dict(RR_SERIES_CFG, ample=NON_PSH_METRIC),
    "top-level-list": [ORTH_CFG],
    "field-without-p": dict(ORTH_CFG, field={"q": 2}),
    "m-range-without-stop": dict(DIFF_CFG, m_range={"start": 1}),
    "fekete-not-psh": dict(FEKETE_CFG, metric=NON_PSH_METRIC),
    "tree-row-zero-denominator": dict(ORTH_CFG, metric={"d": 1, "tree": [[0, 1, 0, 1, 1, 0]]}),
}


DUPLICATE_DISC_CFGS = {
    # the Gauss point given twice, with different values
    "gauss-twice": {
        "kind": "orth",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 0, 1, 1, 1]]},
    },
    # 0 and 2 name the same disc of radius 2^-1 over Q_2
    "same-disc-other-center": {
        "kind": "orth",
        "field": {"p": 2},
        "metric": {
            "d": 1,
            "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1], [2, 1, 1, 1, -1, 1]],
        },
    },
}

HUGE_P_CFG = dict(VOL_ENERGY_CFG, field={"p": 1000000000000000000000000000057})


@pytest.mark.parametrize(
    "name, rows", [("gauss-twice", (1, 0)), ("same-disc-other-center", (2, 1))]
)
def test_repeated_disc_is_validation_error(tmp_path, capsys, name, rows):
    cfg = write_config(tmp_path, f"{name}.json", DUPLICATE_DISC_CFGS[name])
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "names the same disc" in err
    assert all(f"metric.tree[{r}]" in err for r in rows)


def test_huge_prime_is_rejected_quickly(tmp_path, capsys):
    cfg = write_config(tmp_path, "huge.json", HUGE_P_CFG)
    start = time.perf_counter()
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "2^64" in err


@pytest.mark.parametrize("p", [-3, 0, 1, 4])
def test_non_prime_p_is_validation_error(tmp_path, capsys, p):
    cfg = write_config(tmp_path, "p.json", dict(VOL_ENERGY_CFG, field={"p": p}))
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"validation error: p = {p} is not prime\n"


def test_sandwich_validates_a_present_m_range(tmp_path, capsys):
    # the exact sandwich reads no level, but a malformed m_range is still an error
    from test_bench_reference import corpus  # bench/ read without writing bytecode

    cfg = corpus.make_config("lattice-ramified", 1)
    assert cfg["kind"] == "sandwich" and "m_range" in cfg
    bad = write_config(tmp_path, "junk.json", dict(cfg, m_range="junk"))
    assert main(["run", bad, "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err == "validation error: m_range: expected a list of ints or start/stop/step\n"
    del cfg["m_range"]
    assert main(["run", write_config(tmp_path, "absent.json", cfg), "--out-dir", str(tmp_path)]) == 0


CHAIN_AT_CAP_CFG = {
    "kind": "vol-energy",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2], [0, 1, 3, 1, -3, 2]]},
    "metric2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [4, 1, 3, 2, -1, 3]]},
    "m_range": {"start": MAX_SECTION_DEGREE - 99, "stop": MAX_SECTION_DEGREE},
}


def test_chain_at_the_section_degree_cap_finishes(tmp_path):
    """100 levels of two chains at m d = MAX_SECTION_DEGREE end with a report,
    quickly; the exact vol_equals_energy check holds, whatever the levels."""
    cfg = write_config(tmp_path, "cap.json", CHAIN_AT_CAP_CFG)
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        status = main(["run", cfg, "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 5
    assert status == 0
    report = json.loads((tmp_path / "cap.report.json").read_text())
    assert report["kind"] == "vol-energy"
    rows = list(csv.DictReader(io.StringIO((tmp_path / "cap.series.csv").read_text())))
    levels = range(MAX_SECTION_DEGREE - 99, MAX_SECTION_DEGREE + 1)
    assert [int(r["m"]) for r in rows] == list(levels)


BRANCHING_AT_CAP_CFG = {
    "kind": "vol-energy",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [
        [0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2], [1, 1, 1, 1, -1, 3],
        [0, 1, 2, 1, -3, 4], [2, 1, 2, 1, -2, 3],
    ]},
    "metric2": {"d": 1, "tree": [
        [0, 1, 0, 1, 0, 1], [0, 1, 3, 2, -1, 2], [1, 1, 1, 1, -1, 4],
        [1, 1, 2, 1, -1, 1], [3, 1, 2, 1, -1, 2],
    ]},
    "m_range": {"start": MAX_SECTION_DEGREE - 7, "stop": MAX_SECTION_DEGREE},
}


def test_branching_trees_at_the_section_degree_cap_finish(tmp_path):
    """8 levels of two branching trees at m d = MAX_SECTION_DEGREE end with a report.

    Both trees have a vertex with two children, so every unit ball takes
    the tree recursion over root counts, not the chain envelope sum.
    """
    cfg = write_config(tmp_path, "branch.json", BRANCHING_AT_CAP_CFG)
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        status = main(["run", cfg, "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 5
    assert status == 0
    report = json.loads((tmp_path / "branch.report.json").read_text())
    assert report["kind"] == "vol-energy"
    rows = list(csv.DictReader(io.StringIO((tmp_path / "branch.series.csv").read_text())))
    levels = range(MAX_SECTION_DEGREE - 7, MAX_SECTION_DEGREE + 1)
    assert [int(r["m"]) for r in rows] == list(levels)
    for key in ("metric", "metric2"):
        tree = parse_metric(BRANCHING_AT_CAP_CFG[key], 2, key).tree
        assert any(len(c) > 1 for c in tree.children.values())


NESTED_POOL_CFG = {
    "kind": "fekete",
    "field": {"p": 2},
    "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
    "pool": ["0"] + [str(2**k) for k in range(MAX_POOL_POINTS - 1)],
}


@pytest.mark.parametrize("m, n_optima", [(1, 999), (100, 900)])
def test_nested_pool_at_the_pool_cap_finishes(tmp_path, m, n_optima):
    """The pool {0, 1, 2, 4, ..., 2^998} over Q_2 at MAX_POOL_POINTS points.

    Its residue classes nest 999 deep.  At m = 1 the optimum pairs 1 with
    any other point; at m = 100 it takes 1 and 2^1..2^99, then one of
    the 900 points left among 0 and 2^100..2^998.
    """
    cfg = write_config(tmp_path, "nest.json", dict(NESTED_POOL_CFG, m=m))
    start = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        status = main(["run", cfg, "--out-dir", str(tmp_path)])
    assert time.perf_counter() - start < 5
    assert status == 0
    results = json.loads((tmp_path / "nest.report.json").read_text())["results"]
    assert results["n_optima"] == n_optima
    assert results["best_config"] == ["0/1"] + [f"{2**k}/1" for k in range(m)]


def test_seed_is_a_usage_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "orth.json", ORTH_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["run", cfg, "--out-dir", str(tmp_path), "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


CANONICAL_RUN = ["run", "CFG", "--out-dir", "OUT", "--m-max", "16"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "CFG", "--out-dir=OUT", "--m-max", "16"],
        ["run", "--out-dir", "OUT", "CFG", "--m-max", "16"],
        ["run", "--m-max", "16", "--out-dir=OUT", "CFG"],
        ["run", "CFG", "--out-dir", "OUT", "--m-max=16"],
    ],
    ids=" ".join,
)
def test_run_spellings_give_the_canonical_bytes(tmp_path, argv):
    cfg = write_config(tmp_path, "ve.json", VOL_ENERGY_CFG)
    outputs = []
    for name, form in (("canonical", CANONICAL_RUN), ("spelled", argv)):
        out = tmp_path / name
        assert main([cfg if a == "CFG" else a.replace("OUT", str(out)) for a in form]) == 0
        outputs.append([(out / f"ve.{suffix}").read_bytes() for suffix in ("report.json", "series.csv")])
    assert outputs[0] == outputs[1]
    assert b"\r\n16," in outputs[0][1] and b"\r\n18," not in outputs[0][1]


USAGE_ERRORS = [  # argv, and what the error line names
    ([], "a command is required"),
    (["frobnicate"], "'frobnicate'"),
    (["--out-dir", "x", "run", "c.json"], "'--out-dir'"),
    (["run", "c.json", "--seed", "1"], "'--seed'"),
    (["run", "c.json", "--out", "x"], "'--out'"),  # no prefix abbreviations
    (["list", "--m-max", "3"], "'--m-max'"),
    (["run"], "CONFIG"),
    (["describe"], "KIND"),
    (["run", "c.json", "--out-dir"], "--out-dir"),
    (["run", "c.json", "--m-max", "--out-dir", "x"], "--m-max"),
    (["run", "c.json", "extra.json"], "'extra.json'"),
    (["list", "extra"], "'extra'"),
    (["describe", "orth", "dirac"], "'dirac'"),
    (["run", "c.json", "--m-max", "three"], "'three'"),
    (["run", "c.json", "--m-max=1.5"], "'1.5'"),
]


@pytest.mark.parametrize(
    "argv, named", USAGE_ERRORS, ids=[" ".join(argv) or "no-command" for argv, _ in USAGE_ERRORS]
)
def test_usage_error_exits_2_and_names_the_argument(capsys, argv, named):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    usage, error = err.splitlines()
    assert out == ""
    assert usage.startswith("usage: berkvol")
    assert error.startswith("berkvol: error: ") and named in error


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["run", "-h"], ["run", "c.json", "--help"]], ids=" ".join
)
def test_help_prints_the_module_docstring(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr() == (cli_module.__doc__ + "\n", "")


def test_python_m_berkvol_reads_sys_argv():
    src = str(Path(cli_module.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)

    def berkvol(*argv):
        return subprocess.run(
            [sys.executable, "-m", "berkvol", *argv], capture_output=True, text=True, env=env
        )

    listed = berkvol("list")
    assert (listed.returncode, sorted(listed.stdout.split())) == (0, sorted(KINDS))
    bare = berkvol()
    assert bare.returncode == 2
    assert bare.stderr.startswith("usage: berkvol")


HASH_SEED_CFGS = {
    # the point branches off the edge below zeta(0, q=2) at q = 1, where the
    # refined tree gets a vertex named by the first point below it in the
    # iteration order of a set
    "dirac": {
        "kind": "dirac",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 2, 1, -1, 1]]},
        "point": [2, 1, 3, 1],
    },
    "fekete": {
        "kind": "fekete",
        "field": {"p": 3},
        "metric": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [1, 1, 1, 1, -1, 2]]},
        "m": 2,
        "pool": ["0", "1", "2", "4", "7", "10", "5/2"],
    },
}


def test_reports_do_not_depend_on_the_hash_seed(tmp_path):
    """Two runs of python -m berkvol under different PYTHONHASHSEEDs print
    and write the same bytes, the name of the dirac run's made vertex
    included."""
    src = str(Path(cli_module.__file__).resolve().parent.parent)
    out = tmp_path / "out"
    runs = []
    for seed in ("0", "987654"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        for kind, cfg in HASH_SEED_CFGS.items():
            argv = ["run", write_config(tmp_path, f"{kind}.json", cfg), "--out-dir", str(out)]
            r = subprocess.run([sys.executable, "-m", "berkvol", *argv], capture_output=True, env=env)
            report = (out / f"{kind}.report.json").read_bytes()
            runs.append((r.returncode, r.stdout, r.stderr, report))
    assert runs[:2] == runs[2:]
    values = json.loads(runs[0][3])["results"]["equilibrium_values"]
    assert {"center": "2/1", "q": "1/1"} in [{k: v[k] for k in ("center", "q")} for v in values]


# the one line that each of the last entries of DOMAIN_ERROR_CFGS prints
DOMAIN_ERROR_MESSAGES = {
    "tree-empty": "metric.tree: expected a nonempty list of vertex rows",
    "metric-d-negative": "metric.d: expected a nonnegative integer",
    "tree-row-off-disc": "metric.tree[1]: center 1/2 lies outside the closed unit disc",
    "dirac-point-off-disc": "point: center 1/2 lies outside the closed unit disc",
    "m-range-step-zero": "m_range: step must be >= 1",
    "m-range-start-past-stop": "m_range: empty or invalid m range",
    "dirac-point-wrong-shape": "point: expected [c_num, c_den, q_num, q_den]",
    "rational-as-object": "t_grid: expected 'num/den', int, or [num, den], got {'a': 1}",
    "diff-t-grid-not-a-list": "t_grid: expected a list of rationals",
    "fekete-m-zero": "m: expected a positive integer",
    "fekete-pool-not-a-list": "pool: expected a list of rationals",
    "fekete-pool-repeated": "pool contains repeated points",
    "fekete-pool-too-small": "pool of 1 points cannot host 2-tuples",
    "fekete-pool-off-disc": "pool: center 1/2 lies outside the closed unit disc",
    "sandwich-two-bundles": "auxiliary metrics live on different bundles",
    "vol-energy-two-bundles": "metrics live on different line bundles",
    "sandwich-not-psh": "all inputs must be psh",
    "vol-energy-degree-zero": "energy needs d >= 1",
    "dirac-degree-zero": "equilibrium metric needs d >= 1",
    "rr-ample-not-psh": "ample-side metric must be psh",
    "top-level-list": "top-level config must be an object",
    "field-without-p": "field: expected an object with a prime 'p'",
    "m-range-without-stop": "m_range: missing 'stop'",
    "fekete-not-psh": "Fekete experiment needs a psh metric",
    "tree-row-zero-denominator": "metric.tree[0].value: zero denominator",
}


@pytest.mark.parametrize("name", sorted(DOMAIN_ERROR_CFGS))
def test_domain_error_is_validation_status(tmp_path, capsys, name):
    cfg = write_config(tmp_path, f"{name}.json", DOMAIN_ERROR_CFGS[name])
    # a config that names its own output directory is run without --out-dir
    own_dir = "out_dir" in DOMAIN_ERROR_CFGS[name]
    assert main(["run", cfg] + ([] if own_dir else ["--out-dir", str(tmp_path)])) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("validation error: ")
    assert "Traceback" not in err
    if name in DOMAIN_ERROR_MESSAGES:
        assert err == f"validation error: {DOMAIN_ERROR_MESSAGES[name]}\n"
    assert not (tmp_path / f"{name}.report.json").exists()


def test_diff_on_a_non_psh_base_pairs_with_the_envelope(tmp_path):
    # phi rises by 1 from the Gauss point: P(phi) is 0, MA(P(phi)) the Dirac
    # mass at the Gauss point where f is 0, so both derivatives are 0
    cfg = write_config(tmp_path, "np.json", NON_PSH_DIFF_CFG)
    with redirect_stdout(io.StringIO()):
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
    results = json.loads((tmp_path / "np.report.json").read_text())["results"]
    assert results["target"]["exact"] == "0/1"
    assert results["right_derivative"]["exact"] == results["left_derivative"]["exact"] == "0/1"


ONE_CFG_PER_KIND = {
    "orth": ORTH_CFG,
    "dirac": DIRAC_CFG,
    "diff": DIFF_CFG,
    "sandwich": SANDWICH_CFG,
    "vol-energy": VOL_ENERGY_CFG,
    "rr": RR_SERIES_CFG,
    "fekete": FEKETE_CFG,
}


@pytest.mark.parametrize("kind", sorted(ONE_CFG_PER_KIND))
def test_config_hash_is_the_sha256_of_the_sorted_config(tmp_path, kind):
    cfg = ONE_CFG_PER_KIND[kind]
    assert cfg["kind"] == kind
    assert main(["run", write_config(tmp_path, "c.json", cfg), "--out-dir", str(tmp_path)]) == 0
    got = json.loads((tmp_path / "c.report.json").read_text())["config_hash"]
    assert got == hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "cfg", [DIFF_SERIES_CFG, VOL_ENERGY_SERIES_CFG, RR_SERIES_CFG], ids=lambda cfg: cfg["kind"]
)
def test_series_file_parses_back_to_the_rows(tmp_path, cfg):
    """csv.reader reads each series file back to the header and the fields
    of _series_rows, so the unquoted columns need no quoting.  The diff file
    has a negative t and negative numerators."""
    assert main(["run", write_config(tmp_path, "s.json", cfg), "--out-dir", str(tmp_path)]) == 0
    _, _, rows = KINDS[cfg["kind"]][0](cfg, cfg["field"]["p"], None)
    with open(tmp_path / "s.series.csv", newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["m", "t", "value_num", "value_den", "normalized"]
    assert got[1:] == [[str(m), t, num, den, repr(x)] for m, t, num, den, x in rows]
    assert [float(row[4]) for row in got[1:]] == [row[4] for row in rows]
    if cfg["kind"] == "diff":
        assert any(row[1].startswith("-") and row[2].startswith("-") for row in got[1:])


def test_rational_strings_are_integers_or_num_den():
    for text, want in [("3", 3), ("-3", -3), ("+3/4", Fraction(3, 4)), ("-6/4", Fraction(-3, 2))]:
        assert parse_rational(text, "x") == want
    for text in ["1.5", "1e3", "1e30000000", "1/2.0", " 1/2", "1/-2", "1_000", "inf", "nan", ""]:
        with pytest.raises(ConfigError, match="expected an integer or 'num/den'"):
            parse_rational(text, "x")
    with pytest.raises(ConfigError, match="bad rational '1/0'"):
        parse_rational("1/0", "x")


@pytest.mark.parametrize(
    "name, where, q",
    [("dirac-point-huge-radius", "point.q", 10**8), ("tree-row-huge-radius", "metric.tree[1].q", 10**12)],
)
def test_huge_radius_names_the_row(tmp_path, capsys, name, where, q):
    cfg = write_config(tmp_path, f"{name}.json", DOMAIN_ERROR_CFGS[name])
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
    want = f"validation error: {where}: radius exponent {q} exceeds {MAX_RADIUS_EXPONENT}\n"
    assert capsys.readouterr().err == want


@pytest.mark.parametrize(
    "name, where",
    [
        ("metric-d-true", "metric.d"),
        ("fekete-m-true", "m"),
        ("m-range-list-true", "m_range"),
        ("m-range-start-true", "m_range.start"),
        ("m-range-stop-true", "m_range.stop"),
        ("m-range-step-true", "m_range.step"),
        ("field-p-true", "field.p"),
        ("pair-numerator-true", "pool"),
        ("pair-denominator-true", "t_grid"),
    ],
)
def test_boolean_is_not_an_integer(tmp_path, capsys, name, where):
    cfg = write_config(tmp_path, f"{name}.json", DOMAIN_ERROR_CFGS[name])
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"validation error: {where}: expected an integer, got True\n"


def test_radius_cap_is_inclusive(tmp_path, capsys):
    base = DOMAIN_ERROR_CFGS["dirac-point-huge-radius"]
    at_cap = write_config(tmp_path, "cap.json", dict(base, point=[1, 1, MAX_RADIUS_EXPONENT, 1]))
    assert main(["run", at_cap, "--out-dir", str(tmp_path)]) == 0
    above = write_config(tmp_path, "above.json", dict(base, point=[1, 1, 2 * MAX_RADIUS_EXPONENT + 1, 2]))
    assert main(["run", above, "--out-dir", str(tmp_path)]) == 3
    assert "radius exponent" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name, where",
    [
        ("vol-energy-value-overflow", "series m=8 normalized"),
        ("dirac-value-overflow", "results.equilibrium_values[0].value"),
    ],
)
def test_value_beyond_the_float_range_names_the_field(tmp_path, capsys, name, where):
    cfg = write_config(tmp_path, f"{name}.json", DOMAIN_ERROR_CFGS[name])
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    want = f"validation error: {where}: the value is too large for a display decimal\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_value_with_too_many_digits_names_the_field(tmp_path, capsys):
    cfg = write_config(tmp_path, "digits.json", DOMAIN_ERROR_CFGS["vol-energy-too-many-digits"])
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 3
    want = "validation error: results.limit: the value has too many digits to print\n"
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_series_value_with_too_many_digits_names_the_level():
    with pytest.raises(ConfigError, match="^series m=3 value: the value has too many digits"):
        _series_rows([(3, Fraction(10**5000))], 1)


def test_series_decimal_is_the_float_of_the_normalized_value():
    """The row's decimal, v's numerator over its denominator times m^k, is
    float(v / m**k) bit for bit, and overflows exactly where it does."""
    rng = random.Random(31)
    overflowed = 0
    for _ in range(20000):
        scale = rng.choice([1, 10**rng.randint(1, 40), 2 ** rng.randint(1000, 1030)])
        v = Fraction(rng.randint(-(10**12), 10**12) * scale, rng.randint(1, 10**9))
        m, k = rng.randint(1, 200), rng.choice([1, 2])
        try:
            want = float(v / m**k)
        except OverflowError:
            overflowed += 1
            message = f"^series m={m} normalized: the value is too large for a display decimal"
            with pytest.raises(ConfigError, match=message):
                _series_rows([(m, v)], k)
            continue
        [(_, _, _, _, normalized)] = _series_rows([(m, v)], k)
        assert normalized == want and repr(normalized) == repr(want), (v, m, k)
    assert overflowed > 500


def test_huge_value_with_a_small_result_runs(tmp_path):
    # the exact residual is 0, so every display decimal exists
    cfg = dict(ORTH_CFG, metric={"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 10**400, 1]]})
    path = write_config(tmp_path, "orth-huge.json", cfg)
    assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "orth-huge.report.json").read_text())
    assert report["results"]["residual"] == {"exact": "0/1", "decimal": 0.0}


def test_huge_degree_is_rejected_before_allocation():
    # Called directly: without the check, the metric would be accepted and a
    # later stage would try to build 10**30 + 1 section coefficients.
    tree = [[0, 1, 0, 1, 0, 1]]
    with pytest.raises(ConfigError, match="section degree"):
        parse_metric({"d": 10**30, "tree": tree}, 2, "metric")
    assert parse_metric({"d": MAX_SECTION_DEGREE, "tree": tree}, 2, "metric").d == MAX_SECTION_DEGREE


def test_section_degree_bounds_the_product_m_times_d(tmp_path, capsys):
    # m and d are each allowed; their product is not.  The pool is too small
    # for the search, so a missing check would surface as another message.
    cfg = {
        "kind": "fekete",
        "field": {"p": 2},
        "metric": {"d": MAX_SECTION_DEGREE // 2, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m": 3,
        "pool": ["0", "1"],
    }
    assert main(["run", write_config(tmp_path, "fk.json", cfg), "--out-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "section degree" in err


# ---------------------------------------------------------------------------
# Fuzzing `berkvol run`: small valid configs of every kind, then mutated.

FUZZ_TREE = [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, -1, 2], [1, 1, 1, 1, -1, 2]]
FUZZ_BASES = [
    {
        "kind": "vol-energy",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": FUZZ_TREE},
        "metric2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": {"start": 1, "stop": 4},
    },
    {
        "kind": "rr",
        "field": {"p": 3},
        "divisor": [[0, 1, 0, 1, 0, 1], [0, 1, 1, 1, 1, 1]],
        "ample": {"d": 1, "tree": FUZZ_TREE},
        "m_range": [1, 2, 3, 4],
    },
    {
        "kind": "diff",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": FUZZ_TREE[:2]},
        "direction": [[0, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1]],
        "t_grid": ["1/8"],
        "m_range": {"start": 1, "stop": 4},
    },
    {
        "kind": "sandwich",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": FUZZ_TREE[:2]},
        "psi1": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1], [1, 1, 1, 1, -1, 1]]},
        "psi2": {"d": 1, "tree": [[0, 1, 0, 1, 0, 1]]},
        "m_range": {"start": 1, "stop": 4},
    },
    {"kind": "orth", "field": {"p": 5}, "metric": {"d": 2, "tree": FUZZ_TREE}},
    {
        "kind": "dirac",
        "field": {"p": 2},
        "metric": {"d": 2, "tree": FUZZ_TREE},
        "point": [0, 1, 2, 1],
    },
    {
        "kind": "fekete",
        "field": {"p": 2},
        "metric": {"d": 1, "tree": FUZZ_TREE},
        "m": 2,
        "pool": ["0", "1", "2", "3", "1/3"],
        "expected_valuation": "0",
    },
]

FUZZ_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 4),
    st.sampled_from(sorted(KINDS) + ["1/2", "-1/3", "0/0", "x", ""]),
)
FUZZ_VALUES = st.recursive(
    FUZZ_LEAVES,
    lambda kids: st.lists(kids, max_size=5)
    | st.dictionaries(
        st.sampled_from(["start", "stop", "step", "d", "tree", "p", "name", "out_dir"]), kids
    ),
    max_leaves=8,
)


def _paths(obj, prefix=()):
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


@st.composite
def mutated_configs(draw):
    cfg = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        paths = list(_paths(cfg))
        if not paths:
            break
        *parents, key = draw(st.sampled_from(paths))
        owner = cfg
        for k in parents:
            owner = owner[k]
        old = owner[key]
        action = draw(st.sampled_from(["replace", "nudge", "delete", "duplicate"]))
        if action == "nudge" and isinstance(old, int) and not isinstance(old, bool):
            owner[key] = min(old + draw(st.integers(-2, 2)), 4)
        elif action == "delete":
            del owner[key]
        elif action == "duplicate" and isinstance(owner, list) and len(owner) < 5:
            owner.insert(key, copy.deepcopy(old))
        else:
            owner[key] = draw(FUZZ_VALUES)
    return cfg


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(cfg=mutated_configs())
@example(cfg=DUPLICATE_DISC_CFGS["gauss-twice"])
@example(cfg=HUGE_P_CFG)
@example(cfg=DOMAIN_ERROR_CFGS["m-range-huge-stop"])
@example(cfg=DOMAIN_ERROR_CFGS["dirac-point-huge-radius"])
@example(cfg=DOMAIN_ERROR_CFGS["tree-row-huge-radius"])
@example(cfg=DOMAIN_ERROR_CFGS["diff-t-grid-zero"])
@example(cfg=DOMAIN_ERROR_CFGS["diff-t-grid-empty"])
@example(cfg=DOMAIN_ERROR_CFGS["metric-d-true"])
@example(cfg=DOMAIN_ERROR_CFGS["fekete-m-true"])
@example(cfg=DOMAIN_ERROR_CFGS["m-range-list-true"])
@example(cfg=DOMAIN_ERROR_CFGS["m-range-start-true"])
@example(cfg=DOMAIN_ERROR_CFGS["m-range-stop-true"])
@example(cfg=DOMAIN_ERROR_CFGS["m-range-step-true"])
@example(cfg=DOMAIN_ERROR_CFGS["field-p-true"])
@example(cfg=DOMAIN_ERROR_CFGS["pair-numerator-true"])
@example(cfg=DOMAIN_ERROR_CFGS["pair-denominator-true"])
@example(cfg=DOMAIN_ERROR_CFGS["diff-t-grid-decimal"])
@example(cfg=DOMAIN_ERROR_CFGS["fekete-pool-exponent"])
@example(cfg=DOMAIN_ERROR_CFGS["vol-energy-value-overflow"])
@example(cfg=DOMAIN_ERROR_CFGS["dirac-value-overflow"])
@example(cfg=DOMAIN_ERROR_CFGS["vol-energy-too-many-digits"])
def test_fuzz_run_never_crashes(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            status = main(["run", str(path), "--out-dir", tmp])
        assert status in (0, 1, 2, 3)
        assert "Traceback" not in err.getvalue()
        if status == 1:
            assert (Path(tmp) / "fuzz.report.json").exists()


def test_each_kind_takes_one_measure_per_metric(tmp_path, monkeypatch):
    """Bench pool configs whose metrics share one vertex set take one
    Laplacian per metric that needs a measure, one leaf-to-root pass per
    volume limit or derivative and none for an envelope whose answer is the
    input, none for an equilibrium metric, which is a closed form, and no
    tree build past parsing (plus the refinement by a dirac point that is
    not a vertex)."""
    import berkvol.cli as cli_module
    import berkvol.metrics as metrics
    import berkvol.tree as tree_module
    from test_bench_reference import corpus  # bench/ read without writing bytecode

    counts = {"laplacian": 0, "pass": 0, "build": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(metrics, "_slope_sums", counted("laplacian", metrics._slope_sums))
    monkeypatch.setattr(metrics, "_leaf_to_root", counted("pass", metrics._leaf_to_root))
    build = counted("build", tree_module.build_tree)
    monkeypatch.setattr(tree_module, "build_tree", build)
    monkeypatch.setattr(cli_module, "build_tree", build)
    # kind: (workload, pool indices, Laplacians, passes, trees parsed)
    expected = {
        "vol-energy": ("lattice-ramified", [0, 3], 2, 2, 2),
        "sandwich": ("lattice-ramified", [1, 4], 3, 2, 3),
        "rr": ("lattice-ramified", [2, 5], 1, 1, 2),
        "diff": ("lattice-wide", [2, 5], 1, 2, 2),
        "dirac": ("envelope-points", [1, 4, 52], 1, 0, 1),  # the point of 52 is a vertex
        "fekete": ("envelope-points", [2, 5], 1, 0, 1),
    }
    for kind, (workload, ks, laplacians, passes, trees) in expected.items():
        for k in ks:
            cfg = corpus.make_config(workload, k)
            assert cfg["kind"] == kind
            path = write_config(tmp_path, f"{kind}-{k}.json", cfg)
            built = trees
            if kind == "dirac":
                p, (c, _, q_num, q_den) = cfg["field"]["p"], cfg["point"]
                vertices = parse_metric(cfg["metric"], p, "metric").tree.vertices
                built += TreePoint(p, Fraction(c), Fraction(q_num, q_den)) not in vertices
            for key in counts:
                counts[key] = 0
            with redirect_stdout(io.StringIO()):
                assert main(["run", path, "--out-dir", str(tmp_path)]) == 0
            assert counts == {"laplacian": laplacians, "pass": passes, "build": built}, (kind, k)
