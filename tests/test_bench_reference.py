"""Every benchmark pool config reproduces the exact fields of its stored
reference, its outputs do not depend on the order of its rows, and its exact
results do not change when an isometry of the disc moves its centers.

The configs come from ``bench/corpus.py`` and the references from
``bench/reference/<workload>.json``; the exact fields of each report are
read with ``bench/reference.read_report``.  Nothing under ``bench/`` is
written.
"""

import contextlib
import copy
import hashlib
import io
import json
import random
import re
import shutil
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from berkvol.cli import main, parse_metric
from berkvol.metrics import is_psh
from berkvol.tree import TreePoint

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
# read bench/ only: no bytecode cache is written next to its modules
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import corpus  # noqa: E402
import reference  # noqa: E402

sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_pool_configs_match_the_bench_reference(tmp_path, workload):
    refs = reference.load(workload)
    for k, ref in enumerate(refs):
        cfg = corpus.make_config(workload, k)
        path = tmp_path / f"{k:04d}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out-{k:04d}"
        with contextlib.redirect_stdout(io.StringIO()):
            status = main(["run", str(path), "--out-dir", str(out)])
        assert status == 0, f"{cfg['name']}: exit status {status}"
        report = reference.read_report(cfg, out)
        assert report is not None, f"{cfg['name']}: no report"
        assert report[0] == ref["exact"], f"{cfg['name']}: exact fields differ from the reference"


def shuffled(cfg, rng):
    """cfg with the rows of every metric tree, the direction, the divisor and
    the Fekete pool in a random order."""
    out = copy.deepcopy(cfg)
    for key, value in out.items():
        if isinstance(value, dict) and "tree" in value:
            rng.shuffle(value["tree"])
        elif key in ("direction", "divisor", "pool"):
            rng.shuffle(value)
    return out


def run_outputs(tmp_path, cfg):
    """Exit status, stdout, stderr and the bytes of every output file of one
    run, each run from the same paths; config_hash, which hashes the raw
    config, is blanked."""
    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(cfg))
    shutil.rmtree(out, ignore_errors=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        status = main(["run", str(path), "--out-dir", str(out)])
    files = {
        f.name: re.sub(rb'"config_hash": "[0-9a-f]*"', b'"config_hash": ""', f.read_bytes())
        for f in sorted(out.iterdir())
    }
    return status, stdout.getvalue(), stderr.getvalue(), files


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_row_and_pool_order_do_not_reach_the_outputs(tmp_path, workload):
    rng = random.Random(workload)
    moved = 0
    for k in range(corpus.pool_size(workload)):
        cfg = corpus.make_config(workload, k)
        want = run_outputs(tmp_path, cfg)
        assert want[3], f"{cfg['name']}: no output"
        for _ in range(2):
            other = shuffled(cfg, rng)
            moved += other != cfg
            assert run_outputs(tmp_path, other) == want, cfg["name"]
    assert moved >= corpus.pool_size(workload)


def affine(a, u):
    """z -> a + u z: for a p-adic integer a and unit u, an isometry of the
    closed unit disc that fixes the Gauss point and keeps every radius."""
    return lambda z: a + u * z


def moved(cfg, gamma):
    """cfg with every center moved by gamma: the rows of every metric tree,
    the direction, the divisor, the dirac point and the Fekete pool."""
    def row(r):
        c = gamma(Fraction(r[0], r[1]))
        return [c.numerator, c.denominator, *r[2:]]

    out = copy.deepcopy(cfg)
    for key, value in out.items():
        if isinstance(value, dict) and "tree" in value:
            value["tree"] = [row(r) for r in value["tree"]]
        elif key in ("direction", "divisor"):
            out[key] = [row(r) for r in value]
        elif key == "point":
            out[key] = row(value)
        elif key == "pool":
            out[key] = [str(gamma(Fraction(x))) for x in value]
    return out


def discs(entries, p, gamma=lambda z: z):
    """{disc moved by gamma: mass or value} of the report entries of a measure
    or of equilibrium values; a disc, not the center that names it."""
    return {
        TreePoint(p, gamma(Fraction(e["center"])), Fraction(e["q"])): (
            Fraction((e["mass"] if "mass" in e else e["value"])["exact"])
        )
        for e in entries
    }


def test_isometries_of_the_disc_do_not_reach_the_exact_outputs(tmp_path):
    """Every pool config, moved by z -> a + u z (a an integer, u a quotient of
    two integers prime to p), keeps its exit status, assertion
    verdicts and series bytes, every scalar result, and its measures and
    equilibrium values as discs moved by the map.  The Fekete optimum's
    valuation, count and target stay; its configuration and empirical
    measure move with the map when the optimum is unique."""
    rng = random.Random(11)
    for workload in sorted(corpus.WORKLOADS):
        for k in range(corpus.pool_size(workload)):
            cfg = corpus.make_config(workload, k)
            p = cfg["field"]["p"]
            units = [n for n in range(1, 4 * p) if n % p]
            a, u = rng.randrange(p**3), Fraction(rng.choice(units), rng.choice(units))
            gamma = affine(a, u)
            want, got = run_outputs(tmp_path, cfg), run_outputs(tmp_path, moved(cfg, gamma))
            name = cfg["name"]
            assert want[0] == got[0] == 0, name
            series = f"{name}.series.csv"
            assert want[3].get(series) == got[3].get(series), name
            before, after = (json.loads(out[3][f"{name}.report.json"]) for out in (want, got))
            verdicts = [[(x["name"], x["passed"]) for x in r["assertions"]] for r in (before, after)]
            assert verdicts[0] == verdicts[1], name
            before, after = before["results"], after["results"]
            if cfg["kind"] == "dirac":
                for key in ("measure", "equilibrium_values"):
                    assert discs(before[key], p, gamma) == discs(after[key], p), (name, key)
            elif cfg["kind"] == "fekete":
                for key in ("best_valuation", "n_optima"):
                    assert before[key] == after[key], (name, key)
                assert discs(before["target"], p, gamma) == discs(after["target"], p), name
                if before["n_optima"] == 1:
                    assert discs(before["empirical"], p, gamma) == discs(after["empirical"], p), name
                    assert {gamma(Fraction(x)) for x in before["best_config"]} == {
                        Fraction(x) for x in after["best_config"]
                    }, name
            else:
                assert before == after, name


#: SHA-256 over the outputs of every pool config (see the test below).  A
#: change that alters any output on purpose updates this constant and says so.
POOL_OUTPUTS_SHA256 = "6a02a5fbb90260d845d804d79abfc31661c0852e9e58fb16600f5f7fda74cf09"


def test_pool_outputs_match_the_recorded_digest(tmp_path):
    """Exit status, stdout, stderr and every output file's bytes of each pool
    config, in workload and pool order, hash to one recorded value: display
    decimals, assertion details and messages are pinned too, not only the
    exact fields.  The temporary directory is blanked wherever it appears."""
    digest = hashlib.sha256()
    for workload in sorted(corpus.WORKLOADS):
        for k in range(corpus.pool_size(workload)):
            out = repr(run_outputs(tmp_path, corpus.make_config(workload, k)))
            digest.update(out.replace(str(tmp_path), "").encode())
    assert digest.hexdigest() == POOL_OUTPUTS_SHA256


#: SHA-256 over the outputs of the pool's vol-energy and diff configs with
#: every metric made non-psh (see the test below), recorded like the one above.
NON_PSH_OUTPUTS_SHA256 = "a9165004b302b9aecf9d75f15b5dadd6a3905c56953c619e12cb2228f7ae7146"


def raised_leaf(metric):
    """The config metric with its deepest vertex, a leaf, set to the root's
    value + 1: its value rises along the edge into it, so it carries negative
    mass and the metric is not psh."""
    out = copy.deepcopy(metric)
    rows = out["tree"]
    root = next((Fraction(r[4], r[5]) for r in rows if r[2] == 0), Fraction(0))
    deepest = max(rows, key=lambda r: Fraction(r[2], r[3]))
    deepest[4:6] = [(root + 1).numerator, (root + 1).denominator]
    return out


def test_non_psh_outputs_match_the_recorded_digest(tmp_path):
    """The pool's metrics are all psh, so POOL_OUTPUTS_SHA256 runs no obstacle
    solve in vol-energy or diff.  Each of those configs, with every metric
    given a raised leaf, runs it on every metric; outputs are hashed as above."""
    digest = hashlib.sha256()
    runs = 0
    for workload in sorted(corpus.WORKLOADS):
        for k in range(corpus.pool_size(workload)):
            cfg = corpus.make_config(workload, k)
            if cfg["kind"] not in ("vol-energy", "diff"):
                continue
            for key in ("metric", "metric2"):
                if key in cfg:
                    cfg[key] = raised_leaf(cfg[key])
                    assert not is_psh(parse_metric(cfg[key], cfg["field"]["p"], key))
            out = run_outputs(tmp_path, cfg)
            assert out[0] == 0, cfg["name"]
            digest.update(repr(out).replace(str(tmp_path), "").encode())
            runs += 1
    assert runs == 85
    assert digest.hexdigest() == NON_PSH_OUTPUTS_SHA256
