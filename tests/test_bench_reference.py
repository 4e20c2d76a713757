"""Every benchmark pool config reproduces the exact fields of its stored
reference, and its outputs do not depend on the order of its rows.

The configs come from ``bench/corpus.py`` and the references from
``bench/reference/<workload>.json``; the exact fields of each report are
read with ``bench/reference.read_report``.  Nothing under ``bench/`` is
written.
"""

import contextlib
import copy
import io
import json
import random
import re
import shutil
import sys
from pathlib import Path

import pytest

from berkvol.cli import main

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
