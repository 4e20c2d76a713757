"""Every benchmark pool config reproduces the exact fields of its stored reference.

The configs come from ``bench/corpus.py`` and the references from
``bench/reference/<workload>.json``; the exact fields of each report are
read with ``bench/reference.read_report``.  Nothing under ``bench/`` is
written.
"""

import contextlib
import io
import json
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
