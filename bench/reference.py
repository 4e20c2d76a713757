"""Exact fields of a berkvol report, and the stored reference for each pool config.

The exact fields are the rationals that no valid optimisation may change:
series values ``value_num/value_den``, energies, pairing targets, the
orthogonality residual, Dirac measures and equilibrium values, and the
Fekete optimum.  Extrapolated estimates, their error bounds and assertion
flags are deliberately left out: an exact-limit or better-fit change may
move them legitimately, and the benchmark reports assertion outcomes as
``experiments.assert_fail_ratio`` instead.

``python3 bench/reference.py [WORKLOAD ...]`` runs every pool config of the
named workloads (all by default) through ``berkvol run`` and rewrites
``bench/reference/<workload>.json``.  Only do that on a commit whose outputs
are trusted.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

#: Keys of report["results"] that are exact, per experiment kind.
EXACT_RESULTS: Dict[str, List[str]] = {
    "vol-energy": ["energy"],
    "sandwich": ["lower", "upper"],
    "rr": ["target"],
    "diff": ["target"],
    "orth": ["residual"],
    "dirac": ["measure", "equilibrium_values"],
    "fekete": ["best_valuation", "best_config", "n_optima", "empirical", "target", "tv_distance"],
}


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _drop_decimals(obj: Any) -> Any:
    """Keep the exact "num/den" of every fmt_rational and drop its float."""
    if isinstance(obj, dict):
        if set(obj) == {"exact", "decimal"}:
            return obj["exact"]
        return {k: _drop_decimals(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_drop_decimals(v) for v in obj]
    return obj


def read_report(cfg: dict, out_dir: Path) -> Optional[Tuple[dict, int, int]]:
    """(exact fields, failed assertions, assertions) of the report `berkvol run`
    wrote for cfg, or None if there is none."""
    report_path = out_dir / f"{cfg['name']}.report.json"
    if not report_path.is_file():
        return None
    report = json.loads(report_path.read_text())
    results = report["results"]
    exact = {k: _drop_decimals(results[k]) for k in EXACT_RESULTS[cfg["kind"]]}
    series = out_dir / f"{cfg['name']}.series.csv"
    if series.is_file():
        with open(series, newline="") as fh:
            exact["series"] = [
                [r["t"], r["m"], r["value_num"], r["value_den"]] for r in csv.DictReader(fh)
            ]
    asserts = report["assertions"]
    return exact, sum(not a["passed"] for a in asserts), len(asserts)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> List[dict]:
    """Stored entries {"hash", "exact"} indexed by pool position.

    Raises ValueError when the stored pool no longer matches the generator.
    """
    entries = json.loads(reference_path(workload).read_text())["configs"]
    if len(entries) != corpus.pool_size(workload):
        raise ValueError(f"{workload}: reference holds {len(entries)} configs, pool has "
                         f"{corpus.pool_size(workload)}")
    for k, entry in enumerate(entries):
        if entry["hash"] != config_hash(corpus.make_config(workload, k)):
            raise ValueError(f"{workload}: config {k} differs from the one the reference was made from")
    return entries


def write(workload: str, work: Path) -> None:
    sys.path.insert(0, str(SRC))
    from berkvol import cli

    entries, total = [], 0.0
    for k in range(corpus.pool_size(workload)):
        cfg = corpus.make_config(workload, k)
        path = work / f"{k:04d}.json"
        path.write_text(json.dumps(cfg))
        out = work / f"out-{k:04d}"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(["run", str(path), "--out-dir", str(out)])
        total += time.perf_counter() - t0
        report = read_report(cfg, out)
        if status not in (0, 1) or report is None:
            raise SystemExit(f"{workload} config {k}: exit status {status}, no reference written")
        entries.append({"hash": config_hash(cfg), "exact": report[0]})
    REFERENCE_DIR.mkdir(exist_ok=True)
    reference_path(workload).write_text(
        json.dumps({"workload": workload, "configs": entries}, separators=(",", ":")) + "\n"
    )
    print(f"{workload}: {len(entries)} configs, one pass {total:.1f} s")


def main() -> None:
    names = sys.argv[1:] or sorted(corpus.WORKLOADS)
    work = ROOT / ".bench_work" / "reference"
    for name in names:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            write(name, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
