"""Run the berkvol benchmark over workloads and seeds; print every metric.

    python3 bench/suite.py [--workloads W ...] [--seeds 1 2 ...] [--trace 0 1]
                           [--seconds S] [--out RUNS.jsonl]

Each run is one ``bench/run.py`` process, started one after another.  Every
metric is printed by name with its unit (median, and min..max over seeds),
and the correctness check is each run's own: the command exits 1 if a run
fails, reports ``correct: false``, or a traced run's self-check fails.
``--out`` appends one JSON line per run, the input of ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    rec = {"workload": workload, "seed": seed, "trace": trace, "exit": proc.returncode,
           "notes": [ln for ln in lines if ln.startswith("#")]}
    try:
        rec["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        rec["result"] = None
        rec["stderr"] = proc.stderr[-2000:]
    return rec


def ok(rec: dict) -> bool:
    res = rec["result"]
    return (rec["exit"] == 0 and res is not None and res["correct"] and res["failed"] == 0
            and not any("FAIL" in n and "selfcheck" in n for n in rec["notes"]))


def main() -> int:
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 2])
    ap.add_argument("--trace", nargs="+", type=int, choices=(0, 1), default=[0, 1])
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    records = []
    for workload in args.workloads:
        for trace in args.trace:
            for seed in args.seeds:
                rec = run_one(workload, seed, args.seconds, trace)
                records.append(rec)
                status = "ok" if ok(rec) else "FAILED"
                print(f"{workload} seed={seed} trace={trace}: {status}", flush=True)
                for note in rec["notes"]:
                    if "FAIL" in note or "assert_fail_ratio" in note or "tail" in note:
                        print(f"    {note}")
                if rec["result"] is None:
                    print(rec.get("stderr", ""))
                if args.out:
                    with open(args.out, "a") as fh:
                        fh.write(json.dumps(rec) + "\n")

    values = defaultdict(list)
    units = {}
    for rec in records:
        if rec["result"] is None:
            continue
        for name, m in rec["result"]["metrics"].items():
            values[rec["workload"], name].append(m["value"])
            units[name] = m["unit"]
    print(f"\n{'workload':18} {'metric':38} {'median':>14} {'min..max':>27} unit")
    for (workload, name), vs in values.items():
        print(f"{workload:18} {name:38} {statistics.median(vs):14.6g} "
              f"{min(vs):12.6g}..{max(vs):<13.6g} {units[name]}")
    bad = [r for r in records if not ok(r)]
    print(f"\n{len(records) - len(bad)}/{len(records)} runs correct")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
