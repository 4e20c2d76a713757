"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/compare.py BASE.jsonl NEW.jsonl

Both files are ``suite.py --out`` records.  For every workload and every
end-to-end metric it prints each side's median and spread (the distance
between the quartiles as a share of the median, from
``statistics.quantiles(values, n=4)``) and a verdict:

* ``worse``: NEW's median is worse than BASE's by more than the bound;
* ``unresolved``: not worse, but a side's spread exceeds the bound
  (``setup_s`` is exempt from the spread test);
* ``ok``: neither.

Per-layer metrics from traced runs are listed with their ratio NEW/BASE;
they have no bound.  Exit status 1 if any metric is ``worse`` or any run in
either file is not correct.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str):
    runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
    vals = defaultdict(list)
    bad = 0
    for r in runs:
        res = r["result"]
        if res is None or not res["correct"]:
            bad += 1
            continue
        for name, m in res["metrics"].items():
            vals[r["workload"], name].append(m["value"])
    return vals, bad


def spread(vs):
    if len(vs) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(vs, n=4)
    return (q3 - q1) / statistics.median(vs)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, bad_base = load(sys.argv[1])
    new, bad_new = load(sys.argv[2])
    worse = 0
    print(f"{'workload':18} {'metric':16} {'base':>12} {'spread':>7} {'new':>12} {'spread':>7} "
          f"{'worse by':>8} {'bound':>6}  verdict")
    for wl in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            b, n = base.get((wl, m["name"])), new.get((wl, m["name"]))
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            by = (mn - mb) / mb if m["better"] == "lower" else (mb - mn) / mb
            sb, sn = spread(b), spread(n)
            if by > m["bound"]:
                verdict = "worse"
                worse += 1
            elif m["name"] != "setup_s" and max(sb, sn) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{wl:18} {m['name']:16} {mb:12.6g} {sb:7.3f} {mn:12.6g} {sn:7.3f} "
                  f"{by:8.3f} {m['bound']:6.2f}  {verdict}")
    layer = sorted(k for k in base if k in new and k[1] not in {e["name"] for e in bench["end_to_end"]})
    if layer:
        print(f"\n{'workload':18} {'per-layer metric':38} {'base':>12} {'new':>12} {'new/base':>9}")
        for wl, name in layer:
            mb, mn = statistics.median(base[wl, name]), statistics.median(new[wl, name])
            r = f"{mn / mb:9.3f}" if mb else f"{'-':>9}"
            print(f"{wl:18} {name:38} {mb:12.6g} {mn:12.6g} {r}")
    print(f"\nruns not correct: base {bad_base}, new {bad_new}; metrics worse: {worse}")
    return 1 if worse or bad_base or bad_new else 0


if __name__ == "__main__":
    sys.exit(main())
