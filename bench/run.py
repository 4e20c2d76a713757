"""Run one berkvol benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a source checkout: the package is imported from ``src/`` next
to this directory, never from an installed copy.

One process, one client, closed loop: every config of the workload's pool
(``corpus.py``) is driven through ``berkvol.cli.main(["run", cfg,
"--out-dir", dir])`` in this process, with the default ``--threads``, and
the next config starts when the previous one returns.  The seed fixes the
order in which the pool is visited.

``--trace 0`` times whole passes over the pool, as many as bring the run
closest to ``--seconds`` of wall time, and reports the end-to-end metrics
over the pool's configs, each config timed by the median of its passes.
``--trace 1`` makes one untraced and one traced pass, reports the per-layer
metrics (``tracer.py``) and writes the spans to
``.bench_work/trace-<workload>-seed<N>.jsonl``.

Every time reported is scaled to reference speed (``calibrate.py``): the
host this was built on drifts by tens of percent within a minute.  Raw wall
times are printed on the ``#`` lines.

Every report is checked against ``bench/reference/<workload>.json``.  A
config fails if ``main`` raises, exits with a status other than 0 or 1,
writes no report, or writes exact fields that differ from the reference.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import corpus
import reference
from calibrate import K_REF, Speedometer
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters that time `import berkvol.cli`, then the calibration
#: kernel; the first one only writes the bytecode cache and is not counted.
SETUP_PROBES = 11
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import berkvol.cli
t1 = time.perf_counter()
if not berkvol.cli.__file__.startswith(sys.argv[1]):
    sys.exit("imported berkvol from outside the checkout")
sys.path.insert(0, sys.argv[2])
import calibrate, statistics
print(t1 - t0, statistics.median(calibrate.kernel_time() for _ in range(5)))
"""

#: Layers each workload must exercise, and layers it must bypass.
LAYER_CHECKS = {
    "lattice-ramified": (["field", "lattices", "sections", "linalg"], []),
    "lattice-wide": (["linalg", "lattices", "sections"], []),
    "diagonal-series": (["sections", "volumes"], ["field", "linalg", "lattices"]),
    "envelope-points": (["metrics", "simplex", "tree", "cli", "experiments", "sections"],
                        ["field", "linalg", "lattices"]),
}


@dataclass
class Execution:
    index: int  # position in its pass sequence, for the speedometer
    k: int  # pool index
    out: Path
    status: Optional[int]
    latency: float
    error: str = ""


def measure_setup() -> Tuple[float, float]:
    """Median import time of berkvol.cli, (scaled, raw)."""
    scaled, raw = [], []
    for i in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        t, k = map(float, proc.stdout.split())
        if i:
            scaled.append(t * K_REF / k)
            raw.append(t)
    return statistics.median(scaled), statistics.median(raw)


def execute(cli, cfg_path: Path, index: int, k: int, out: Path) -> Execution:
    sink = io.StringIO()
    status, error = None, ""
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            status = cli.main(["run", str(cfg_path), "--out-dir", str(out)])
        except SystemExit as e:
            status, error = e.code, f"SystemExit({e.code})"
        except Exception as e:  # a traceback is a failed config, not a crashed benchmark
            error = f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - start
    if status not in (0, 1) and not error:
        error = f"exit status {status}: {sink.getvalue().strip()[:200]}"
    return Execution(index, k, out, status, latency, error)


def run_pass(cli, order: List[int], cfg_paths: List[Path], out_root: Path,
             speed: Speedometer, start: int = 0) -> List[Execution]:
    execs: List[Execution] = []
    for i, k in enumerate(order, start):
        speed.before(i, execs[-1].latency if execs else 0.0)
        execs.append(execute(cli, cfg_paths[k], i, k, out_root / f"{i:05d}"))
    return execs


def timed_passes(cli, args, cfg_paths, out_root, speed):
    """Whole passes, each in its own seeded order, stopping at the pass
    boundary nearest `args.seconds` of wall time."""
    execs: List[Execution] = []
    t0 = time.perf_counter()
    for p in itertools.count():
        order = corpus.corpus_order(args.workload, args.seed, p)
        execs += run_pass(cli, order, cfg_paths, out_root, speed, len(execs))
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / (p + 1) / 2 >= args.seconds:
            return execs, elapsed


def check(execs: List[Execution], configs: List[dict], refs: List[dict]):
    """(failures, exact fields per execution, failed assertions, assertions)."""
    failures, exact, a_fail, a_total = [], [], 0, 0
    for ex in execs:
        cfg = configs[ex.k]
        report = None if ex.error else reference.read_report(cfg, ex.out)
        exact.append(report and report[0])
        if ex.error:
            failures.append(f"{cfg['name']}: {ex.error}")
        elif report is None:
            failures.append(f"{cfg['name']}: no report")
        else:
            if report[0] != refs[ex.k]["exact"]:
                failures.append(f"{cfg['name']}: exact fields differ from the reference")
            a_fail += report[1]
            a_total += report[2]
    return failures, exact, a_fail, a_total


def quantile(xs: List[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  It estimates the same quantile
    as a single order statistic, with less run-to-run noise."""
    xs = sorted(xs)
    n = len(xs)
    if p >= 1:
        return xs[-1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 200 * n
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = [0.0] * n
    for j in range(steps):
        x = (j + 0.5) / steps
        weights[j * n // steps] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, xs)) / sum(weights)


def tail_percentile(n: int) -> float:
    """The highest percentile of n samples with at least 10 samples beyond it
    (the maximum when there are not that many)."""
    return (n - 10) / n if n > 10 else 1.0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def selfcheck(workload: str, tracer: Tracer) -> List[str]:
    """Layers this workload must reach (nonzero) and must bypass (zero)."""
    act = tracer.layer_activity()
    need, bypass = LAYER_CHECKS[workload]
    lines = [f"missing patch target {name}: FAIL" for name in tracer.missing]
    lines += [f"{layer} active ({act[layer]}): {'ok' if act[layer] else 'FAIL'}" for layer in need]
    lines += [f"{layer} bypassed ({act[layer]}): {'ok' if not act[layer] else 'FAIL'}" for layer in bypass]
    return lines


def end_to_end(args, cli, configs, cfg_paths, refs, work, setup):
    speed = Speedometer()
    execs, wall = timed_passes(cli, args, cfg_paths, work / "out", speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures, _, a_fail, a_total = check(execs, configs, refs)
    per_config = defaultdict(list)
    for e in execs:
        per_config[e.k].append(e.latency * speed.scale(e.index))
    lat = [statistics.median(v) for v in per_config.values()]
    tail_p = tail_percentile(len(lat))
    metrics = {
        "configs_per_s": metric(len(lat) / sum(lat), "1/s"),
        "config_p50_s": metric(quantile(lat, 0.5), "s"),
        "config_tail_s": metric(quantile(lat, tail_p), "s"),
        "setup_s": metric(setup[0], "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    n = len(configs)
    print(f"# {args.workload} seed={args.seed}: {len(execs) // n} passes over {n} configs "
          f"in {wall:.3f} s wall; median kernel {speed.median_kernel() * 1e3:.3f} ms "
          f"(reference {K_REF * 1e3:.3f} ms)")
    print(f"# raw: configs_per_s {len(execs) / wall:.6g}, import {setup[1]:.6g} s")
    print(f"# config_tail_s is p{100 * tail_p:.2f} of {n} per-config medians (10 lie beyond it)")
    return metrics, failures, True, len(execs), a_fail, a_total


def per_layer(args, cli, order, configs, cfg_paths, refs, work):
    plain_speed, traced_speed = Speedometer(), Speedometer()
    plain = run_pass(cli, order, cfg_paths, work / "plain", plain_speed)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(cli, order, cfg_paths, work / "traced", traced_speed)
    finally:
        tracer.uninstall()
    failures, plain_exact, _, _ = check(plain, configs, refs)
    traced_failures, traced_exact, a_fail, a_total = check(traced, configs, refs)
    failures += traced_failures
    same = plain_exact == traced_exact
    plain_s = sum(e.latency * plain_speed.scale(e.index) for e in plain)
    traced_s = sum(e.latency * traced_speed.scale(e.index) for e in traced)
    scale = K_REF / traced_speed.median_kernel()
    layer = {k: v * scale if unit_of(k) == "s" else v for k, v in tracer.summary().items()}
    layer["experiments.assert_fail_ratio"] = a_fail / a_total if a_total else 0.0
    layer["trace.overhead_ratio"] = traced_s / plain_s
    metrics = {k: metric(float(v), unit_of(k)) for k, v in layer.items()}
    trace_path = ROOT / ".bench_work" / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(trace_path)
    print(f"# {args.workload} seed={args.seed}: one untraced and one traced pass over "
          f"{len(configs)} configs, {sum(e.latency for e in plain):.3f} s and "
          f"{sum(e.latency for e in traced):.3f} s wall; spans in {trace_path.relative_to(ROOT)}")
    sizes = tracer.vol_m_sizes()
    if sizes:
        by_M = Counter()
        for (M, _), c in sizes.items():
            by_M[M] += c
        Ns = [N for _, N in sizes]
        print(f"# vol_m: {sum(sizes.values())} calls, N = md+1 in [{min(Ns)}, {max(Ns)}], "
              "calls by M: " + ", ".join(f"M={M} x{c}" for M, c in sorted(by_M.items())))
    print(f"# selfcheck traced exact fields equal untraced: {'ok' if same else 'FAIL'}")
    for line in selfcheck(args.workload, tracer):
        print(f"# selfcheck {line}")
    return metrics, failures, same, len(plain) + len(traced), a_fail, a_total


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one berkvol benchmark workload.")
    ap.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "berkvol" / "__init__.py").is_file():
        print(f"error: no berkvol sources under {SRC}", file=sys.stderr)
        return 2
    try:
        refs = reference.load(args.workload)
    except (OSError, ValueError) as e:
        print(f"error: reference unusable: {e}", file=sys.stderr)
        return 2

    setup = measure_setup()
    sys.path.insert(0, str(SRC))
    from berkvol import cli

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cfg").mkdir(parents=True)
    try:
        n = corpus.pool_size(args.workload)
        configs = [corpus.make_config(args.workload, k) for k in range(n)]
        cfg_paths = [work / "cfg" / f"{k:04d}.json" for k in range(n)]
        for cfg, path in zip(configs, cfg_paths):
            path.write_text(json.dumps(cfg))
        order = corpus.corpus_order(args.workload, args.seed)
        execute(cli, cfg_paths[order[0]], 0, order[0], work / "warmup")
        # The harness's own objects (configs, references) need no collecting:
        # keep them out of the collector's sight so they do not slow the load.
        gc.collect()
        gc.freeze()
        if args.trace == 0:
            result = end_to_end(args, cli, configs, cfg_paths, refs, work, setup)
        else:
            result = per_layer(args, cli, order, configs, cfg_paths, refs, work)
        metrics, failures, same, attempted, a_fail, a_total = result
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.6g}")
    print(f"# assert_fail_ratio {a_fail}/{a_total} = {a_fail / a_total if a_total else 0.0:.6g}")
    for f in failures[:10]:
        print(f"# FAILED {f}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failures and same, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
