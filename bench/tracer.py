"""Out-of-package tracing for the berkvol benchmark.

``Tracer.install()`` wraps public functions of each berkvol module, from the
benchmark's own files: the package is not edited.  A function is replaced
at every binding site, i.e. in every berkvol module whose namespace holds
the same function object (``sections.intersect``, ``volumes.vol_m``, the
re-exports in ``berkvol/__init__``, ...), and methods are replaced on their
class.  ``uninstall()`` restores every original.

Two kinds of wrapper:

* a *span* records ``(id, parent, request, name, start, end, attrs)`` in
  memory; ``request`` is the id of the enclosing ``cli.main`` span, so all
  spans of one config share it;
* a *count* only increments a counter.  Field arithmetic and PL-function
  evaluation run millions of times, so they get counts, not spans, and
  their time lands in the self time of the enclosing span.

Attributes that cost real work to compute (the ramification index of a
``vol_m`` call) are computed after the span ends, inside a ``trace.attrs``
span, so that the time is not charged to any layer.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT_ID = 0


def _vol_m_attrs(phi, psi, m, M=None):
    if M is None:
        required = sys.modules["berkvol.sections"].required_ramification
        M = math.lcm(required(phi, m), required(psi, m))
    return {"m": m, "N": m * phi.d + 1, "M": M}


# (module, attribute, kind, attrs).  kind is "span", "span-costly-attrs"
# (attrs computed inside a trace.attrs span) or "count:<counter>"; attrs maps
# the call's arguments to the span's size attributes.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("cli", "main", "span", None),
    ("cli", "parse_metric", "span", None),
    ("cli", "parse_pl_function", "span", None),
    ("cli", "parse_point", "span", None),
    ("cli", "parse_m_range", "span", None),
    ("experiments", "diff_experiment", "span", None),
    ("experiments", "sandwich_check", "span", None),
    ("experiments", "orthogonality_experiment", "span", None),
    ("experiments", "dirac_experiment", "span", None),
    ("experiments", "fekete_experiment", "span", None),
    ("experiments", "_add_direction", "span", None),
    ("volumes", "check_vol_equals_energy", "span", None),
    ("volumes", "rr_slope_experiment", "span", None),
    ("volumes", "vol_limit", "span", None),
    ("volumes", "affine_fit", "span", None),
    ("volumes", "rr_content", "span", None),
    ("sections", "vol_m", "span-costly-attrs", _vol_m_attrs),
    ("sections", "sup_norm_lattice", "span",
     lambda phi, m, ctx, extra=None: {"N": m * phi.d + 1, "M": ctx.M}),
    ("sections", "diagonal_weights", "span", lambda phi, m, extra=None: {"N": m * phi.d + 1}),
    ("sections", "vandermonde_value", "span", lambda pts, phi, m: {"N": len(pts)}),
    ("lattices", "intersect", "span", None),
    ("lattices", "Lattice.__post_init__", "span", None),
    ("lattices", "Lattice.det_valuation", "span", None),
    ("linalg", "smith", "span", lambda A: {"rows": len(A), "cols": len(A[0])}),
    ("linalg", "det_valuation", "span", lambda A: {"n": len(A)}),
    ("linalg", "mat_mul", "span", lambda A, B: {"rows": len(A), "inner": len(B), "cols": len(B[0])}),
    ("metrics", "envelope", "span", None),
    ("metrics", "equilibrium_metric", "span", None),
    ("metrics", "energy", "span", None),
    ("simplex", "maximize", "span", lambda c, A, b: {"rows": len(A), "cols": len(c)}),
    ("tree", "build_tree", "span", None),
    ("tree", "PLFunction.evaluate", "count:tree.evaluate", None),
    ("tree", "PLFunction.evaluate_center", "count:tree.evaluate", None),
    ("field", "FieldElement.__mul__", "count:field.mul", None),
    ("field", "FieldElement.__add__", "count:field.add_sub", None),
    ("field", "FieldElement.__sub__", "count:field.add_sub", None),
    ("field", "FieldElement.inverse", "count:field.inverse", None),
    ("field", "FieldElement.valuation", "count:field.valuation", None),
]

#: Layers, in report order; a layer's activity is its span and count total.
LAYERS = ["cli", "experiments", "volumes", "sections", "lattices", "linalg", "field",
          "metrics", "simplex", "tree"]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack = [ROOT_ID]
        self._ids = itertools.count(1)
        self._undo: List[Tuple[object, str, object]] = []
        self.t0 = time.perf_counter()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name: str, fn: Callable, attrs: Optional[Callable], costly: bool) -> Callable:
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            request = stack[1] if len(stack) > 1 else sid
            stack.append(sid)
            start = clock()
            ok = False
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                stack.pop()
                info = None
                if ok and attrs is not None:
                    info = attrs(*args, **kwargs)
                    if costly:
                        spans.append((next(ids), parent, request, "trace.attrs", end, clock(), None))
                spans.append((sid, parent, request, name, start, end, info))

        traced.__wrapped__ = fn
        return traced

    def _count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items()) if n == "berkvol" or n.startswith("berkvol.")]
        for module, attr, kind, attrs in TARGETS:
            mod = sys.modules.get(f"berkvol.{module}")
            owner_name, _, fname = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, fname, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{module}.{attr}")
                continue
            if kind.startswith("count:"):
                wrapper = self._count(kind[len("count:"):], orig)
            else:
                name = f"{module}.{attr}"
                wrapper = self._span(name, orig, attrs, kind == "span-costly-attrs")
            if owner_name:
                self._undo.append((owner, fname, owner.__dict__[fname]))
                setattr(owner, fname, wrapper)
                continue
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as JSON lines, times in seconds from tracer creation."""
        with open(path, "w") as fh:
            for sid, parent, request, name, start, end, info in self.spans:
                rec = {"id": sid, "parent": parent, "request": request, "name": name,
                       "start": round(start - self.t0, 9), "end": round(end - self.t0, 9)}
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")

    def layer_activity(self) -> Dict[str, int]:
        act = {layer: 0 for layer in LAYERS}
        for *_, name, _s, _e, _i in self.spans:
            layer = name.split(".", 1)[0]
            if layer in act:
                act[layer] += 1
        for name, n in self.counts.items():
            act[name.split(".", 1)[0]] += n
        return act

    def summary(self) -> Dict[str, float]:
        """Per-layer metrics aggregated from the spans and counts."""
        child = defaultdict(float)
        names = {}
        for sid, parent, _r, name, start, end, _i in self.spans:
            child[parent] += end - start
            names[sid] = name
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        info_sum = defaultdict(float)
        info_max = defaultdict(float)
        useful_dets = parse_s = 0
        vol_m_with_lattice = set()
        for sid, parent, _r, name, start, end, info in self.spans:
            dur = end - start
            calls[name] += 1
            incl[name] += dur
            self_s[name] += dur - child[sid]
            pname = names.get(parent, "")
            if name == "linalg.det_valuation" and pname == "lattices.Lattice.det_valuation":
                useful_dets += 1
            if name == "sections.sup_norm_lattice" and pname == "sections.vol_m":
                vol_m_with_lattice.add(parent)
            if name.startswith("cli.parse_") and not pname.startswith("cli.parse_"):
                parse_s += dur
            for key, value in (info or {}).items():
                info_sum[name, key] += value
                info_max[name, key] = max(info_max[name, key], value)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        return {
            "field.mul.calls": c["field.mul"],
            "field.add_sub.calls": c["field.add_sub"],
            "field.inverse.calls": c["field.inverse"],
            "field.valuation.calls": c["field.valuation"],
            "linalg.smith.calls": calls["linalg.smith"],
            "linalg.smith.s": incl["linalg.smith"],
            "linalg.smith.rows_sum": info_sum["linalg.smith", "rows"],
            "linalg.det_valuation.calls": calls["linalg.det_valuation"],
            "linalg.det_valuation.s": incl["linalg.det_valuation"],
            "linalg.det_valuation.useful_ratio": ratio(useful_dets, calls["linalg.det_valuation"]),
            "linalg.mat_mul.s": incl["linalg.mat_mul"],
            "lattices.Lattice.calls": calls["lattices.Lattice.__post_init__"],
            "lattices.intersect.calls": calls["lattices.intersect"],
            "lattices.intersect.self_s": self_s["lattices.intersect"],
            "sections.vol_m.calls": calls["sections.vol_m"],
            "sections.vol_m.lattice_ratio": ratio(len(vol_m_with_lattice), calls["sections.vol_m"]),
            "sections.sup_norm_lattice.self_s": self_s["sections.sup_norm_lattice"],
            "sections.sup_norm_lattice.N_sum": info_sum["sections.sup_norm_lattice", "N"],
            "sections.sup_norm_lattice.M_max": info_max["sections.sup_norm_lattice", "M"],
            "sections.diagonal_weights.s": incl["sections.diagonal_weights"],
            "sections.vandermonde_value.s": incl["sections.vandermonde_value"],
            "volumes.vol_limit.self_s": self_s["volumes.vol_limit"],
            "volumes.affine_fit.s": incl["volumes.affine_fit"],
            "volumes.rr_content.calls": calls["volumes.rr_content"],
            "metrics.envelope.calls": calls["metrics.envelope"],
            "metrics.envelope.self_s": self_s["metrics.envelope"],
            "metrics.equilibrium_metric.self_s": self_s["metrics.equilibrium_metric"],
            "simplex.maximize.calls": calls["simplex.maximize"],
            "simplex.maximize.s": incl["simplex.maximize"],
            "simplex.lp_size_sum": sum(
                i["rows"] * i["cols"] for *_, n, _s, _e, i in self.spans if n == "simplex.maximize" and i
            ),
            "tree.build_tree.calls": calls["tree.build_tree"],
            "tree.build_tree.s": incl["tree.build_tree"],
            "tree.evaluate.calls": c["tree.evaluate"],
            "cli.self_s": self_s["cli.main"],
            "cli.parse_s": parse_s,
            "experiments.self_s": sum(v for k, v in self_s.items() if k.startswith("experiments.")),
        }

    def vol_m_sizes(self) -> Counter:
        """How many vol_m calls ran at each (M, N)."""
        return Counter((i["M"], i["N"]) for *_, n, _s, _e, i in self.spans if n == "sections.vol_m" and i)
