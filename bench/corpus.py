"""Seeded config corpora for the berkvol benchmark.

Each workload is a fixed pool of configs.  Config k of workload W is drawn
from ``random.Random(f"{W}:{k}")``, so it is the same on every machine and
every run, and each one has a stored reference (see ``reference.py``).  The
run seed only chooses the order in which the pool is visited
(``corpus_order``).

The generator is self-contained: it builds meet-closed trees, psh vertex
values and every rational itself, so the package under test sees nothing but
the JSON it is given.  The two sizes that drive cost are fixed by
construction:

* the ramification index ``M`` of level ``m`` is the lcm of the denominators
  of ``i q_x + m g(x)``; radius exponents ``q`` are drawn from ``(1/a)Z`` and
  psh values from ``(1/(a b))Z`` (Monge-Ampere masses in ``(1/b)Z``), so
  every ``M`` divides ``a b``;
* ``N = m d + 1`` is fixed by the ``m_range`` and the degree ``d``.

Usage: ``python3 bench/corpus.py --workload lattice-wide --seed 3 --out DIR``
writes that seed's corpus, in run order, as ``DIR/<nnnn>.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

Disc = Tuple[int, Fraction]  # (integer center, radius exponent q)


# ---------------------------------------------------------------------------
# Discs of the closed unit disc and their meet-closed trees


def vp(x: int, p: int) -> float:
    """v_p of an integer, with v_p(0) = inf."""
    if x == 0:
        return math.inf
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def canon(p: int, c: int, q: Fraction) -> Disc:
    """The disc D(c, p^-q) with its center reduced mod p^ceil(q)."""
    k = math.ceil(q)
    return (c % p**k if k > 0 else 0, q)


def contains(p: int, outer: Disc, inner: Disc) -> bool:
    return outer[1] <= inner[1] and vp(outer[0] - inner[0], p) >= outer[1]


def closure(p: int, discs: List[Disc]) -> List[Disc]:
    """Meet closure of the discs plus the Gauss point, sorted by q."""
    verts = {canon(p, 0, Fraction(0))} | {canon(p, c, q) for c, q in discs}
    changed = True
    while changed:
        changed = False
        for x in list(verts):
            for y in list(verts):
                q = min(x[1], y[1], vp(x[0] - y[0], p))
                m = canon(p, x[0], Fraction(q))
                if m not in verts:
                    verts.add(m)
                    changed = True
    return sorted(verts, key=lambda v: (v[1], v[0]))


def parents(p: int, verts: List[Disc]) -> Dict[Disc, Disc]:
    out = {}
    for v in verts[1:]:
        anc = [u for u in verts if u != v and contains(p, u, v)]
        out[v] = max(anc, key=lambda u: u[1])
    return out


def is_branching(p: int, verts: List[Disc]) -> bool:
    """True when two vertices are incomparable, i.e. the tree has mixed centers."""
    return any(
        not contains(p, x, y) and not contains(p, y, x) for x in verts for y in verts
    )


def random_tree(
    rng: random.Random,
    p: int,
    centers: int,
    qs: List[Fraction],
    size: Tuple[int, int],
    branching: bool,
) -> List[Disc]:
    """A meet-closed tree with size[0]..size[1] vertices (Gauss point included)."""
    while True:
        discs = [(rng.randrange(centers), rng.choice(qs)) for _ in range(rng.randint(1, size[1]))]
        verts = closure(p, discs)
        if size[0] <= len(verts) <= size[1] and is_branching(p, verts) == branching:
            return verts


def chain_tree(rng: random.Random, p: int, qs: List[Fraction], depth: int) -> List[Disc]:
    """Discs centered at 0: the package's diagonal fast path applies."""
    return closure(p, [(0, q) for q in rng.sample(qs, depth)])


def psh_values(
    rng: random.Random, p: int, verts: List[Disc], d: int, b: int
) -> Dict[Disc, Fraction]:
    """Values of a psh metric on O(d): Monge-Ampere masses in (1/b)Z, summing to d.

    The slope on the edge above v is minus the mass of the subtree of v, so
    each vertex receives exactly the mass drawn for it.
    """
    units = [0] * len(verts)
    for _ in range(d * b):
        units[rng.randrange(len(verts))] += 1
    mass = {v: Fraction(u, b) for v, u in zip(verts, units)}
    par = parents(p, verts)
    g = {verts[0]: Fraction(0)}
    for v in verts[1:]:
        below = sum((mass[u] for u in verts if contains(p, v, u)), Fraction(0))
        g[v] = g[par[v]] - below * (v[1] - par[v][1])
    return g


def rows(verts: List[Disc], values: Dict[Disc, Fraction]) -> List[List[int]]:
    return [
        [c, 1, q.numerator, q.denominator, values[(c, q)].numerator, values[(c, q)].denominator]
        for c, q in verts
    ]


def metric(verts, values, d) -> dict:
    return {"d": d, "tree": rows(verts, values)}


# ---------------------------------------------------------------------------
# Workloads


def lattice_ramified(rng: random.Random, k: int) -> dict:
    """vol-energy, sandwich and rr on p=2 mixed-center trees, M | a b <= 24, m <= 4."""
    p = 2
    a, b = rng.choice([(2, 3), (3, 2), (4, 2), (2, 4), (3, 4), (4, 3), (6, 2), (3, 8), (8, 3), (6, 4)])
    qs = [Fraction(j, a) for j in range(1, 2 * a + 1)]
    verts = random_tree(rng, p, 4, qs, (3, 5), branching=True)
    base = {"field": {"p": p}, "m_range": [1, 2, 3, 4]}
    kind = ("vol-energy", "sandwich", "rr")[k % 3]
    if kind == "vol-energy":
        return {
            "kind": kind, **base,
            "metric": metric(verts, psh_values(rng, p, verts, 1, b), 1),
            "metric2": metric(verts, psh_values(rng, p, verts, 1, b), 1),
        }
    if kind == "sandwich":
        return {
            "kind": kind, **base,
            "metric": metric(verts, psh_values(rng, p, verts, 1, b), 1),
            "psi1": metric(verts, psh_values(rng, p, verts, 1, b), 1),
            "psi2": metric(verts, psh_values(rng, p, verts, 1, b), 1),
        }
    divisor = {v: Fraction(rng.randint(0, 2 * a * b), a * b) for v in verts}
    return {
        "kind": kind, **base,
        "divisor": rows(verts, divisor),
        "ample": metric(verts, psh_values(rng, p, verts, 1, b), 1),
    }


def lattice_wide(rng: random.Random, k: int) -> dict:
    """vol-energy and diff on p=2 mixed-center trees with M <= 2 and m up to 11."""
    p = 2
    a, b = rng.choice([(1, 1), (2, 1), (1, 2)])
    qs = [Fraction(j, a) for j in range(1, 3 * a + 1)]
    verts = random_tree(rng, p, 8, qs, (3, 5), branching=True)
    # One large level sets the cost; three small ones complete the fit window.
    top = rng.randint(6, 11)
    base = {"field": {"p": p}, "m_range": [1, 2, 3, top]}
    phi = psh_values(rng, p, verts, 1, b)
    if k % 3 != 2:
        return {
            "kind": "vol-energy", **base,
            "metric": metric(verts, phi, 1),
            "metric2": metric(verts, psh_values(rng, p, verts, 1, b), 1),
        }
    # phi + f/2 stays in (1/2)Z, so M <= 2 on both legs.
    direction = {v: Fraction(rng.randint(-2, 2)) for v in verts}
    return {
        "kind": "diff", **base,
        "metric": metric(verts, phi, 1),
        "direction": rows(verts, direction),
        "t_grid": ["1/2"],
    }


def diagonal_series(rng: random.Random, k: int) -> dict:
    """vol-energy and rr on single-center chains, d in {1, 2}, 32-48 levels."""
    p = rng.choice([2, 3])
    a, b, d = rng.randint(1, 4), rng.randint(1, 3), rng.choice([1, 2])
    qs = [Fraction(j, a) for j in range(1, 4 * a + 1)]
    verts = chain_tree(rng, p, qs, rng.randint(2, 4))
    base = {"field": {"p": p}, "m_range": {"start": 1, "stop": rng.randint(32, 48)}}
    if k % 2 == 0:
        other = chain_tree(rng, p, qs, rng.randint(1, 3))
        return {
            "kind": "vol-energy", **base,
            "metric": metric(verts, psh_values(rng, p, verts, d, b), d),
            "metric2": metric(other, psh_values(rng, p, other, d, b), d),
        }
    divisor = {v: Fraction(rng.randint(0, 3 * a), a) for v in verts}
    return {
        "kind": "rr", **base,
        "divisor": rows(verts, divisor),
        "ample": metric(verts, psh_values(rng, p, verts, d, b), d),
    }


def envelope_points(rng: random.Random, k: int) -> dict:
    """orth and dirac on 6-12 vertex trees over p in {3, 5}, plus exhaustive fekete."""
    p = rng.choice([3, 5])
    qs = [Fraction(j, 2) for j in range(1, 7)]
    kind = ("orth", "dirac", "fekete")[k % 3]
    verts = random_tree(rng, p, p * p, qs, (6, 8 if kind == "fekete" else 12), branching=True)
    if kind == "fekete":
        m = rng.choice([3, 4])
        pool = rng.sample(range(p**3), rng.randint(10, 11))
        return {
            "kind": kind, "field": {"p": p},
            "metric": metric(verts, psh_values(rng, p, verts, 1, 2), 1),
            "m": m, "pool": [str(x) for x in pool],
        }
    d = rng.choice([1, 2])
    values = {v: Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for v in verts}
    cfg = {"kind": kind, "field": {"p": p}, "metric": metric(verts, values, d)}
    if kind == "dirac":
        q = Fraction(rng.randint(1, 6), 2)
        cfg["point"] = [rng.randrange(p**3), 1, q.numerator, q.denominator]
    return cfg


# Pool sizes are chosen so that one pass over the pool takes about 15 s at
# reference speed (calibrate.py) at the seed commit; diagonal-series configs
# are short and noisy, so its pool is halved and a run makes two passes.  A
# run measures whole passes (run.py), so every run times the same set of
# configs and only the order depends on the seed; that keeps run-to-run
# spread small.
WORKLOADS: Dict[str, Tuple[Callable[[random.Random, int], dict], int]] = {
    "lattice-ramified": (lattice_ramified, 40),
    "lattice-wide": (lattice_wide, 36),
    "diagonal-series": (diagonal_series, 70),
    "envelope-points": (envelope_points, 60),
}


def pool_size(workload: str) -> int:
    return WORKLOADS[workload][1]


def make_config(workload: str, k: int) -> dict:
    gen, _ = WORKLOADS[workload]
    cfg = gen(random.Random(f"{workload}:{k}"), k)
    cfg["name"] = f"{workload}-{k:04d}"
    return cfg


def corpus_order(workload: str, seed: int, pass_no: int = 0) -> List[int]:
    """Pool indices in the order pass `pass_no` of a run with this seed visits them."""
    order = list(range(pool_size(workload)))
    random.Random(f"{seed}:{pass_no}").shuffle(order)
    return order


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    for i, k in enumerate(corpus_order(args.workload, args.seed)):
        path = args.out / f"{i:04d}.json"
        path.write_text(json.dumps(make_config(args.workload, k), indent=1) + "\n")


if __name__ == "__main__":
    main()
