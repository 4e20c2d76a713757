"""Exhaustive Fekete search over a tabulated objective: a test oracle.

Before the residue-class DP, experiments.fekete_experiment scored every
N-subset of the pool from two integer tables: m g(x) for each pool point
and v_p(y - x) for each pair, over a common denominator D.  That loop is
kept here so that the tests can hold the DP against it on pools far past
the size the per-subset `vandermonde_value` oracle can reach.

`pairwise_vandermonde_value` is the quadratic sum over every pair of
points that `vandermonde_value` replaced by a sum of range minima.
"""

import itertools
import math
from fractions import Fraction
from typing import List, Sequence, Tuple

from berkvol.field import INF, padic_valuation
from berkvol.metrics import Metric


def tabulated_optima(
    phi: Metric, m: int, pool: Sequence[Fraction]
) -> Tuple[Fraction, List[Tuple[Fraction, ...]]]:
    """The least valuation and every optimal configuration, sorted, each
    as the sorted tuple of its points."""
    N = m * phi.d + 1
    pts = sorted(Fraction(x) for x in pool)
    n = len(pts)
    weights = [m * phi.g.evaluate_center(x) for x in pts]
    D = math.lcm(*(w.denominator for w in weights))
    score = [w.numerator * (D // w.denominator) for w in weights]
    pair = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        pair[i][j] = pair[j][i] = D * int(padic_valuation(pts[j] - pts[i], phi.p))

    def total(cfg: Sequence[int]) -> int:
        return sum(score[i] for i in cfg) + sum(
            pair[i][j] for i, j in itertools.combinations(cfg, 2)
        )

    best_total = None
    best: List[Tuple[int, ...]] = []
    for cfg in itertools.combinations(range(n), N):
        v = total(cfg)
        if best_total is None or v < best_total:
            best_total, best = v, [cfg]
        elif v == best_total:
            best.append(cfg)
    return Fraction(best_total, D), [tuple(pts[i] for i in cfg) for cfg in best]


def pairwise_vandermonde_value(points: Sequence[Fraction], phi: Metric, m: int):
    """v_p(prod_{i<j} (x_j - x_i)) + m * sum_j phi(x_j), one pair at a time."""
    pts = [Fraction(x) for x in points]
    total = sum(m * phi.g.evaluate_center(x) for x in pts)
    for x, y in itertools.combinations(pts, 2):
        if x == y:
            return INF
        total += padic_valuation(y - x, phi.p)
    return total
