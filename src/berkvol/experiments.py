"""Theorem-level experiments: differentiability, the Siu-type sandwich,
orthogonality of envelopes, Dirac Monge-Ampere solutions, and Fekete
point equidistribution.

Every experiment is deterministic given its configuration; all
intermediate quantities are exact rationals.  Volumes enter as the exact
limits and one-sided derivatives of volumes, so every verdict is an exact
equality or inequality; a level series, where kept, is data only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key
from typing import Iterable, List, NamedTuple, Sequence, Tuple

from .errors import BerkvolError
from .field import padic_valuation
from .metrics import Metric, envelope, equilibrium_metric, is_psh, ma_measure
from .sections import _level_sums, _valuation_gaps, vandermonde_value
from .tree import DiscreteMeasure, PLFunction, TreePoint, digit_order, refine
from .volumes import right_derivative, vol_limit


class ExperimentError(BerkvolError):
    pass


def _add_direction(phi: Metric, f: PLFunction, t: Fraction) -> Metric:
    return Metric(phi.d, phi.g + f.scale(t))


class DiffLeg(NamedTuple):
    t: Fraction
    samples: List[Tuple[int, Fraction]]


class DiffReport(NamedTuple):
    target: Fraction
    right_derivative: Fraction
    left_derivative: Fraction
    legs: List[DiffLeg]


def diff_experiment(
    phi: Metric,
    f: PLFunction,
    t_grid: Sequence[Fraction],
    m_range: Iterable[int],
) -> DiffReport:
    """The exact one-sided derivatives of t -> vol(L, phi + t f, phi) at 0
    (the left one from the direction -f, on the same common tree), against
    the pairing of f with MA(phi).  As data, each leg t of t_grid records
    vol_m(phi + t f, phi) = u_m(phi) - u_m(phi + t f); u_m(phi) is shared."""
    if not is_psh(phi):
        raise ExperimentError("base metric must be psh")
    tree = refine(phi.tree, f.tree.vertices)
    phi_r, f_r = phi.on_tree(tree), f.on_tree(tree)
    right = right_derivative(phi_r, f_r)
    left = -right_derivative(phi_r, f_r.scale(Fraction(-1)))
    ms = sorted(set(m_range))
    base = _level_sums(phi, ms)
    legs: List[DiffLeg] = []
    for t in sorted({abs(Fraction(t)) for t in t_grid if t != 0}):
        for s in (t, -t):
            series = _level_sums(_add_direction(phi, f, s), ms)
            legs.append(DiffLeg(s, list(zip(ms, _valuation_gaps(series, base)))))
    return DiffReport(ma_measure(phi).integrate(f), right, left, legs)


class SandwichReport(NamedTuple):
    lower: Fraction
    middle: Fraction
    upper: Fraction

    def holds(self) -> bool:
        return self.lower <= self.middle <= self.upper


def sandwich_check(phi: Metric, psi1: Metric, psi2: Metric) -> SandwichReport:
    """Siu-type bound: with f = psi1 - psi2 on O(e) and C = e,
    C inf f <= int f d(MA(phi) + MA(psi1)) - vol(L, phi + f, phi) <= C sup f,
    with the exact volume of volumes.vol_limit."""
    if psi1.d != psi2.d:
        raise ExperimentError("auxiliary metrics live on different bundles")
    if not (is_psh(phi) and is_psh(psi1) and is_psh(psi2)):
        raise ExperimentError("all inputs must be psh")
    e = psi1.d
    f = psi1.g - psi2.g
    mixed = ma_measure(phi).add(ma_measure(psi1))
    middle = mixed.integrate(f) - vol_limit(_add_direction(phi, f, Fraction(1)), phi)
    return SandwichReport(e * f.min_value(), middle, e * f.max_value())


def orthogonality_experiment(phi: Metric) -> Fraction:
    """Exact residual int (phi - env(phi)) d MA(env(phi)); contract: zero.

    Integrated term by term, so no difference function is built; env
    lives on phi's tree, and is phi itself when phi is psh.
    """
    env = envelope(phi)
    mu = ma_measure(env)
    return mu.integrate(phi.g) - mu.integrate(env.g)


class DiracReport(NamedTuple):
    point: TreePoint
    metric: Metric
    measure: DiscreteMeasure

    def is_dirac(self) -> bool:
        return self.measure.masses == {self.point: Fraction(self.metric.d)}


def dirac_experiment(x: TreePoint, phi: Metric) -> DiracReport:
    """Monge-Ampere measure of the equilibrium metric of a point."""
    eq = equilibrium_metric(x, phi)
    return DiracReport(x, eq, ma_measure(eq))


class FeketeReport(NamedTuple):
    m: int
    n_points: int
    best_config: Tuple[Fraction, ...]
    n_optima: int
    best_valuation: Fraction
    empirical: DiscreteMeasure
    target: DiscreteMeasure
    tv_distance: Fraction


def _merge(a: List[Tuple[int, int, int]], b: List[Tuple[int, int, int]], N: int):
    """Min-plus product of two (total, count, key) tables, cut at N points:
    counts multiply, and add over the splits that tie for the least total."""
    out: List = [None] * min(len(a) + len(b) - 1, N + 1)
    for i, (ta, ca, ka) in enumerate(a):
        for j, (tb, cb, kb) in enumerate(b[: N + 1 - i]):
            t, cur = ta + tb, out[i + j]
            if cur is None or t < cur[0]:
                out[i + j] = (t, ca * cb, ka | kb)
            elif t == cur[0]:
                out[i + j] = (t, cur[1] + ca * cb, max(cur[2], ka | kb))
    return out


def fekete_experiment(phi: Metric, m: int, pool: Sequence[Fraction]) -> FeketeReport:
    """Best Vandermonde configurations from a pool of rational points.

    Minimizes the valuation sum_{x<y} v_p(y - x) + m sum_x g(x) of the
    metrized determinant exactly.  In the closed unit disc v_p(y - x)
    counts the classes mod p^k (k >= 1) holding both points, so the pair
    sum is sum_c C(n_c, 2) over a laminar family of classes c.  In p-adic
    digit order each class is a segment, and segments merge from the
    deepest adjacent pair up.  A segment keeps, per subset size k, the
    least total over a common denominator D, the number of k-subsets
    reaching it, and the largest key sum 2^(n-1-i) over the numeric ranks
    i of one of them, which marks the lexicographically least.  A class
    dq levels below its parent charges each k-subset C(k, 2) dq D.  The
    winner is re-verified with `vandermonde_value`.
    """
    if not is_psh(phi):
        raise ExperimentError("Fekete experiment needs a psh metric")
    if phi.d < 1:
        raise ExperimentError("Fekete experiment needs d >= 1")
    N = m * phi.d + 1
    pool = [Fraction(x) for x in pool]
    if len(set(pool)) != len(pool):
        raise ExperimentError("pool contains repeated points")
    if len(pool) < N:
        raise ExperimentError(f"pool of {len(pool)} points cannot host {N}-tuples")

    p, pts = phi.p, sorted(pool)
    n = len(pts)
    weights = [m * phi.g.evaluate_center(x) for x in pts]  # raises off the closed disc
    D = math.lcm(*(w.denominator for w in weights))
    order = sorted(range(n), key=cmp_to_key(lambda i, j: digit_order(pts[i], pts[j], p)))
    depth = [int(padic_valuation(pts[j] - pts[i], p)) for i, j in zip(order, order[1:])]
    # table[s] and level[s] belong to the segment whose first position is s;
    # start[s] is the first position of the segment that ends at s.  A single
    # point's level never counts, since C(k, 2) = 0 for k <= 1.
    table = [
        [(0, 1, 0), (weights[i].numerator * (D // weights[i].denominator), 1, 1 << (n - 1 - i))]
        for i in order
    ]
    level = [0] * n
    start, end = list(range(n)), list(range(n))

    def lifted(c: int, q: int) -> List[Tuple[int, int, int]]:
        # the classes from depth q down to segment c's level hold every pair
        dq = (level[c] - q) * D
        return [(t + k * (k - 1) // 2 * dq, cnt, key) for k, (t, cnt, key) in enumerate(table[c])]

    for s in sorted(range(n - 1), key=lambda s: -depth[s]):
        a, b, q = start[s], s + 1, depth[s]
        table[a], level[a] = _merge(lifted(a, q), lifted(b, q), N), q
        end[a] = end[b]
        start[end[a]] = a
    best_total, n_optima, key = lifted(0, 0)[N]
    winner = tuple(x for i, x in enumerate(pts) if key >> (n - 1 - i) & 1)
    best_val = Fraction(best_total, D)
    if vandermonde_value(list(winner), phi, m) != best_val:
        raise ExperimentError(f"Fekete objective {best_val} disagrees at {winner}")

    emp: dict = {}
    for x in winner:
        r = phi.tree.retract(x, None)
        emp[r] = emp.get(r, Fraction(0)) + Fraction(1, N)
    empirical = DiscreteMeasure(emp)
    target = ma_measure(phi).scale(Fraction(1, phi.d))
    return FeketeReport(
        m, N, winner, n_optima, best_val, empirical, target, empirical.tv_distance(target)
    )
