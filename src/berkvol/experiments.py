"""Theorem-level experiments: differentiability, the Siu-type sandwich,
orthogonality of envelopes, Dirac Monge-Ampere solutions, and Fekete
point equidistribution.

Every experiment is deterministic given its configuration; all
intermediate quantities are exact rationals.  Volumes enter as the exact
limits and one-sided derivatives of volumes, so every verdict is an exact
equality or inequality; a level series, where kept, is data only.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple

from .errors import BerkvolError, Frozen
from .metrics import Metric, envelope, equilibrium_metric, is_psh, ma_measure
from .sections import _integers, _level_dimension, _level_sums, _valuation_gaps, vandermonde_value
from .tree import DiscreteMeasure, PLFunction, TreePoint, _rational, digit_sorted, refine
from .volumes import right_derivative, vol_limit


class ExperimentError(BerkvolError):
    pass


def _add_direction(phi: Metric, f: PLFunction, t: Fraction) -> Metric:
    return Metric(phi.d, phi.g + f.scale(t))


class DiffLeg(Frozen):
    """t, and samples: the (m, vol_m(phi + t f, phi)) pairs."""


class DiffReport(Frozen):
    """target, right_derivative, left_derivative, and legs: the DiffLegs."""


def diff_experiment(
    phi: Metric,
    f: PLFunction,
    t_grid: Sequence[Fraction],
    m_range: Iterable[int],
) -> DiffReport:
    """The exact one-sided derivatives of t -> vol(L, phi + t f, phi) at 0
    (the left one from the direction -f, on the same common tree), against
    the pairing of f with MA(P(phi)), P(phi) the psh envelope: phi itself
    when phi is psh.  As data, each leg t of t_grid records
    vol_m(phi + t f, phi) = u_m(phi) - u_m(phi + t f); u_m(phi) is shared."""
    # The common tree is kept so that the dual pass differentiates along f
    # itself, kinks off phi's tree included.  On phi's own tree the check
    # would hold too, for every direction, since the pairing reads f only at
    # phi's vertices.  That the two values agree is the theorem, not the code.
    tree = refine(phi.tree, f.tree.vertices)
    phi_r, f_r = phi.on_tree(tree), f.on_tree(tree)
    right = right_derivative(phi_r, f_r)
    left = -right_derivative(phi_r, f_r.scale(Fraction(-1)))
    ms = sorted(set(m_range))
    base = _level_sums(phi, ms)
    legs: List[DiffLeg] = []
    for t in sorted({abs(t) for t in map(_rational, t_grid) if t}):
        for s in (t, -t):
            series = _level_sums(_add_direction(phi_r, f_r, s), ms)
            legs.append(DiffLeg(t=s, samples=list(zip(ms, _valuation_gaps(series, base)))))
    return DiffReport(
        target=ma_measure(envelope(phi)).integrate(f), right_derivative=right,
        left_derivative=left, legs=legs,
    )


class SandwichReport(Frozen):
    """lower, middle and upper, the three terms of the bound."""

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
    return SandwichReport(lower=e * f.min_value(), middle=middle, upper=e * f.max_value())


def orthogonality_experiment(phi: Metric) -> Fraction:
    """Exact residual int (phi - env(phi)) d MA(env(phi)); contract: zero.

    Integrated term by term, so no difference function is built; env
    lives on phi's tree, and is phi itself when phi is psh.
    """
    env = envelope(phi)
    mu = ma_measure(env)
    return mu.integrate(phi.g) - mu.integrate(env.g)


class DiracReport(Frozen):
    """point, its equilibrium metric, and that metric's MA measure."""

    def is_dirac(self) -> bool:
        return self.measure.masses == {self.point: Fraction(self.metric.d)}


def dirac_experiment(x: TreePoint, phi: Metric) -> DiracReport:
    """Monge-Ampere measure of the equilibrium metric of a point."""
    eq = equilibrium_metric(x, phi)
    return DiracReport(point=x, metric=eq, measure=ma_measure(eq))


class FeketeReport(Frozen):
    """m, n_points, best_config, n_optima, best_valuation, empirical, target
    and tv_distance."""


def _merge(a: List[Tuple[int, int, int]], b: List[Tuple[int, int, int]], N: int, cross: int):
    """Min-plus product of two (total, count, key) tables, cut at N points,
    each of the i * j pairs across the split charged cross: counts
    multiply, and add over the splits that tie for the least total."""
    out: List = [None] * min(len(a) + len(b) - 1, N + 1)
    for i, (ta, ca, ka) in enumerate(a):
        for j, (tb, cb, kb) in enumerate(b[: N + 1 - i]):
            t, cur = ta + tb + i * j * cross, out[i + j]
            if cur is None or t < cur[0]:
                out[i + j] = (t, ca * cb, ka | kb)
            elif t == cur[0]:
                out[i + j] = (t, cur[1] + ca * cb, max(cur[2], ka | kb))
    return out


def fekete_experiment(phi: Metric, m: int, pool: Sequence[Fraction]) -> FeketeReport:
    """Best Vandermonde configurations from a pool of rational points.

    Minimizes the valuation sum_{x<y} v_p(y - x) + m sum_x g(x) of the
    metrized determinant exactly.  In p-adic digit order v_p(y - x) is
    the least adjacent gap from x to y.  One stack walk in that order
    keeps segments whose right gaps rise up the stack; a segment keeps,
    per subset size k, the least total over a common denominator D, the
    number of k-subsets reaching it, and the largest key sum 2^(n-1-i)
    over the numeric ranks i of one of them, which marks the
    lexicographically least.  A gap v pops every segment whose right gap
    is v or more and joins it to the segments after it: no gap inside
    either side is below v, so each of the i * j pairs across the join
    has v_p = v and is charged v D.  The winner is re-verified with
    `vandermonde_value`.
    """
    if not is_psh(phi):
        raise ExperimentError("Fekete experiment needs a psh metric")
    if phi.d < 1:
        raise ExperimentError("Fekete experiment needs d >= 1")
    N = _level_dimension(m, phi.d)
    pool = [_rational(x) for x in pool]
    if len(set(pool)) != len(pool):
        raise ExperimentError("pool contains repeated points")
    if len(pool) < N:
        raise ExperimentError(f"pool of {len(pool)} points cannot host {N}-tuples")

    pts = sorted(pool)
    n = len(pts)
    D, weights = _integers([m * phi.g.evaluate_center(x) for x in pts])  # raises off the disc
    order, depth = digit_sorted(pts, phi.p)
    segments: List = []  # (right gap, table), right gaps rising up the stack
    for i, q in zip(order, depth + [0]):
        table = [(0, 1, 0), (weights[i], 1, 1 << (n - 1 - i))]
        while segments and segments[-1][0] >= q:
            v, left = segments.pop()
            table = _merge(left, table, N, v * D)
        segments.append((q, table))
    best_total, n_optima, key = segments[0][1][N]
    winner = tuple(x for i, x in enumerate(pts) if key >> (n - 1 - i) & 1)
    best_val = Fraction(best_total, D)
    if vandermonde_value(list(winner), phi, m) != best_val:
        raise ExperimentError(f"Fekete objective {best_val} disagrees at {winner}")

    counts = Counter(phi.tree.retract(x, None) for x in winner)
    empirical = DiscreteMeasure(counts).scale(Fraction(1, N))
    target = ma_measure(phi).scale(Fraction(1, phi.d))
    return FeketeReport(
        m=m, n_points=N, best_config=winner, n_optima=n_optima, best_valuation=best_val,
        empirical=empirical, target=target, tv_distance=empirical.tv_distance(target),
    )
