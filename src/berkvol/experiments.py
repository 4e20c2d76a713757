"""Theorem-level experiments: differentiability, the Siu-type sandwich,
orthogonality of envelopes, Dirac Monge-Ampere solutions, and Fekete
point equidistribution.

Every experiment is deterministic given its configuration (and seed, for
the Fekete local search); all intermediate quantities are exact rationals.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import BerkvolError
from .field import padic_valuation
from .metrics import (
    Metric,
    envelope,
    equilibrium_metric,
    integrate_against,
    is_psh,
    ma_measure,
)
from .sections import vandermonde_value
from .tree import DiscreteMeasure, PLFunction, SkeletonTree, TreePoint
from .volumes import ExtrapolationReport, vol_limit


class ExperimentError(BerkvolError):
    pass


def _add_direction(phi: Metric, f: PLFunction, t: Fraction) -> Metric:
    return Metric(phi.d, phi.g + f.scale(t))


@dataclass
class DiffLeg:
    t: Fraction
    report: ExtrapolationReport


@dataclass
class DiffReport:
    target: Fraction
    legs: List[DiffLeg]
    derivatives: List[Tuple[Fraction, Fraction, Fraction]]  # (|t|, estimate, bound)


def diff_experiment(
    phi: Metric,
    f: PLFunction,
    t_grid: Sequence[Fraction],
    m_range: Iterable[int],
) -> DiffReport:
    """Symmetric finite differences of t -> vol(L, phi + t f, phi)."""
    if not is_psh(phi):
        raise ExperimentError("base metric must be psh")
    ts = sorted({abs(Fraction(t)) for t in t_grid if t != 0})
    target = integrate_against(phi, f)
    legs: List[DiffLeg] = []
    derivs: List[Tuple[Fraction, Fraction, Fraction]] = []
    ms = list(m_range)
    for t in ts:
        rep_p = vol_limit(_add_direction(phi, f, t), phi, ms)
        rep_m = vol_limit(_add_direction(phi, f, -t), phi, ms)
        legs.extend([DiffLeg(t, rep_p), DiffLeg(-t, rep_m)])
        est = (rep_p.estimate - rep_m.estimate) / (2 * t)
        bound = (rep_p.error_bound + rep_m.error_bound) / (2 * t)
        derivs.append((t, est, bound))
    return DiffReport(target, legs, derivs)


@dataclass
class SandwichReport:
    lower: Fraction
    middle: Fraction
    upper: Fraction
    vol_bound: Fraction

    def holds(self) -> bool:
        return (
            self.lower - self.vol_bound <= self.middle <= self.upper + self.vol_bound
        )


def sandwich_check(
    phi: Metric,
    psi1: Metric,
    psi2: Metric,
    m_range: Iterable[int],
) -> SandwichReport:
    """Siu-type bound: with f = psi1 - psi2 on O(e) and C = e,
    C inf f <= int f d(MA(phi) + MA(psi1)) - vol(L, phi + f, phi) <= C sup f."""
    if psi1.d != psi2.d:
        raise ExperimentError("auxiliary metrics live on different bundles")
    if not (is_psh(phi) and is_psh(psi1) and is_psh(psi2)):
        raise ExperimentError("all inputs must be psh")
    e = psi1.d
    f = psi1.g - psi2.g
    mixed = ma_measure(phi).add(ma_measure(psi1))
    pairing = mixed.integrate(f)
    rep = vol_limit(_add_direction(phi, f, Fraction(1)), phi, m_range)
    middle = pairing - rep.estimate
    return SandwichReport(e * f.min_value(), middle, e * f.max_value(), rep.error_bound)


def orthogonality_experiment(phi: Metric) -> Fraction:
    """Exact residual int (phi - env(phi)) d MA(env(phi)); contract: zero.

    Integrated term by term: phi.g - env.g would rebuild phi's tree, on
    which env already lives.
    """
    env = envelope(phi)
    mu = ma_measure(env)
    return mu.integrate(phi.g) - mu.integrate(env.g)


@dataclass
class DiracReport:
    point: TreePoint
    metric: Metric
    measure: DiscreteMeasure

    def is_dirac(self) -> bool:
        return self.measure.masses == {self.point: Fraction(self.metric.d)}


def dirac_experiment(x: TreePoint, phi: Metric) -> DiracReport:
    """Monge-Ampere measure of the equilibrium metric of a point."""
    eq = equilibrium_metric(x, phi)
    return DiracReport(x, eq, ma_measure(eq))


@dataclass
class FeketeReport:
    m: int
    n_points: int
    best_configs: List[Tuple[Fraction, ...]]
    best_valuation: Fraction
    empirical: DiscreteMeasure
    target: DiscreteMeasure
    tv_distance: Fraction
    exhaustive: bool


def fekete_experiment(
    phi: Metric,
    m: int,
    pool: Sequence[Fraction],
    reference_tree: Optional[SkeletonTree] = None,
    exhaustive_limit: int = 200_000,
    search_budget: int = 2_000,
    seed: int = 0,
) -> FeketeReport:
    """Best Vandermonde configuration from a pool of rational points.

    Maximizes the metrized determinant, i.e. minimizes its valuation
    sum_{x<y} v_p(y - x) + m sum_x g(x).  Both sums run over values of
    single pool points and of pairs of them, so the objective is
    tabulated once per pool as integers over a common denominator D and
    every subset is scored by integer additions.  Exhaustive below
    `exhaustive_limit` subsets; otherwise a seeded greedy-swap local
    search.  Ties break lexicographically on the sorted point tuple.
    The winner is re-verified with `vandermonde_value`.
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

    # Index i is the i-th smallest pool point, so comparing sorted index
    # tuples orders configurations exactly as comparing sorted point tuples.
    pts = sorted(pool)
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

    exhaustive = math.comb(n, N) <= exhaustive_limit
    best_total = None
    best: List[Tuple[int, ...]] = []
    if exhaustive:
        for cfg in itertools.combinations(range(n), N):
            v = total(cfg)
            if best_total is None or v < best_total:
                best_total, best = v, [cfg]
            elif v == best_total:
                best.append(cfg)
    else:
        rng = random.Random(seed)
        index = {x: i for i, x in enumerate(pts)}
        order = [index[x] for x in pool]
        current = [index[x] for x in rng.sample(pool, N)]
        best_total = total(current)
        best = [tuple(sorted(current))]
        for _ in range(search_budget):
            improved = False
            outside = [k for k in order if k not in current]
            for i in range(N):
                for cand in outside:
                    trial = current[:i] + [cand] + current[i + 1 :]
                    v = total(trial)
                    key = tuple(sorted(trial))
                    if v < best_total or (v == best_total and key < best[0]):
                        current = trial
                        best_total, best = v, [key]
                        improved = True
                        break
                if improved:
                    break
            if not improved:
                break
    best.sort()
    best_configs = [tuple(pts[i] for i in cfg) for cfg in best]
    winner = best_configs[0]
    best_val = Fraction(best_total, D)
    if vandermonde_value(list(winner), phi, m) != best_val:
        raise ExperimentError(f"tabulated Fekete objective {best_val} disagrees at {winner}")

    ref = reference_tree if reference_tree is not None else phi.tree
    emp: dict = {}
    for x in winner:
        r = ref.retract(x, None)
        emp[r] = emp.get(r, Fraction(0)) + Fraction(1, N)
    empirical = DiscreteMeasure(emp)
    target = ma_measure(phi).scale(Fraction(1, phi.d))
    return FeketeReport(
        m, N, best_configs, best_val, empirical, target, empirical.tv_distance(target), exhaustive
    )
