import itertools
import math
import random
from fractions import Fraction

import pytest

from berkvol import experiments
from berkvol.experiments import (
    ExperimentError,
    diff_experiment,
    dirac_experiment,
    fekete_experiment,
    orthogonality_experiment,
    sandwich_check,
)
from berkvol.metrics import Metric, envelope, ma_measure, trivial_metric
from berkvol.sections import vandermonde_value, vol_m
from berkvol.tree import DiscreteMeasure, PLFunction, TreePoint, build_tree, gauss_point

from conftest import random_pl_metric, random_psh_chain_metric, random_psh_metric
from fekete_oracle import tabulated_optima


def slope_metric(p, d, slope):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(1))
    tree = build_tree(p, [g0, x])
    return Metric(d, PLFunction(tree, {g0: Fraction(0), x: slope}))


def tent_direction(p, height=Fraction(1)):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(1))
    tree = build_tree(p, [g0, x])
    return PLFunction(tree, {g0: Fraction(0), x: height})


def test_diff_symmetric_quotient_exact():
    """The one-sided derivatives agree, so the symmetric quotient's limit is
    the derivative, and it is the pairing exactly."""
    p = 2
    phi = slope_metric(p, 1, Fraction(-1, 2))
    f = tent_direction(p)
    rep = diff_experiment(phi, f, [Fraction(1, 8)], range(16, 81, 16))
    assert rep.target == Fraction(1, 2)
    assert rep.right_derivative == rep.left_derivative == Fraction(1, 2)


def test_diff_requires_psh_base():
    p = 2
    bad = slope_metric(p, 1, Fraction(1))
    with pytest.raises(Exception):
        diff_experiment(bad, tent_direction(p), [Fraction(1, 8)], range(16, 81, 16))


def test_diff_computes_each_unit_ball_once(monkeypatch):
    """The base metric's series of unit balls is shared by every leg: one
    series for the base and one per leg, each over every level, and no
    metric's series is computed twice."""
    from berkvol import sections, volumes

    calls = []
    original = sections.unit_ball_valuations

    def counted(phi, ms, extra=None):
        ms = list(ms)
        calls.append((phi.d, frozenset(phi.g.values.items()), tuple(ms), extra))
        return original(phi, ms, extra)

    for module in (sections, volumes, experiments):
        monkeypatch.setattr(module, "unit_ball_valuations", counted)
    rng = random.Random(12)
    for p in (2, 3):
        phi = random_psh_metric(p, 1, rng)
        f = random_pl_metric(p, 1, rng).g
        ms = [6, 2, 8, 4, 6]
        calls.clear()
        rep = diff_experiment(phi, f, [Fraction(1, 2), Fraction(-1, 4), Fraction(1, 4)], ms)
        assert len(rep.legs) == 4
        assert len(calls) == 1 + len(rep.legs)
        assert len({(d, g) for d, g, _, _ in calls}) == len(calls)
        assert all(levels == (2, 4, 6, 8) and extra is None for _, _, levels, extra in calls)
        # each leg is vol_m against the base, level by level
        for leg in rep.legs:
            moved = experiments._add_direction(phi, f, leg.t)
            assert leg.samples == [(m, vol_m(moved, phi, m)) for m in (2, 4, 6, 8)]


def test_sandwich_randomized_chain_corpus():
    rng = random.Random(101)
    for _ in range(6):
        phi = random_psh_chain_metric(2, 1, rng)
        psi1 = random_psh_chain_metric(2, 1, rng)
        psi2 = random_psh_chain_metric(2, 1, rng)
        rep = sandwich_check(phi, psi1, psi2)
        assert rep.holds(), (rep.lower, rep.middle, rep.upper)


def test_sandwich_mixed_center_case():
    rng = random.Random(55)
    phi = random_psh_metric(2, 1, rng)
    psi1 = random_psh_metric(2, 1, rng)
    psi2 = random_psh_metric(2, 1, rng)
    rep = sandwich_check(phi, psi1, psi2)
    assert rep.holds(), (rep.lower, rep.middle, rep.upper)


def test_orthogonality_on_tent():
    p = 2
    tent = Metric(1, tent_direction(p))
    assert orthogonality_experiment(tent) == 0


def test_orthogonality_randomized():
    rng = random.Random(7)
    for _ in range(10):
        phi = random_pl_metric(2, rng.choice([1, 2]), rng)
        assert orthogonality_experiment(phi) == 0


def test_orthogonality_integrates_term_by_term():
    """The residual equals the integral of the refined difference, and
    the linearity it rests on holds on trees that are not common."""
    rng = random.Random(8)
    nonzero = 0
    for i in range(30):
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2])
        draw = random_psh_metric if i % 2 else random_pl_metric
        phi = draw(p, d, rng)
        env = envelope(phi)
        assert orthogonality_experiment(phi) == ma_measure(env).integrate(phi.g - env.g)
        psi = random_psh_metric(p, d, rng)
        mu = ma_measure(psi)
        split = mu.integrate(phi.g) - mu.integrate(psi.g)
        assert split == mu.integrate(phi.g - psi.g)
        nonzero += split != 0
    assert nonzero > 20


def test_dirac_solutions():
    p = 2
    for d in (1, 2):
        phi = trivial_metric(p, d)
        for x in (gauss_point(p), TreePoint(p, Fraction(0), Fraction(1))):
            rep = dirac_experiment(x, phi)
            assert rep.measure.masses == {x: Fraction(d)}


def test_fekete_exhaustive_unit_pool():
    p = 5
    phi = trivial_metric(p, 1)
    pool = [Fraction(k) for k in range(5)]
    rep = fekete_experiment(phi, 2, pool)
    assert rep.best_valuation == 0
    assert rep.n_optima == 10  # every 3 of 5 residues mod 5
    assert rep.empirical.masses == {gauss_point(p): Fraction(1)}
    assert rep.tv_distance == 0


def test_fekete_pigeonhole_positive():
    p = 2
    phi = trivial_metric(p, 1)
    rep = fekete_experiment(phi, 2, [Fraction(k) for k in range(4)])
    # three integers cannot be pairwise distinct mod 2
    assert rep.best_valuation > 0


def test_fekete_weighted_metric_moves_mass():
    p = 2
    phi = slope_metric(p, 1, Fraction(-1, 2))
    pool = [Fraction(k) for k in range(4)]
    rep = fekete_experiment(phi, 1, pool)
    # MA(phi)/d puts half the mass at the disc point; check target wiring
    assert rep.target.masses == {
        gauss_point(p): Fraction(1, 2),
        TreePoint(p, Fraction(0), Fraction(1)): Fraction(1, 2),
    }
    assert rep.tv_distance <= Fraction(1, 2)


# ---------------------------------------------------------------------------
# The Fekete DP against per-subset Vandermonde oracles.


def fekete_draws():
    """Seeded (phi, m, pool) draws: p in {2,3,5}, d in {1,2}, m in {1,2,3}.

    Pools hold 5-9 distinct points of the closed unit disc, integers and
    fractions with denominators prime to p, so equal pair valuations (and
    tied optima) are common.
    """
    rng = random.Random(4242)
    draws = []
    for k in range(24):
        p = (2, 3, 5)[k % 3]
        d = rng.choice([1, 2])
        m = rng.choice([1, 2, 3]) if d == 1 else rng.choice([1, 2])
        phi = random_psh_metric(p, d, rng) if k % 4 else trivial_metric(p, d)
        n = rng.randint(max(5, m * d + 1), 9)
        pool = set()
        while len(pool) < n:
            den = rng.choice([1, 1, p + 1, 2 * p + 1])
            pool.add(Fraction(rng.randint(0, p**3 - 1), den))
        draws.append((phi, m, sorted(pool, key=lambda x: rng.random())))
    return draws


def oracle_exhaustive(phi, m, pool):
    N = m * phi.d + 1
    values = {
        cfg: vandermonde_value(list(cfg), phi, m)
        for cfg in itertools.combinations(sorted(pool), N)
    }
    best_val = min(values.values())
    best = sorted(cfg for cfg, v in values.items() if v == best_val)
    emp = {}
    for x in best[0]:
        r = phi.tree.retract(x, None)
        emp[r] = emp.get(r, Fraction(0)) + Fraction(1, N)
    return best_val, best, DiscreteMeasure(emp)


def test_fekete_tabulated_matches_subset_oracle():
    tied = 0
    for phi, m, pool in fekete_draws():
        rep = fekete_experiment(phi, m, pool)
        best_val, best, emp = oracle_exhaustive(phi, m, pool)
        assert rep.best_valuation == best_val
        assert rep.best_config == best[0]
        assert rep.n_optima == len(best)
        assert rep.empirical.masses == emp.masses
        tied += len(best) > 1
    assert tied >= 5


def test_fekete_pool_inside_one_residue_class():
    # every pair shares the classes mod p and mod p^2, so each of the
    # C(3, 2) pairs of an optimum carries at least 2
    for p in (2, 3):
        phi = trivial_metric(p, 1)
        pool = [Fraction(p * p * k, 1 + p * k) for k in range(6)]
        rep = fekete_experiment(phi, 2, pool)
        best_val, best, _ = oracle_exhaustive(phi, 2, pool)
        assert rep.best_valuation == best_val >= 6
        assert rep.best_config == best[0]
        assert rep.n_optima == len(best)


def test_fekete_matches_tabulated_oracle_past_the_enumeration_limit():
    """Pools with more than 200 000 N-subsets, where the search used to
    leave enumeration, against the exhaustive tabulated loop."""
    rng = random.Random(5)
    for k, (d, m, n) in enumerate([(1, 3, 49), (1, 4, 32), (2, 2, 32), (1, 5, 26)] * 2 + [(1, 4, 33)]):
        p = (2, 3, 5)[k % 3]
        phi = random_psh_metric(p, d, rng) if k % 2 else trivial_metric(p, d)
        assert math.comb(n, m * d + 1) > 200_000
        pool = set()
        while len(pool) < n:
            pool.add(Fraction(rng.randrange(p ** (8 // p + 3)), rng.choice([1, 1, p + 1])))
        pool = sorted(pool, key=lambda x: rng.random())
        rep = fekete_experiment(phi, m, pool)
        best_val, best = tabulated_optima(phi, m, pool)
        assert rep.best_valuation == best_val
        assert rep.best_config == best[0]
        assert rep.n_optima == len(best) > 1


def test_fekete_evaluates_each_pool_point_once(monkeypatch):
    calls = []
    evaluate_center = PLFunction.evaluate_center

    def counted(self, center):
        calls.append(center)
        return evaluate_center(self, center)

    monkeypatch.setattr(PLFunction, "evaluate_center", counted)
    for phi, m, pool in fekete_draws()[:6]:
        calls.clear()
        fekete_experiment(phi, m, pool)
        assert len(calls) <= len(pool) + m * phi.d + 1


def test_fekete_winner_is_rechecked(monkeypatch):
    phi, m, pool = fekete_draws()[1]
    monkeypatch.setattr(
        experiments, "vandermonde_value", lambda pts, phi, m: vandermonde_value(pts, phi, m) + 1
    )
    with pytest.raises(ExperimentError, match="disagrees"):
        fekete_experiment(phi, m, pool)
