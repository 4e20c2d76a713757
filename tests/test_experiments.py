import itertools
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
from berkvol.sections import vandermonde_value
from berkvol.tree import DiscreteMeasure, PLFunction, TreePoint, build_tree, gauss_point

from conftest import random_pl_metric, random_psh_chain_metric, random_psh_metric


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
    p = 2
    phi = slope_metric(p, 1, Fraction(-1, 2))
    f = tent_direction(p)
    rep = diff_experiment(phi, f, [Fraction(1, 8)], range(16, 81, 16))
    assert rep.target == Fraction(1, 2)
    (t, est, bound) = rep.derivatives[0]
    assert est == Fraction(1, 2)
    assert bound == 0


def test_diff_requires_psh_base():
    p = 2
    bad = slope_metric(p, 1, Fraction(1))
    with pytest.raises(Exception):
        diff_experiment(bad, tent_direction(p), [Fraction(1, 8)], range(16, 81, 16))


def test_sandwich_randomized_chain_corpus():
    rng = random.Random(101)
    for _ in range(6):
        phi = random_psh_chain_metric(2, 1, rng)
        psi1 = random_psh_chain_metric(2, 1, rng)
        psi2 = random_psh_chain_metric(2, 1, rng)
        rep = sandwich_check(phi, psi1, psi2, range(8, 25, 4))
        assert rep.holds(), (rep.lower, rep.middle, rep.upper)


def test_sandwich_mixed_center_case():
    rng = random.Random(55)
    phi = random_psh_metric(2, 1, rng)
    psi1 = random_psh_metric(2, 1, rng)
    psi2 = random_psh_metric(2, 1, rng)
    rep = sandwich_check(phi, psi1, psi2, range(2, 9))
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
    assert rep.exhaustive
    assert rep.best_valuation == 0
    assert rep.empirical.masses == {gauss_point(p): Fraction(1)}
    assert rep.tv_distance == 0


def test_fekete_pigeonhole_positive():
    p = 2
    phi = trivial_metric(p, 1)
    rep = fekete_experiment(phi, 2, [Fraction(k) for k in range(4)])
    # three integers cannot be pairwise distinct mod 2
    assert rep.best_valuation > 0


def test_fekete_greedy_seeded_deterministic():
    p = 3
    phi = trivial_metric(p, 1)
    pool = [Fraction(k) for k in range(30)]
    a = fekete_experiment(phi, 4, pool, exhaustive_limit=10, seed=5)
    b = fekete_experiment(phi, 4, pool, exhaustive_limit=10, seed=5)
    assert not a.exhaustive
    assert a.best_valuation == b.best_valuation
    assert a.best_configs == b.best_configs


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
# The tabulated Fekete search against per-subset Vandermonde oracles.


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


def oracle_local_search(phi, m, pool, seed, search_budget=2_000):
    """The greedy swap search, scoring each trial with vandermonde_value."""
    N = m * phi.d + 1
    rng = random.Random(seed)
    current = rng.sample(pool, N)
    best_val = vandermonde_value(current, phi, m)
    best = [tuple(sorted(current))]
    for _ in range(search_budget):
        improved = False
        outside = [x for x in pool if x not in current]
        for i in range(N):
            for cand in outside:
                trial = current[:i] + [cand] + current[i + 1 :]
                v = vandermonde_value(trial, phi, m)
                if v < best_val or (v == best_val and tuple(sorted(trial)) < best[0]):
                    current = trial
                    best_val, best = v, [tuple(sorted(trial))]
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break
    return best_val, best


def test_fekete_tabulated_matches_subset_oracle():
    tied = 0
    for phi, m, pool in fekete_draws():
        rep = fekete_experiment(phi, m, pool)
        best_val, best, emp = oracle_exhaustive(phi, m, pool)
        assert rep.exhaustive
        assert rep.best_valuation == best_val
        assert rep.best_configs == best
        assert rep.empirical.masses == emp.masses
        tied += len(best) > 1
    assert tied >= 5


def test_fekete_local_search_matches_oracle():
    for phi, m, pool in fekete_draws()[:12]:
        for seed in (0, 7):
            rep = fekete_experiment(phi, m, pool, exhaustive_limit=1, seed=seed)
            best_val, best = oracle_local_search(phi, m, pool, seed)
            assert not rep.exhaustive
            assert rep.best_valuation == best_val
            assert rep.best_configs == best


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
