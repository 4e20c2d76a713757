import random
from fractions import Fraction

import pytest

from berkvol import simplex
from berkvol.metrics import (
    Metric,
    _psh_rows,
    energy,
    envelope,
    equilibrium_metric,
    integrate_against,
    is_psh,
    ma_measure,
    trivial_metric,
)
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point, refine

from conftest import random_pl_metric, random_psh_metric


def slope_metric(p, d, slope, depth=1):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(depth))
    tree = build_tree(p, [g0, x])
    return Metric(d, PLFunction(tree, {g0: Fraction(0), x: slope * depth}))


def test_trivial_metric_measure():
    for d in (0, 1, 3):
        mu = ma_measure(trivial_metric(2, d))
        if d == 0:
            assert mu.masses == {}
        else:
            assert mu.masses == {gauss_point(2): Fraction(d)}


def test_ma_measure_half_half():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    mu = ma_measure(phi)
    g0 = gauss_point(2)
    x = TreePoint(2, Fraction(0), Fraction(1))
    assert mu.masses == {g0: Fraction(1, 2), x: Fraction(1, 2)}
    assert is_psh(phi)


def test_total_mass_equals_degree_randomized():
    rng = random.Random(5)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        phi = random_psh_metric(rng.choice([2, 3]), d, rng)
        assert ma_measure(phi).total_mass() == d
        phi2 = random_pl_metric(2, d, rng)
        assert ma_measure(phi2).total_mass() == d


def test_is_psh_detects_negative_mass():
    bad = slope_metric(2, 1, Fraction(1, 2))
    assert not is_psh(bad)


def test_energy_of_slope_metric():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    assert energy(phi, trivial_metric(2, 1)) == Fraction(-1, 8)


def test_energy_cocycle_symmetry_monotone():
    rng = random.Random(13)
    for _ in range(10):
        a = random_psh_metric(2, 2, rng)
        b = random_psh_metric(2, 2, rng)
        c = random_psh_metric(2, 2, rng)
        eab = energy(a, b)
        eba = energy(b, a)
        assert eab == -eba
        assert energy(a, c) == eab + energy(b, c)


def test_energy_shift():
    phi = slope_metric(3, 2, Fraction(-1))
    c = Fraction(5, 3)
    # E(phi + c, phi) = c * d
    assert energy(phi.shift(c), phi) == c * 2


def test_envelope_of_psh_is_identity():
    rng = random.Random(23)
    for _ in range(8):
        phi = random_psh_metric(2, 1, rng)
        env = envelope(phi)
        assert all(env.g.values[v] == phi.g.values[v] for v in phi.tree.vertices)


def test_envelope_tent():
    # tent obstacle: 0 at the root, 1 at depth 1; the best psh minorant is 0
    phi = slope_metric(2, 1, Fraction(1))
    env = envelope(phi)
    assert all(v == 0 for v in env.g.values.values())
    assert is_psh(env)


def test_envelope_vee():
    p = 2
    g0 = gauss_point(p)
    mid = TreePoint(p, Fraction(0), Fraction(1))
    leaf = TreePoint(p, Fraction(0), Fraction(2))
    tree = build_tree(p, [g0, mid, leaf])
    g = PLFunction(tree, {g0: Fraction(0), mid: Fraction(1, 2), leaf: Fraction(0)})
    env = envelope(Metric(1, g))
    assert env.g.values == {g0: Fraction(0), mid: Fraction(0), leaf: Fraction(0)}


def test_envelope_dominates_random_psh_minorants():
    rng = random.Random(37)
    for _ in range(10):
        phi = random_pl_metric(2, 2, rng)
        env = envelope(phi)
        assert is_psh(env)
        assert all(
            env.g.evaluate(v) <= phi.g.values[v] for v in phi.tree.vertices
        )
        # any psh competitor pushed below the obstacle must stay below env
        for _ in range(5):
            psi = random_psh_metric(2, 2, rng)
            gap = min(
                phi.g.evaluate(v) - psi.g.evaluate(v)
                for v in set(phi.tree.vertices) | set(psi.tree.vertices)
            )
            shifted = psi.shift(gap)
            for v in set(phi.tree.vertices) | set(psi.tree.vertices):
                assert shifted.g.evaluate(v) <= env.g.evaluate(v)


def test_envelope_degree_zero_is_constant_min():
    p = 2
    env = envelope(slope_metric(p, 0, Fraction(1)))
    assert all(v == 0 for v in env.g.values.values())
    env2 = envelope(slope_metric(p, 0, Fraction(-1)))
    assert all(v == -1 for v in env2.g.values.values())


def test_equilibrium_metric_is_dirac():
    p = 2
    x = TreePoint(p, Fraction(0), Fraction(1))
    phi = trivial_metric(p, 1)
    eq = equilibrium_metric(x, phi)
    mu = ma_measure(eq)
    assert mu.masses == {x: Fraction(1)}
    assert eq.g.evaluate(x) == phi.g.evaluate(x)


def test_integrate_against():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    f = phi.g
    assert integrate_against(phi, f) == Fraction(-1, 4)


def per_vertex_maxima(tree, d, obstacle, base):
    """Oracle: the greatest feasible element, one LP per vertex."""
    rows, rhs, verts = _psh_rows(tree, d)
    idx = {v: i for i, v in enumerate(verts)}
    A, b = [row[:] for row in rows], list(rhs)
    for v, bound in obstacle.items():
        row = [Fraction(0)] * len(verts)
        row[idx[v]] = Fraction(1)
        A.append(row)
        b.append(bound - base)
    out = {}
    for v in verts:
        c = [Fraction(0)] * len(verts)
        c[idx[v]] = Fraction(1)
        val, _ = simplex.maximize(c, A, b)
        out[v] = base + val
    return out


def test_one_lp_matches_per_vertex_lps():
    rng = random.Random(41)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2, 3])
        draw = random_pl_metric if rng.random() < 0.7 else random_psh_metric
        phi = draw(p, d, rng)
        g = phi.g
        want = per_vertex_maxima(phi.tree, d, dict(g.values), g.min_value())
        assert envelope(phi).g.values == want

        x = TreePoint(p, Fraction(rng.randint(0, p * p - 1)), Fraction(rng.randint(0, 8), 2))
        tree = refine(phi.tree, [x])
        gx = g.on_tree(tree).values[x]
        assert equilibrium_metric(x, phi).g.values == per_vertex_maxima(tree, d, {x: gx}, gx)
