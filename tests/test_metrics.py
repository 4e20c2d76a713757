import random
from fractions import Fraction

import pytest

import berkvol.metrics as metrics
from berkvol import simplex
from berkvol.metrics import (
    Metric,
    _solve,
    energy,
    envelope,
    equilibrium_metric,
    is_psh,
    ma_measure,
    trivial_metric,
)
from berkvol.tree import (
    DiscreteMeasure,
    PLFunction,
    TreePoint,
    build_tree,
    gauss_point,
    laplacian,
    meet,
    refine,
)
from berkvol.volumes import _Dual

from conftest import random_pl_metric, random_psh_metric, random_tree, slope_metric
from envelope_oracle import _psh_rows, one_lp_max


def test_trivial_metric_measure():
    for d in (0, 1, 3):
        mu = ma_measure(trivial_metric(2, d))
        if d == 0:
            assert mu.masses == {}
        else:
            assert mu.masses == {gauss_point(2): Fraction(d)}


def test_ma_measure_is_the_anchored_laplacian_in_vertex_order():
    """The one-pass measure equals d delta_Gauss added to the Laplacian of g,
    atoms in the same order: the root first, then the vertex list."""
    rng = random.Random(67)
    for _ in range(200):
        p, d = rng.choice([2, 3, 5]), rng.randint(0, 3)
        for phi in (random_pl_metric(p, d, rng), random_psh_metric(p, d, rng)):
            old = DiscreteMeasure({gauss_point(p): d}).add(laplacian(phi.g)).masses
            new = ma_measure(phi).masses
            assert new == old and list(new.items()) == list(old.items())


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


def test_random_psh_metric_on_a_deep_chain():
    """The generator sums each subtree in one pass from the leaves up, so it
    draws a psh metric on a 2000-vertex chain without a recursion per level."""
    chain = build_tree(2, [TreePoint(2, Fraction(0), Fraction(k)) for k in range(2000)])
    phi = random_psh_metric(2, 3, random.Random(7), tree=chain)
    assert len(phi.tree.vertices) == 2000
    assert ma_measure(phi).total_mass() == 3


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


def test_envelope_of_psh_is_identity(monkeypatch):
    # the greatest psh minorant of a psh metric is the metric: no solve runs
    calls = []
    solve = metrics._solve
    monkeypatch.setattr(metrics, "_solve", lambda *a: calls.append(a) or solve(*a))
    rng = random.Random(23)
    for _ in range(8):
        phi = random_psh_metric(2, 1, rng)
        env = envelope(phi)
        assert env is phi
        assert all(env.g.values[v] == phi.g.values[v] for v in phi.tree.vertices)
    assert calls == []


def test_metric_is_frozen_and_computes_its_measure_once(monkeypatch):
    calls = []
    lap = metrics._slope_sums
    monkeypatch.setattr(metrics, "_slope_sums", lambda g: calls.append(g) or lap(g))
    phi = slope_metric(2, 1, Fraction(-1, 2))
    g = phi.g
    with pytest.raises(AttributeError, match="'d' of a frozen Metric"):
        phi.d = 2
    with pytest.raises(AttributeError, match="'g' of a frozen Metric"):
        phi.g = phi.g.shift(1)
    with pytest.raises(AttributeError, match="'d' of a frozen Metric"):
        del phi.d
    with pytest.raises(AttributeError, match="'g' of a frozen Metric"):
        del phi.g
    assert phi.d == 1 and phi.g is g
    mu = ma_measure(phi)
    want = dict(mu.masses)
    other = ma_measure(slope_metric(2, 1, Fraction(-1)))
    assert mu.add(other).masses != want and mu.scale(3).masses != want
    assert is_psh(phi) and energy(phi, phi) == 0 and envelope(phi) is phi
    assert ma_measure(phi).integrate(phi.g) == Fraction(-1, 4)
    assert ma_measure(phi) is mu and mu.masses == want
    assert len(calls) == 2 and calls[0] is phi.g  # phi's measure, then other's


def test_metric_on_an_equal_vertex_list_is_itself():
    rng = random.Random(29)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        phi = random_pl_metric(p, rng.choice([0, 1, 2]), rng, tree=random_tree(p, rng, 6, digits=3))
        # the same discs under other centers, built in another order
        names = [TreePoint(p, v.center + p**v.k * rng.randint(1, 3), v.q) for v in phi.tree.vertices]
        twin = build_tree(p, rng.sample(names, len(names)))
        assert twin.vertices == phi.tree.vertices
        assert phi.on_tree(phi.tree) is phi and phi.on_tree(twin) is phi
        finer = refine(phi.tree, [TreePoint(p, Fraction(rng.randint(0, p**3)), Fraction(7, 2))])
        if len(finer.vertices) > len(phi.tree.vertices):
            assert phi.on_tree(finer).g.values == {v: phi.value(v) for v in finer.vertices}


def test_energy_matches_the_common_tree_formula():
    """E(phi, psi) read pointwise on each measure's support equals the
    integral of the difference re-expressed on the common refinement."""
    rng = random.Random(31)
    for _ in range(150):
        p, d = rng.choice([2, 3]), rng.choice([1, 2])
        phi, psi = random_psh_metric(p, d, rng), random_psh_metric(p, d, rng)
        tree = build_tree(p, phi.tree.vertices + psi.tree.vertices)
        a, b = phi.on_tree(tree), psi.on_tree(tree)
        diff = PLFunction(tree, {v: a.g.values[v] - b.g.values[v] for v in tree.vertices})
        assert energy(phi, psi) == (ma_measure(a).integrate(diff) + ma_measure(b).integrate(diff)) / 2


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


def test_envelope_rejects_a_feasible_point_below_the_envelope(monkeypatch):
    # P(phi) - 1/7 is psh and below phi, but touches phi nowhere: the contact
    # check, not the psh and h <= g checks, turns it away
    solve = metrics._solve

    def lowered(*args):
        integral, h = solve(*args)
        return integral, {v: x - Fraction(1, 7) for v, x in h.items()}

    monkeypatch.setattr(metrics, "_solve", lowered)
    rng = random.Random(41)
    tried = 0
    while tried < 40:
        phi = random_pl_metric(rng.choice([2, 3, 5]), rng.randint(0, 3), rng)
        if is_psh(phi):
            continue
        tried += 1
        with pytest.raises(metrics.MetricError, match="below the envelope"):
            envelope(phi)
    # contact at the root is not enough when the mass sits at the leaf, below phi
    phi = slope_metric(2, 1, 1)
    root, leaf = phi.tree.vertices
    h = {root: Fraction(0), leaf: Fraction(-1)}
    monkeypatch.setattr(metrics, "_solve", lambda *args: (Fraction(0), h))
    assert ma_measure(Metric(1, PLFunction(phi.tree, h))).masses == {leaf: 1}
    with pytest.raises(metrics.MetricError, match="below the envelope"):
        envelope(phi)


def test_envelope_solve_over_duals_is_the_right_derivative():
    # over obstacles g + eps f the unchanged solve returns P(g) + eps D, and
    # D is the difference quotient of P(g + t f) at a t small enough that
    # the contact set stays fixed, where P is affine in t.  The integral of G
    # is then quadratic in t (an energy of P), so its eps-part is the
    # derivative that the values at t and 2t give exactly
    rng = random.Random(43)
    t = Fraction(1, 10**6)
    for _ in range(100):
        phi = random_pl_metric(rng.choice([2, 3, 5]), rng.randint(0, 3), rng)
        f = random_pl_metric(phi.p, phi.d, rng, tree=phi.tree).g.values
        g = phi.g.values
        (limit, slope), duals = _solve(phi.tree, phi.d, {v: _Dual((g[v], f[v])) for v in g})
        base, h = _solve(phi.tree, phi.d, g)
        (once, moved), (twice, _) = (
            _solve(phi.tree, phi.d, {v: g[v] + s * f[v] for v in g}) for s in (t, 2 * t)
        )
        assert {v: a for v, (a, _) in duals.items()} == h
        assert {v: b for v, (_, b) in duals.items()} == {v: (moved[v] - h[v]) / t for v in g}
        assert limit == base and slope == (4 * once - twice - 3 * base) / (2 * t)


def test_envelope_degree_zero_is_constant_min():
    p = 2
    env = envelope(slope_metric(p, 0, Fraction(1)))
    assert all(v == 0 for v in env.g.values.values())
    env2 = envelope(slope_metric(p, 0, Fraction(-1)))
    assert all(v == -1 for v in env2.g.values.values())


def test_envelope_degree_zero_is_min_on_random_metrics():
    # psh metrics on O(0) are the constants: the general recursion, with
    # no mass at the root, lands on min g for every non-constant draw
    rng = random.Random(17)
    drawn = 0
    while drawn < 600:
        phi = random_pl_metric(rng.choice([2, 3, 5]), 0, rng)
        low = phi.g.min_value()
        if all(v == low for v in phi.g.values.values()):
            continue
        drawn += 1
        env = envelope(phi)
        assert env.tree is phi.tree
        assert all(v == low for v in env.g.values.values())


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
    assert ma_measure(phi).integrate(f) == Fraction(-1, 4)


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
        eq = equilibrium_metric(x, phi).g.values
        assert eq == per_vertex_maxima(tree, d, {x: gx}, gx)
        assert eq == {v: gx + d * (x.q - meet(x, v).q) for v in tree.vertices}


def _point_of_kind(kind, tree, rng):
    """A point at a vertex, strictly inside an edge, off the tree, or the Gauss point."""
    p = tree.p
    if kind == "vertex":
        return rng.choice(tree.vertices)
    if kind == "gauss":
        return gauss_point(p)
    if kind == "edge":
        v = rng.choice(tree.vertices[1:])
        u = tree.parent[v]
        return TreePoint(p, v.center, u.q + (v.q - u.q) * Fraction(rng.randint(1, 3), 4))
    while True:  # off the tree: the retraction moves the point
        x = TreePoint(p, Fraction(rng.randint(0, p**4 - 1)), Fraction(rng.randint(1, 10), 2))
        if tree.retract(x.center, x.q) != x:
            return x


def test_envelope_recursion_matches_lp_oracle():
    """The knot-list recursion equals the one-LP solve, exactly, on every draw."""
    rng = random.Random(43)
    # (a vertex, on the tree) for each kind of equilibrium point
    kinds = {"vertex": (True, True), "edge": (False, True), "off": (False, False), "gauss": (True, True)}
    big = 0
    for i in range(2000):
        p = rng.choice([2, 3, 5])
        d = rng.choice([1, 2, 3])
        draw = random_pl_metric if rng.random() < 0.6 else random_psh_metric
        phi = draw(p, d, rng, tree=random_tree(p, rng, 8 if i % 10 == 9 else 3, digits=3))
        tree, g = phi.tree, phi.g
        big += len(tree.vertices) >= 10
        want = one_lp_max(tree, d, g.values, g.min_value())
        # envelope skips the recursion on a psh phi, so it is also run directly
        assert _solve(tree, d, g.values)[1] == want
        assert envelope(phi).g.values == want

        kind = list(kinds)[i % 4]
        x = _point_of_kind(kind, tree, rng)
        assert (x in tree.vertices, tree.retract(x.center, x.q) == x) == kinds[kind]
        refined = refine(tree, [x])
        gx = g.on_tree(refined).values[x]
        eq = equilibrium_metric(x, phi).g.values
        assert eq == one_lp_max(refined, d, {x: gx}, gx)
        # the point's Green function, whose value at the root is the cap
        assert eq == {v: gx + d * (x.q - meet(x, v).q) for v in refined.vertices}

        if i % 2:
            continue
        # an obstacle on a random subset of the vertices, completed by the
        # cap min_s (b_s + d q_s) that every psh h <= b on the subset obeys;
        # the LP sees only the subset, so it proves the cap binds nothing
        some = {v: g.values[v] for v in tree.vertices if rng.random() < 0.4}
        some = some or {tree.vertices[-1]: g.values[tree.vertices[-1]]}
        cap = min(b + d * s.q for s, b in some.items())
        full = {**dict.fromkeys(tree.vertices, cap), **some}
        assert _solve(tree, d, full)[1] == one_lp_max(tree, d, some, min(some.values()))
    assert big >= 10


def _cherry(p=2):
    """The Gauss point, zeta(0, 1) below it, and two leaves zeta(0, 2), zeta(2, 2)."""
    root, c = gauss_point(p), TreePoint(p, Fraction(0), Fraction(1))
    l1, l2 = TreePoint(p, Fraction(0), Fraction(2)), TreePoint(p, Fraction(2), Fraction(2))
    return build_tree(p, [root, c, l1, l2]), (root, c, l1, l2)


def test_envelope_knot_at_the_obstacle_value():
    # W_l1 has a knot at 0 and W_l2 at 1 = g(c): that child knot is not kept
    # below the cap, the cap's own knot replaces it.  Mass lands at l1.
    tree, (root, c, l1, l2) = _cherry()
    g = {root: Fraction(5), c: Fraction(1), l1: Fraction(0), l2: Fraction(1)}
    env = envelope(Metric(1, PLFunction(tree, g)))
    assert env.g.values == {root: 2, c: 1, l1: 0, l2: 1}
    assert ma_measure(env).masses == {l1: 1}
    assert env.g.values == one_lp_max(tree, 1, g, Fraction(0))


def test_envelope_children_with_coinciding_knots():
    # both leaves have their only knot at 0; c keeps one knot there
    tree, (root, c, l1, l2) = _cherry()
    g = {root: Fraction(5), c: Fraction(5), l1: Fraction(0), l2: Fraction(0)}
    env = envelope(Metric(2, PLFunction(tree, g)))
    assert env.g.values == {root: 3, c: 1, l1: 0, l2: 0}
    assert ma_measure(env).masses == {l1: 1, l2: 1}
    assert env.g.values == one_lp_max(tree, 2, g, Fraction(0))


def test_equilibrium_obstacle_only_at_a_leaf():
    # h = g(l1) + d (q(l1) - q(. ^ l1)): the other leaf stays at h(c)
    tree, (root, c, l1, l2) = _cherry()
    phi = Metric(1, PLFunction(tree, {root: 0, c: 0, l1: Fraction(-1, 2), l2: 7}))
    eq = equilibrium_metric(l1, phi)
    assert eq.g.values == {root: Fraction(3, 2), c: Fraction(1, 2), l1: Fraction(-1, 2), l2: Fraction(1, 2)}
    assert ma_measure(eq).masses == {l1: 1}
