"""Metamorphic checks: refining the tree, or moving it by an isometry of the
closed unit disc, changes the input but not the answer.

Each map below fixes the Gauss point and keeps every radius, so it moves the
vertex zeta(c, q) to zeta(gamma(c), q) and keeps the tree's shape.  The
volumes, their limit and derivatives, the envelope's Monge-Ampere measure
(pushed forward), the energy, the Riemann-Roch slope and the Fekete optimum
of a pool moved by gamma must come out exactly the same, and the equilibrium
metric of a moved point is the moved equilibrium metric.  z -> 1/z is such a
map on the units, so it is applied to trees whose vertices other than the
Gauss point have unit centers.
"""

import random
from fractions import Fraction

from berkvol.experiments import fekete_experiment
from berkvol.metrics import (
    Metric,
    energy,
    envelope,
    equilibrium_metric,
    ma_measure,
    trivial_metric,
)
from berkvol.sections import unit_ball_valuations
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point, refine
from berkvol.volumes import right_derivative, rr_slope_experiment, vol_limit

from conftest import random_pl_metric, random_psh_metric, random_tree


def move(x, gamma):
    """The image of the disc x under gamma, an isometry of the unit disc."""
    return TreePoint(x.p, gamma(x.center), x.q)


def push(phi, gamma):
    """phi (a Metric or a PLFunction) moved by gamma: each vertex to its
    image, on the tree build_tree makes of the images, values carried over."""
    if isinstance(phi, Metric):
        return Metric(phi.d, push(phi.g, gamma))
    values = {move(v, gamma): x for v, x in phi.values.items()}
    tree = build_tree(phi.tree.p, values)
    assert len(tree.vertices) == len(values)  # an isometry keeps meets
    return PLFunction(tree, values)


def invariants(phi, f, gamma):
    """What must not change when phi and f are moved by gamma: u_1..u_6,
    vol(L, phi, triv), both one-sided derivatives along f, and MA(P(phi))
    as a measure whose atoms are moved by gamma."""
    mu = ma_measure(envelope(phi)).masses
    return (
        unit_ball_valuations(phi, range(1, 7)),
        vol_limit(phi, trivial_metric(phi.p, phi.d)),
        right_derivative(phi, f),
        -right_derivative(phi, f.scale(Fraction(-1))),
        {move(x, gamma): m for x, m in mu.items()},
    )


def test_refinement_and_isometries_keep_every_invariant():
    """120 draws, psh and not, p in {2, 3, 5}, d in {1, 2}, each with a
    direction on the same tree.  Refinement by the vertices of another tree,
    z -> a + u z and z -> z / (1 + p z) leave every invariant unchanged."""
    rng = random.Random(3)
    grown = 0
    for i in range(120):
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2])
        phi = random_psh_metric(p, d, rng) if i % 2 else random_pl_metric(p, d, rng)
        f = random_pl_metric(p, d, rng, tree=phi.tree).g
        same = invariants(phi, f, lambda z: z)

        tree = refine(phi.tree, random_tree(p, rng, digits=3).vertices)
        refined = (phi.on_tree(tree), f.on_tree(tree))
        grown += refined[0].tree.vertices != phi.tree.vertices
        assert invariants(*refined, lambda z: z) == same, i

        a, u = rng.randint(0, p**3), rng.choice([u for u in range(1, 4 * p) if u % p])
        for gamma in (lambda z: a + u * z, lambda z: z / (1 + p * z)):
            assert invariants(push(phi, gamma), push(f, gamma), lambda z: z) == (
                invariants(phi, f, gamma)
            ), i
    assert grown >= 100


def pair_invariants(phi, psi, phi_D, pool, m):
    """energy(phi, psi) of two psh metrics; the slope, target and samples of
    the rr experiment for the divisor phi_D against phi; the best Vandermonde
    valuation from pool and the number of tuples reaching it."""
    rr = rr_slope_experiment(phi_D, phi, range(1, 5))
    fekete = fekete_experiment(phi, m, pool)
    return (
        energy(phi, psi),
        (rr.slope, rr.target, rr.samples),
        (fekete.best_valuation, fekete.n_optima),
    )


def test_isometries_keep_energy_rr_slope_and_fekete_optimum():
    """120 psh draws, p in {2, 3, 5}, d in {1, 2}, each with a second psh
    metric, a nonnegative divisor function on a third tree and a pool of
    points of the closed unit disc.  z -> a + u z and z -> z / (1 + p z)
    move the metrics and the pool and leave every invariant unchanged."""
    rng = random.Random(3)
    for i in range(120):
        p, d, m = rng.choice([2, 3, 5]), rng.choice([1, 2]), rng.choice([1, 2])
        phi, psi = random_psh_metric(p, d, rng), random_psh_metric(p, d, rng)
        divisor = random_pl_metric(p, d, rng).g
        phi_D = PLFunction(divisor.tree, {v: abs(x) for v, x in divisor.values.items()})
        units = [u for u in range(1, 2 * p) if u % p]
        pool = set()
        while len(pool) < m * d + 1 + rng.randint(0, 3):
            pool.add(Fraction(rng.randint(0, p**3), rng.choice(units)))
        same = pair_invariants(phi, psi, phi_D, sorted(pool), m)

        a, u = rng.randint(0, p**3), rng.choice([u for u in range(1, 4 * p) if u % p])
        for gamma in (lambda z: a + u * z, lambda z: z / (1 + p * z)):
            moved = [push(phi, gamma), push(psi, gamma), push(phi_D, gamma)]
            assert pair_invariants(*moved, sorted(gamma(x) for x in pool), m) == same, i


def test_isometries_move_the_equilibrium_metric():
    """200 draws, psh and not, p in {2, 3, 5}, d in {1, 2, 3}, each with a
    point that is a vertex, or lies on or off the tree.  Under z -> a + u z
    and z -> z / (1 + p z) the equilibrium metric of the moved point for the
    moved metric takes the same values at the moved vertices, and its
    measure is d times the Dirac mass at the moved point."""
    rng = random.Random(5)
    for i in range(200):
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2, 3])
        phi = random_psh_metric(p, d, rng) if i % 2 else random_pl_metric(p, d, rng)
        if i % 3:
            x = TreePoint(p, Fraction(rng.randint(0, p**4 - 1)), Fraction(rng.randint(0, 10), 2))
        else:
            x = rng.choice(phi.tree.vertices)
        eq = equilibrium_metric(x, phi)

        a, u = rng.randint(0, p**3), rng.choice([u for u in range(1, 4 * p) if u % p])
        for gamma in (lambda z: a + u * z, lambda z: z / (1 + p * z)):
            moved = equilibrium_metric(move(x, gamma), push(phi, gamma))
            assert moved.g.values == {move(v, gamma): h for v, h in eq.g.values.items()}, i
            assert ma_measure(moved).masses == {move(x, gamma): d}, i


def unit_tree(p, rng):
    """A random meet-closed tree whose vertices other than the Gauss point
    have unit centers: it avoids the class of 0."""
    units = [c for c in range(1, p**3) if c % p]
    pts = [
        TreePoint(p, Fraction(rng.choice(units)), Fraction(rng.randint(1, 4), rng.choice([1, 2])))
        for _ in range(rng.randint(1, 4))
    ]
    return build_tree(p, pts)


def invert(z):
    """z -> 1/z on the units; the Gauss point, named by the center 0, stays."""
    return 1 / z if z else z


def test_inversion_keeps_every_invariant_off_the_class_of_zero():
    """150 draws, psh and not, p in {2, 3, 5}, d in {1, 2}, on trees that
    avoid the class of 0, each with a direction on the same tree, a second
    psh metric, a divisor function and a pool of units.  z -> 1/z fixes the
    Gauss point and leaves every invariant of the two suites above unchanged."""
    rng = random.Random(7)
    for i in range(150):
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2])
        tree = unit_tree(p, rng)
        assert all(v.center.numerator % p for v in tree.vertices if v != gauss_point(p))
        phi = random_psh_metric(p, d, rng, tree) if i % 2 else random_pl_metric(p, d, rng, tree)
        f = random_pl_metric(p, d, rng, tree=tree).g
        assert invariants(push(phi, invert), push(f, invert), lambda z: z) == (
            invariants(phi, f, invert)
        ), i

        if i % 3:
            continue
        m = rng.choice([1, 2])
        phi, psi = random_psh_metric(p, d, rng, tree), random_psh_metric(p, d, rng, unit_tree(p, rng))
        divisor = random_pl_metric(p, d, rng, tree=unit_tree(p, rng)).g
        phi_D = PLFunction(divisor.tree, {v: abs(x) for v, x in divisor.values.items()})
        units = [Fraction(c) for c in range(1, p**4) if c % p]
        pool = rng.sample(units, m * d + 1 + rng.randint(0, 3))
        same = pair_invariants(phi, psi, phi_D, sorted(pool), m)
        moved = [push(phi, invert), push(psi, invert), push(phi_D, invert)]
        assert pair_invariants(*moved, sorted(invert(x) for x in pool), m) == same, i
