import math
import random
from fractions import Fraction

import pytest

from berkvol.field import padic_valuation
from berkvol.metrics import Metric, is_psh
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point


def is_below(x: TreePoint, y: TreePoint) -> bool:
    """x <= y in the tree order (x on the path from the Gauss point to y)."""
    return x.q <= y.q and padic_valuation(x.center - y.center, x.p) >= x.q


def random_tree(p: int, rng: random.Random, max_extra: int = 4, digits: int = 2):
    """A meet-closed random tree rooted at the Gauss point."""
    pts = [gauss_point(p)]
    for _ in range(rng.randint(1, max_extra)):
        center = Fraction(rng.randint(0, p ** digits - 1))
        q = Fraction(rng.choice([1, 2, 3, 4]), rng.choice([1, 2]))
        pts.append(TreePoint(p, center, q))
    return build_tree(p, pts)


def random_psh_metric(p: int, d: int, rng: random.Random, tree=None) -> Metric:
    """Draw a psh metric by distributing the total mass d over the vertices.

    Assign each vertex a nonnegative rational mass summing to d, then
    integrate: the slope on the edge above v is minus the mass in the
    subtree of v, which makes every Monge-Ampere mass land where chosen.
    """
    tree = tree if tree is not None else random_tree(p, rng)
    verts = tree.vertices
    weights = [Fraction(rng.randint(0, 4)) for _ in verts]
    total = sum(weights)
    if total == 0:
        weights[0] = Fraction(1)
        total = Fraction(1)
    masses = {v: d * w / total for v, w in zip(verts, weights)}
    # vertices are sorted by q, so one pass from the leaves up sums each subtree
    subtree_mass = dict(masses)
    for v in reversed(verts[1:]):
        subtree_mass[tree.parent[v]] += subtree_mass[v]

    values = {tree.root: Fraction(0)}
    for v in verts[1:]:
        values[v] = values[tree.parent[v]] - subtree_mass[v] * tree.edge_length(v)
    phi = Metric(d, PLFunction(tree, values))
    assert is_psh(phi)
    return phi


def random_chain_tree(p: int, rng: random.Random, center: int = 0):
    """Random tree along a single path of discs around `center`.

    Off 0, each disc of radius p^-q is named by a random representative
    of `center` modulo p^ceil(q).
    """
    qs = sorted(rng.sample([Fraction(k, 2) for k in range(1, 9)], rng.randint(1, 3)))
    pts = [gauss_point(p)]
    for q in qs:
        a = center + p ** math.ceil(q) * rng.randint(0, p - 1) if center else 0
        pts.append(TreePoint(p, Fraction(a), q))
    return build_tree(p, pts)


def random_psh_chain_metric(p: int, d: int, rng: random.Random, center: int = 0) -> Metric:
    """Psh metric on a chain tree; these hit the diagonal single-center path."""
    return random_psh_metric(p, d, rng, tree=random_chain_tree(p, rng, center))


def random_pl_metric(p: int, d: int, rng: random.Random, tree=None) -> Metric:
    """Random PL metric with no curvature constraint."""
    tree = tree if tree is not None else random_tree(p, rng)
    values = {
        v: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
        for v in tree.vertices
    }
    values[tree.root] = Fraction(0)
    return Metric(d, PLFunction(tree, values))


def slope_metric(p: int, d: int, slope, depth=1, center=0) -> Metric:
    """Degree-d metric on the one edge from the Gauss point down to
    zeta(center, q=depth), with the given slope along it."""
    x = TreePoint(p, Fraction(center), Fraction(depth))
    tree = build_tree(p, [x])
    return Metric(d, PLFunction(tree, {tree.root: Fraction(0), x: slope * depth}))


def tent_function(p: int, height=1) -> PLFunction:
    """The direction that rises by height from the Gauss point to zeta(0, q=1)."""
    x = TreePoint(p, Fraction(0), Fraction(1))
    return PLFunction(build_tree(p, [x]), {gauss_point(p): Fraction(0), x: height})


@pytest.fixture
def rng():
    return random.Random(20260826)
