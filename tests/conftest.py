import math
import random
from fractions import Fraction

import pytest

from berkvol.metrics import Metric, is_psh
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point


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

    def subtree_mass(v):
        return masses[v] + sum(subtree_mass(c) for c in tree.children[v])

    values = {tree.root: Fraction(0)}
    order = sorted(verts, key=lambda v: v.q)
    for v in order:
        if v == tree.root:
            continue
        u = tree.parent[v]
        values[v] = values[u] - subtree_mass(v) * tree.edge_length(v)
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
    tree = random_chain_tree(p, rng, center)
    verts = sorted(tree.vertices, key=lambda v: v.q)
    weights = [Fraction(rng.randint(0, 4)) for _ in verts]
    total = sum(weights) or Fraction(1)
    if sum(weights) == 0:
        weights[0] = Fraction(1)
    masses = [d * w / total for w in weights]
    values = {verts[0]: Fraction(0)}
    for i in range(1, len(verts)):
        below = sum(masses[i:], Fraction(0))
        values[verts[i]] = values[verts[i - 1]] - below * (verts[i].q - verts[i - 1].q)
    phi = Metric(d, PLFunction(tree, values))
    assert is_psh(phi)
    return phi


def random_pl_metric(p: int, d: int, rng: random.Random, tree=None) -> Metric:
    """Random PL metric with no curvature constraint."""
    tree = tree if tree is not None else random_tree(p, rng)
    values = {
        v: Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
        for v in tree.vertices
    }
    values[tree.root] = Fraction(0)
    return Metric(d, PLFunction(tree, values))


@pytest.fixture
def rng():
    return random.Random(20260826)
