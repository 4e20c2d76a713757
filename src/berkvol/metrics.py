"""Continuous PL metrics on O(d) over the Berkovich line.

A metric is the trivial model metric of O(d) twisted by a PL function g.
Its Monge-Ampere measure is d times the Dirac mass at the Gauss point
plus the tree Laplacian of g; psh means that measure is nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from . import simplex
from .errors import BerkvolError
from .tree import (
    DiscreteMeasure,
    PLFunction,
    SkeletonTree,
    TreePoint,
    build_tree,
    constant_function,
    gauss_point,
    laplacian,
    refine,
)


class MetricError(BerkvolError):
    pass


@dataclass
class Metric:
    d: int
    g: PLFunction

    def __post_init__(self):
        if self.d < 0:
            raise MetricError("degree must be nonnegative")

    @property
    def tree(self) -> SkeletonTree:
        return self.g.tree

    @property
    def p(self) -> int:
        return self.g.tree.p

    def on_tree(self, new_tree: SkeletonTree) -> "Metric":
        return Metric(self.d, self.g.on_tree(new_tree))

    def shift(self, c: Fraction) -> "Metric":
        return Metric(self.d, self.g.shift(c))

    def value(self, x: TreePoint) -> Fraction:
        """phi - phi_triv at x; on the unit-disc region phi_triv vanishes."""
        return self.g.evaluate(x)


def trivial_metric(p: int, d: int) -> Metric:
    tree = build_tree(p, [])
    return Metric(d, constant_function(tree, Fraction(0)))


def ma_measure(phi: Metric) -> DiscreteMeasure:
    """d * delta_Gauss + Laplacian(g); total mass is exactly d."""
    anchor = DiscreteMeasure({gauss_point(phi.p): Fraction(phi.d)})
    return anchor.add(laplacian(phi.g))


def is_psh(phi: Metric) -> bool:
    return all(m >= 0 for m in ma_measure(phi).masses.values())


def common_tree(*metrics: Metric) -> SkeletonTree:
    pts: List[TreePoint] = []
    for m in metrics:
        pts.extend(m.tree.vertices)
    return build_tree(metrics[0].p, pts)


def energy(phi: Metric, psi: Metric) -> Fraction:
    """E(phi, psi) = (1/2) [ int (phi-psi) MA(phi) + int (phi-psi) MA(psi) ]."""
    if phi.d != psi.d:
        raise MetricError("metrics live on different line bundles")
    if phi.d < 1:
        raise MetricError("energy needs d >= 1")
    if not (is_psh(phi) and is_psh(psi)):
        raise MetricError("energy requires psh inputs")
    tree = common_tree(phi, psi)
    a, b = phi.on_tree(tree), psi.on_tree(tree)
    diff = PLFunction(tree, {v: a.g.values[v] - b.g.values[v] for v in tree.vertices})
    total = ma_measure(a).integrate(diff) + ma_measure(b).integrate(diff)
    return total / 2


def _psh_rows(
    tree: SkeletonTree, d: int
) -> Tuple[List[List[Fraction]], List[Fraction], List[TreePoint]]:
    """Rows of 'MA mass at v >= 0' as sum_u (h_v - h_u)/len <= anchor_v.

    Written in shifted variables; constants cancel, so the rows are the
    same for h and for h - const.
    """
    verts = tree.vertices
    idx = {v: i for i, v in enumerate(verts)}
    rows, rhs = [], []
    for v in verts:
        row = [Fraction(0)] * len(verts)
        for u in tree.neighbors(v):
            length = v.q - u.q if tree.parent[v] == u else u.q - v.q
            length = abs(length)
            row[idx[v]] += Fraction(1) / length
            row[idx[u]] -= Fraction(1) / length
        rows.append(row)
        rhs.append(Fraction(d) if v == tree.root else Fraction(0))
    return rows, rhs, verts


def _componentwise_max(
    tree: SkeletonTree,
    d: int,
    obstacle: Dict[TreePoint, Fraction],
    base: Fraction,
) -> Dict[TreePoint, Fraction]:
    """Componentwise maximum of {h psh-feasible, h <= obstacle where given}.

    The feasible set is closed under max, so it has a greatest element h*.
    One exact LP maximizing sum_v h_v finds it: a maximizer h satisfies
    h <= h* with the same sum, hence h = h*.  `base` must be a feasible
    constant, which keeps the shifted problem in the b >= 0 form the
    solver wants.
    """
    rows, rhs, verts = _psh_rows(tree, d)
    idx = {v: i for i, v in enumerate(verts)}
    A = [row[:] for row in rows]
    b = list(rhs)
    for v, bound in obstacle.items():
        row = [Fraction(0)] * len(verts)
        row[idx[v]] = Fraction(1)
        A.append(row)
        b.append(bound - base)
        if bound - base < 0:
            raise MetricError("base constant is not feasible")
    _, h = simplex.maximize([Fraction(1)] * len(verts), A, b)
    return {v: base + h[idx[v]] for v in verts}


def envelope(phi: Metric) -> Metric:
    """Greatest psh metric <= phi, as a PL metric on the same tree.

    On each edge the obstacle is affine, so the solution is affine there
    and the problem is a finite obstacle problem in the vertex values.
    """
    if phi.d == 0:
        # psh metrics on O(0) are the constants, so the envelope is min g
        return Metric(0, constant_function(phi.tree, phi.g.min_value()))
    g = phi.g
    base = g.min_value()
    obstacle = {v: g.values[v] for v in phi.tree.vertices}
    hvals = _componentwise_max(phi.tree, phi.d, obstacle, base)
    env = Metric(phi.d, PLFunction(phi.tree, hvals))
    if not is_psh(env) or any(env.g.values[v] > g.values[v] for v in phi.tree.vertices):
        raise MetricError("envelope solve returned an infeasible point")
    return env


def equilibrium_metric(x: TreePoint, phi: Metric) -> Metric:
    """Greatest psh metric whose value at x is at most phi(x)."""
    if phi.d < 1:
        raise MetricError("equilibrium metric needs d >= 1")
    tree = refine(phi.tree, [x])
    g = phi.g.on_tree(tree)
    base = g.values[x]
    hvals = _componentwise_max(tree, phi.d, {x: g.values[x]}, base)
    eq = Metric(phi.d, PLFunction(tree, hvals))
    if not is_psh(eq) or eq.g.values[x] > g.values[x]:
        raise MetricError("equilibrium solve returned an infeasible point")
    return eq


def integrate_against(phi: Metric, f: PLFunction) -> Fraction:
    """int f d(MA(phi)), exactly."""
    return ma_measure(phi).integrate(f)
