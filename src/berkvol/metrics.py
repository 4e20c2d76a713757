"""Continuous PL metrics on O(d) over the Berkovich line.

A metric is the trivial model metric of O(d) twisted by a PL function g.
Its Monge-Ampere measure is d times the Dirac mass at the Gauss point
plus the tree Laplacian of g; psh means that measure is nonnegative.
Envelopes and equilibrium metrics are greatest psh minorants of an
obstacle, found exactly by one leaf-to-root and one root-to-leaf pass
over the tree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

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


def energy(phi: Metric, psi: Metric) -> Fraction:
    """E(phi, psi) = (1/2) [ int (phi-psi) MA(phi) + int (phi-psi) MA(psi) ]."""
    if phi.d != psi.d:
        raise MetricError("metrics live on different line bundles")
    if phi.d < 1:
        raise MetricError("energy needs d >= 1")
    if not (is_psh(phi) and is_psh(psi)):
        raise MetricError("energy requires psh inputs")
    tree = refine(phi.tree, psi.tree.vertices)
    a, b = phi.on_tree(tree), psi.on_tree(tree)
    diff = PLFunction(tree, {v: a.g.values[v] - b.g.values[v] for v in tree.vertices})
    total = ma_measure(a).integrate(diff) + ma_measure(b).integrate(diff)
    return total / 2


#: A concave, nondecreasing PL function W of one variable, as the lists
#: (zs, ws, slopes): its knots (zs[i], ws[i]) in increasing order and the
#: slope right of each knot.  Left of the first knot W is the identity.
_Knots = Tuple[List[Fraction], List[Fraction], List[Fraction]]


def _eval(W: _Knots, z: Fraction) -> Fraction:
    zs, ws, slopes = W
    i = bisect_right(zs, z) - 1
    return z if i < 0 else ws[i] + slopes[i] * (z - zs[i])


def _componentwise_max(
    tree: SkeletonTree, d: int, obstacle: Dict[TreePoint, Fraction]
) -> Dict[TreePoint, Fraction]:
    """Componentwise maximum of {h psh-feasible, h <= obstacle where given}.

    With s_c = (h(parent) - h(c)) / L_c the slope into c, psh means
    s_v >= sum_{children c} s_c at each non-root vertex v and
    sum_{children of the root} s_c <= d.  Leaf to root, W_c(z) is the
    greatest value at c when its parent has value z:
    W_c(z) = min(g(c), T_c^{-1}(z)) with
    T_c(w) = w + L_c sum_{c'} (w - W_{c'}(w)) / L_{c'} over the children
    c' of c, and W_c has a knot (T_c(x), x) at each child knot x < g(c)
    and at x = g(c).  The root takes the largest z with
    sum_c (z - W_c(z)) / L_c <= d, capped by its obstacle; root to leaf,
    h(c) = W_c(h(parent)).
    """
    W: Dict[TreePoint, _Knots] = {}

    def knots_and_deficits(v: TreePoint, cap) -> Tuple[List[Fraction], List[Fraction], Fraction]:
        # the children's knots below cap, sum_c (x - W_c(x)) / L_c at each,
        # and that sum's slope right of the last knot
        kids = [(W[c], tree.edge_length(c)) for c in tree.children[v]]
        xs = sorted({z for Wc, _ in kids for z in Wc[0] if cap is None or z < cap})
        if cap is not None:
            xs.append(cap)
        fs = [sum(((x - _eval(Wc, x)) / L for Wc, L in kids), Fraction(0)) for x in xs]
        tail = sum(((1 - Wc[2][-1]) / L for Wc, L in kids), Fraction(0))
        return xs, fs, tail

    for c in reversed(tree.vertices[1:]):
        L, cap = tree.edge_length(c), obstacle.get(c)
        xs, fs, tail = knots_and_deficits(c, cap)
        zs = [x + L * f for x, f in zip(xs, fs)]
        slopes = [(x1 - x0) / (z1 - z0) for x0, x1, z0, z1 in zip(xs, xs[1:], zs, zs[1:])]
        slopes.append(Fraction(0) if cap is not None else 1 / (1 + L * tail))
        W[c] = (zs, xs, slopes)

    xs, fs, tail = knots_and_deficits(tree.root, None)
    z = None
    if xs:  # fs is nondecreasing from fs[0] = 0
        k = bisect_right(fs, d) - 1
        rate = tail if k + 1 == len(xs) else (fs[k + 1] - fs[k]) / (xs[k + 1] - xs[k])
        if rate > 0:
            z = xs[k] + (d - fs[k]) / rate
    top = obstacle.get(tree.root)
    if top is not None and (z is None or top < z):
        z = top
    if z is None:
        raise MetricError("no obstacle bounds the psh minorant")
    h = {tree.root: z}
    for c in tree.vertices[1:]:
        h[c] = _eval(W[c], h[tree.parent[c]])
    return h


def envelope(phi: Metric) -> Metric:
    """Greatest psh metric <= phi, as a PL metric on the same tree.

    On each edge the obstacle is affine, so the solution is affine there
    and the problem is a finite obstacle problem in the vertex values.
    """
    if phi.d == 0:
        # psh metrics on O(0) are the constants, so the envelope is min g
        return Metric(0, constant_function(phi.tree, phi.g.min_value()))
    g = phi.g
    hvals = _componentwise_max(phi.tree, phi.d, g.values)
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
    hvals = _componentwise_max(tree, phi.d, {x: g.values[x]})
    eq = Metric(phi.d, PLFunction(tree, hvals))
    if not is_psh(eq) or eq.g.values[x] > g.values[x]:
        raise MetricError("equilibrium solve returned an infeasible point")
    return eq


def integrate_against(phi: Metric, f: PLFunction) -> Fraction:
    """int f d(MA(phi)), exactly."""
    return ma_measure(phi).integrate(f)
