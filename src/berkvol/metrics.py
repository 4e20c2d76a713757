"""Continuous PL metrics on O(d) over the Berkovich line.

A metric is the trivial model metric of O(d) twisted by a PL function g.
Its Monge-Ampere measure is d times the Dirac mass at the Gauss point
plus the tree Laplacian of g; psh means that measure is nonnegative.
A Metric is immutable and computes that measure at most once: ma_measure,
is_psh, energy, envelope and equilibrium_metric all read the same one.
Envelopes and equilibrium metrics are greatest psh minorants of an
obstacle, found exactly by one leaf-to-root and one root-to-leaf pass
over the tree; the envelope of a psh metric is the metric itself.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property
from fractions import Fraction
from typing import Any, Dict, List, Tuple

from .errors import BerkvolError, Frozen
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


class Metric(Frozen):
    def __init__(self, d: int, g: PLFunction):
        if d < 0:
            raise MetricError("degree must be nonnegative")
        self.__dict__.update(d=d, g=g)

    @cached_property
    def _measure(self) -> DiscreteMeasure:
        """The measure ma_measure returns, computed on first use."""
        anchor = DiscreteMeasure({gauss_point(self.p): Fraction(self.d)})
        return anchor.add(laplacian(self.g))

    @property
    def tree(self) -> SkeletonTree:
        return self.g.tree

    @property
    def p(self) -> int:
        return self.g.tree.p

    def on_tree(self, new_tree: SkeletonTree) -> "Metric":
        """The same metric on a refinement; itself on an equal vertex list."""
        g = self.g.on_tree(new_tree)
        return self if g is self.g else Metric(self.d, g)

    def shift(self, c: Fraction) -> "Metric":
        return Metric(self.d, self.g.shift(c))

    def value(self, x: TreePoint) -> Fraction:
        """phi - phi_triv at x; on the unit-disc region phi_triv vanishes."""
        return self.g.evaluate(x)


def trivial_metric(p: int, d: int) -> Metric:
    tree = build_tree(p, [])
    return Metric(d, constant_function(tree, Fraction(0)))


def ma_measure(phi: Metric) -> DiscreteMeasure:
    """d * delta_Gauss + Laplacian(g); total mass is exactly d.

    Computed once per metric and shared by every caller: add and scale
    return new measures.
    """
    return phi._measure


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
    # each measure sits on its own metric's vertices, where phi - psi is read
    # pointwise, so no common tree is built
    total = sum(
        (m * (phi.value(x) - psi.value(x)) for mu in (ma_measure(phi), ma_measure(psi))
         for x, m in mu.masses.items()),
        Fraction(0),
    )
    return total / 2


#: A concave, nondecreasing PL function W of one variable, as the lists
#: (zs, ws, slopes): its knots (zs[i], ws[i]) in increasing order and the
#: slope right of each knot.  Left of the first knot W is the identity.
_Knots = Tuple[List[Fraction], List[Fraction], List[Fraction]]


def _eval(W: _Knots, z: Fraction) -> Fraction:
    zs, ws, slopes = W
    i = bisect_right(zs, z) - 1
    return z if i < 0 else ws[i] + slopes[i] * (z - zs[i])


def _leaf_to_root(tree: SkeletonTree, obstacle: Dict[TreePoint, Any], zero):
    """W_c for every non-root vertex c, and the root's (xs, fs, tail).

    With s_c = (h(parent) - h(c)) / L_c the slope into c, psh means
    s_v >= sum_{children c} s_c at each non-root vertex v and
    sum_{children of the root} s_c <= d.  W_c(z) is the greatest value
    at c when its parent has value z: W_c(z) = min(g(c), T_c^{-1}(z)) with
    T_c(w) = w + L_c sum_{c'} (w - W_{c'}(w)) / L_{c'} over the children
    c' of c.  At a vertex, xs holds the children's knots below its
    obstacle g, then g; fs the deficit sum_c (x - W_c(x)) / L_c at each x,
    nondecreasing from 0; tail its slope past the last child knot.  Only
    field operations and comparisons run, from zero, a Fraction or a dual.
    """
    W: Dict[TreePoint, _Knots] = {}

    def knots_and_deficits(v: TreePoint):
        cap = obstacle.get(v)
        kids = [(W[c], tree.edge_length(c)) for c in tree.children[v]]
        xs = sorted({z for Wc, _ in kids for z in Wc[0] if cap is None or z < cap})
        if cap is not None:
            xs.append(cap)
        # W_c is the identity up to its first knot, where c adds no deficit
        fs = [sum(((x - _eval(Wc, x)) / L for Wc, L in kids if Wc[0] and Wc[0][0] < x), zero)
              for x in xs]
        tail = sum(((1 - Wc[2][-1]) / L for Wc, L in kids), zero)
        return xs, fs, tail

    for c in reversed(tree.vertices[1:]):
        L = tree.edge_length(c)
        xs, fs, tail = knots_and_deficits(c)
        zs = [x + L * f for x, f in zip(xs, fs)]
        slopes = [(x1 - x0) / (z1 - z0) for x0, x1, z0, z1 in zip(xs, xs[1:], zs, zs[1:])]
        slopes.append(zero if c in obstacle else 1 / (1 + L * tail))
        W[c] = (zs, xs, slopes)
    return W, knots_and_deficits(tree.root)


def _componentwise_max(
    tree: SkeletonTree, d: int, obstacle: Dict[TreePoint, Fraction]
) -> Dict[TreePoint, Fraction]:
    """Componentwise maximum of {h psh-feasible, h <= obstacle where given}.

    The root takes the largest z with deficit at most d, capped by its
    obstacle; root to leaf, h(c) = W_c(h(parent)).
    """
    W, (xs, fs, tail) = _leaf_to_root(tree, obstacle, Fraction(0))
    k = bisect_right(fs, d) - 1  # no knot: k = -1, tail = 0, and no z
    if k + 1 < len(xs):
        z = xs[k] + (d - fs[k]) * (xs[k + 1] - xs[k]) / (fs[k + 1] - fs[k])
    elif tree.root in obstacle:  # the root's obstacle, the last knot, binds
        z = xs[k]
    elif tail > 0:
        z = xs[k] + (d - fs[k]) / tail
    else:
        raise MetricError("no obstacle bounds the psh minorant")
    h = {tree.root: z}
    for c in tree.vertices[1:]:
        h[c] = _eval(W[c], h[tree.parent[c]])
    return h


def envelope(phi: Metric) -> Metric:
    """Greatest psh metric <= phi, as a PL metric on the same tree: phi
    itself when phi is psh.

    On each edge the obstacle is affine, so the solution is affine there
    and the problem is a finite obstacle problem in the vertex values.
    """
    if is_psh(phi):
        return phi
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
