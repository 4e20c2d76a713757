"""Continuous PL metrics on O(d) over the Berkovich line.

A metric is the trivial model metric of O(d) twisted by a PL function g.
Its Monge-Ampere measure is d times the Dirac mass at the Gauss point
plus the tree Laplacian of g; psh means that measure is nonnegative.
A Metric is immutable and computes that measure at most once: ma_measure,
is_psh, energy, envelope and equilibrium_metric all read the same one.
Envelopes and equilibrium metrics are greatest psh minorants of an
obstacle, found exactly by one leaf-to-root and one root-to-leaf pass
over the tree; the envelope of a psh metric is the metric itself.  The
Gauss point is a vertex of that pass like any other: its knot list is the
G whose integral over [0, d] is the exact volume limit (volumes module).
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
#: slope right of each knot.  Left of the first knot W is the identity
#: (the root's W is read only from its first knot, t = 0, on).
_Knots = Tuple[List[Fraction], List[Fraction], List[Fraction]]


def _eval(W: _Knots, z: Fraction) -> Fraction:
    zs, ws, slopes = W
    i = bisect_right(zs, z) - 1
    return z if i < 0 else ws[i] + slopes[i] * (z - zs[i])


def _leaf_to_root(
    tree: SkeletonTree, obstacle: Dict[TreePoint, Any], zero
) -> Dict[TreePoint, _Knots]:
    """W_v for every vertex v, the root included.

    With s_c = (h(parent) - h(c)) / L_c the slope into c and
    F_v(w) = sum_{children c} (w - W_c(w)) / L_c the deficit at v, psh means
    s_v >= F_v(h(v)) at each non-root vertex v and F_root(h(root)) <= d.
    So W_v(z) = min(g(v), T_v^{-1}(z)) is the greatest value at v when its
    parent has value z, with T_v(w) = w + L_v F_v(w); at the root T is F
    itself, and W_root(d) is the root's value.  The knots of W_v sit at the
    children's knots below the obstacle g(v), then at g(v), where W_v turns
    flat.  Only field operations and comparisons run, from zero, a Fraction
    or a dual.
    """
    W: Dict[TreePoint, _Knots] = {}
    for v in reversed(tree.vertices):
        cap = obstacle.get(v)
        kids = [(W[c], tree.edge_length(c)) for c in tree.children[v]]
        xs = sorted({z for Wc, _ in kids for z in Wc[0] if cap is None or z < cap})
        if cap is not None:
            xs.append(cap)
        # W_c is the identity up to its first knot, where c adds no deficit
        fs = [sum(((x - _eval(Wc, x)) / L for Wc, L in kids if Wc[0] and Wc[0][0] < x), zero)
              for x in xs]
        root = v == tree.root
        Lv = None if root else tree.edge_length(v)
        zs = fs if root else [x + Lv * f for x, f in zip(xs, fs)]
        slopes = [(x1 - x0) / (z1 - z0) for x0, x1, z0, z1 in zip(xs, xs[1:], zs, zs[1:])]
        if cap is not None:
            slopes.append(zero)
        else:
            # past the last knot T_v has slope tail: F_v's, or 1 + L_v times it
            tail = sum(((1 - Wc[2][-1]) / L for Wc, L in kids), zero)
            if not root:
                tail = 1 + Lv * tail
            if tail == zero:
                raise MetricError("no obstacle bounds the psh minorant")
            slopes.append(1 / tail)
        W[v] = (zs, xs, slopes)
    return W


def _componentwise_max(
    tree: SkeletonTree, d: int, obstacle: Dict[TreePoint, Fraction]
) -> Dict[TreePoint, Fraction]:
    """Componentwise maximum of {h psh-feasible, h <= obstacle where given}:
    root to leaf, h(root) = W_root(d) and h(c) = W_c(h(parent))."""
    W = _leaf_to_root(tree, obstacle, Fraction(0))
    h = {tree.root: _eval(W[tree.root], d)}
    for c in tree.vertices[1:]:
        h[c] = _eval(W[c], h[tree.parent[c]])
    return h


def _minorant(tree: SkeletonTree, d: int, obstacle: dict, what: str) -> Metric:
    """The greatest psh metric on tree lying below obstacle where it is given,
    checked to be psh and below the obstacle."""
    h = _componentwise_max(tree, d, obstacle)
    out = Metric(d, PLFunction(tree, h))
    if not is_psh(out) or any(h[v] > b for v, b in obstacle.items()):
        raise MetricError(f"{what} solve returned an infeasible point")
    return out


def envelope(phi: Metric) -> Metric:
    """Greatest psh metric <= phi, as a PL metric on the same tree: phi
    itself when phi is psh.

    On each edge the obstacle is affine, so the solution is affine there
    and the problem is a finite obstacle problem in the vertex values.
    """
    if is_psh(phi):
        return phi
    return _minorant(phi.tree, phi.d, phi.g.values, "envelope")


def equilibrium_metric(x: TreePoint, phi: Metric) -> Metric:
    """Greatest psh metric whose value at x is at most phi(x)."""
    if phi.d < 1:
        raise MetricError("equilibrium metric needs d >= 1")
    tree = refine(phi.tree, [x])
    return _minorant(tree, phi.d, {x: phi.g.on_tree(tree).values[x]}, "equilibrium")
