"""Continuous PL metrics on O(d) over the Berkovich line.

A metric is the trivial model metric of O(d) twisted by a PL function g.
Its Monge-Ampere measure is d times the Dirac mass at the Gauss point
plus the tree Laplacian of g; psh means that measure is nonnegative.
A Metric is immutable and computes that measure at most once: ma_measure,
is_psh, energy, envelope and equilibrium_metric all read the same one.
Envelopes are found exactly by one leaf-to-root and one root-to-leaf pass
over the tree; the envelope of a psh metric is the metric itself.  The
Gauss point is a vertex of that pass like any other: its knot list is the
G whose integral over [0, d] is the exact volume limit.  One solve (_solve)
returns both that integral and the envelope's values, and a Metric runs it
at most once.  Knot lists are read only here.
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
    _slope_sums,
    build_tree,
    constant_function,
    meet_q,
    refine,
)


class MetricError(BerkvolError):
    pass


class Metric(Frozen):
    def __init__(self, d: int, g: PLFunction):
        if type(d) is not int:  # a bool is no degree
            raise MetricError(f"degree must be an integer, got {d!r}")
        if d < 0:
            raise MetricError("degree must be nonnegative")
        self.__dict__.update(d=d, g=g)

    @cached_property
    def _measure(self) -> DiscreteMeasure:
        """The measure ma_measure returns, computed once: d at the root plus Laplacian(g)."""
        masses = _slope_sums(self.g)
        masses[self.tree.root] += self.d
        return DiscreteMeasure(masses)

    @cached_property
    def _solved(self) -> Tuple[Fraction, Dict[TreePoint, Fraction]]:
        """_solve with obstacle g, run once: the integral of G and P(phi)'s values."""
        return _solve(self.tree, self.d, self.g.values)

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
    return Metric(d, constant_function(tree, 0))


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
        m * (phi.value(x) - psi.value(x)) for mu in (ma_measure(phi), ma_measure(psi))
        for x, m in mu.masses.items()
    )
    return total / 2


#: A concave, nondecreasing PL function W of one variable, as the lists
#: (zs, ws): its knots (zs[i], ws[i]) in increasing order, linear between
#: them.  Left of the first knot W is the identity (the root's W is read
#: only from its first knot, t = 0, on); the last knot's value is the
#: vertex's obstacle, and W is flat right of it.  No slope is stored:
#: _eval divides only between two knots, on the piece it reads, and _solve
#: reads each W at one point.
_Knots = Tuple[List[Fraction], List[Fraction]]


def _eval(W: _Knots, z: Fraction) -> Fraction:
    zs, ws = W
    i = bisect_right(zs, z) - 1
    if i < 0:
        return z
    if i == len(zs) - 1 or z == zs[i]:
        return ws[i]
    return ws[i] + (ws[i + 1] - ws[i]) / (zs[i + 1] - zs[i]) * (z - zs[i])


def _leaf_to_root(tree: SkeletonTree, obstacle: Dict[TreePoint, Any]) -> Dict[TreePoint, _Knots]:
    """W_v for every vertex v, the root included.

    With s_c = (h(parent) - h(c)) / L_c the slope into c and
    F_v(w) = sum_{children c} (w - W_c(w)) / L_c the deficit at v, psh means
    s_v >= F_v(h(v)) at each non-root vertex v and F_root(h(root)) <= d.
    So W_v(z) = min(g(v), T_v^{-1}(z)) is the greatest value at v when its
    parent has value z, with T_v(w) = w + L_v F_v(w); at the root T is F
    itself, and W_root(d) is the root's value.  Every vertex has an
    obstacle g(v): the knots of W_v sit at the children's knots below it,
    then at g(v), where W_v turns flat.  Only field operations and
    comparisons run, in the obstacle's number type: a Fraction, or a dual.
    """
    zero = obstacle[tree.root] * 0
    W: Dict[TreePoint, _Knots] = {}
    L: Dict[TreePoint, Any] = {}  # each edge length, read once per pass
    for v in reversed(tree.vertices):
        cap = obstacle[v]
        kids = [(W[c], L[c]) for c in tree.children[v]]
        xs = sorted({z for Wc, _ in kids for z in Wc[0] if z < cap}) + [cap]
        # W_c is the identity up to its first knot, where c adds no deficit
        fs = [sum(((x - _eval(Wc, x)) / Lc for Wc, Lc in kids if Wc[0][0] < x), zero) for x in xs]
        if v == tree.root:
            zs = fs
        else:
            L[v] = Lv = tree.edge_length(v)
            zs = [x + Lv * f for x, f in zip(xs, fs)] if kids else xs  # a leaf's T is the identity
        W[v] = (zs, xs)
    return W


def _solve(tree: SkeletonTree, d: int, obstacle: Dict[TreePoint, Any]) -> Tuple[Any, dict]:
    """One leaf-to-root pass, read two ways: the integral of G = W_root over
    [0, d], one trapezoid per knot piece between the knots below d and the
    point (d, G(d)); and the componentwise maximum h of {h psh-feasible,
    h <= obstacle at every vertex}, root to leaf from h(root) = G(d) by
    h(c) = W_c(h(parent)).  Over duals g + eps f the eps-parts are the right
    derivatives at t = 0 of the integral and of P(g + t f)."""
    W = _leaf_to_root(tree, obstacle)
    zero = obstacle[tree.root] * 0
    d = zero + d
    h = {tree.root: _eval(W[tree.root], d)}
    knots = [(t, g) for t, g in zip(*W[tree.root]) if t < d] + [(d, h[tree.root])]
    pieces = zip(knots, knots[1:])
    integral = sum(((t1 - t0) * (g0 + g1) for (t0, g0), (t1, g1) in pieces), zero) / 2
    for c in tree.vertices[1:]:
        h[c] = _eval(W[c], h[tree.parent[c]])
    return integral, h


def envelope(phi: Metric) -> Metric:
    """Greatest psh metric <= phi, as a PL metric on the same tree: phi
    itself when phi is psh.

    On each edge the obstacle is affine, so the solution is affine there
    and the problem is a finite obstacle problem in the vertex values.
    The solve's answer is checked: psh, below phi, and equal to phi at every
    atom of its measure and at one vertex at least.  That proves it greatest:
    where a psh competitor below phi exceeds it most, the answer is below phi,
    so it has no mass there and the excess is constant nearby; so the excess
    is constant on the whole tree, leaving no vertex where the answer is phi.
    """
    if is_psh(phi):
        return phi
    g = phi.g.values
    h = phi._solved[1]
    out = Metric(phi.d, PLFunction(phi.tree, h))
    if not is_psh(out) or any(h[v] > b for v, b in g.items()):
        raise MetricError("envelope solve returned an infeasible point")
    contact = {v for v, b in g.items() if h[v] == b}
    if not contact or not contact.issuperset(ma_measure(out).masses):
        raise MetricError("envelope solve returned a point below the envelope")
    return out


def equilibrium_metric(x: TreePoint, phi: Metric) -> Metric:
    """Greatest psh metric h with h(x) <= phi(x): the Green function
    h(v) = phi(x) + d (q_x - q(v meet x)) of x, on phi's tree refined by x.

    A psh h does not increase away from the root, and its slope is at most
    d, so h(v) <= h(v meet x) <= h(x) + d (q_x - q(v meet x)).  The formula
    reaches that bound, and its measure is d delta_x."""
    if phi.d < 1:
        raise MetricError("equilibrium metric needs d >= 1")
    tree = refine(phi.tree, [x])
    gx = phi.g.evaluate(x)
    h = {v: gx + phi.d * (x.q - meet_q(v, x)) for v in tree.vertices}
    return Metric(phi.d, PLFunction(tree, h))
