"""Finite skeleta of the Berkovich projective line over Q_p.

A point zeta_{a, p^-q} of the closed unit disc is stored as a rational
center a (with v_p(a) >= 0) and a rational radius exponent q >= 0; the
Gauss point is (0, 0).  Distances along the tree are differences of
radius exponents, matching the v(p) = 1 normalization.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BerkvolError
from .field import padic_valuation


class TreeError(BerkvolError):
    pass


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _canonical_center(a: Fraction, q: Fraction, p: int) -> Fraction:
    """Representative of a modulo p^ceil(q), as an integer in [0, p^k)."""
    if q == 0:
        return Fraction(0)
    k = _ceil(q)
    mod = p**k
    num = a.numerator % mod
    den_inv = pow(a.denominator % mod, -1, mod)
    return Fraction((num * den_inv) % mod)


@dataclass(frozen=True)
class TreePoint:
    p: int
    center: Fraction
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", Fraction(self.center))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.q < 0:
            raise TreeError(f"radius exponent {self.q} must be >= 0")
        if padic_valuation(self.center, self.p) < 0:
            raise TreeError(f"center {self.center} lies outside the closed unit disc")

    def _key(self) -> Tuple[int, Fraction, Fraction]:
        return (self.p, self.q, _canonical_center(self.center, self.q, self.p))

    def __eq__(self, other) -> bool:
        return isinstance(other, TreePoint) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"zeta({self.center}, q={self.q})"


def gauss_point(p: int) -> TreePoint:
    return TreePoint(p, Fraction(0), Fraction(0))


def meet(x: TreePoint, y: TreePoint) -> TreePoint:
    """Infimum of x and y in the tree order rooted at the Gauss point."""
    if x.p != y.p:
        raise TreeError("points over different primes")
    sep = padic_valuation(x.center - y.center, x.p)
    q = min(x.q, y.q) if sep == math.inf else min(x.q, y.q, Fraction(sep))
    return TreePoint(x.p, x.center, q)


def is_below(x: TreePoint, y: TreePoint) -> bool:
    """x <= y in the tree order (x on the path from the Gauss point to y)."""
    return meet(x, y) == x


@dataclass
class SkeletonTree:
    p: int
    vertices: List[TreePoint]
    parent: Dict[TreePoint, Optional[TreePoint]] = field(repr=False)
    children: Dict[TreePoint, List[TreePoint]] = field(repr=False)

    @property
    def root(self) -> TreePoint:
        return gauss_point(self.p)

    def edge_length(self, child: TreePoint) -> Fraction:
        par = self.parent[child]
        if par is None:
            raise TreeError("the Gauss point has no parent edge")
        return child.q - par.q

    def edges(self) -> Iterable[Tuple[TreePoint, TreePoint, Fraction]]:
        for v in self.vertices:
            par = self.parent[v]
            if par is not None:
                yield par, v, v.q - par.q

    def neighbors(self, v: TreePoint) -> List[TreePoint]:
        out = list(self.children[v])
        if self.parent[v] is not None:
            out.append(self.parent[v])
        return out

    def retract(self, center: Fraction, q: Optional[Fraction] = None) -> TreePoint:
        """Retraction of zeta_{center, p^-q} (q = None means a type-1 point)."""
        center = Fraction(center)
        best = self.root
        for v in self.vertices:
            sep = padic_valuation(center - v.center, self.p)
            sep = v.q if sep == math.inf else min(Fraction(sep), v.q)
            if q is not None:
                sep = min(sep, q)
            cand = TreePoint(self.p, center, sep)
            if cand.q > best.q:
                best = cand
        return best

    def locate(self, x: TreePoint) -> Tuple[TreePoint, Optional[TreePoint], Fraction]:
        """For x on the tree, the edge (u, c) with u <= x <= c, plus t = q_x - q_u.

        c is None when x is a vertex.
        """
        u = None
        for v in self.vertices:
            if is_below(v, x) and (u is None or v.q > u.q):
                u = v
        if u is None:
            raise TreeError(f"{x} does not retract into the tree")
        if u == x:
            return u, None, Fraction(0)
        for c in self.children[u]:
            if is_below(x, c):
                return u, c, x.q - u.q
        raise TreeError(f"{x} is not on the skeleton")


def build_tree(p: int, points: Iterable[TreePoint]) -> SkeletonTree:
    """Smallest meet-closed tree containing the points and the Gauss point."""
    verts = {gauss_point(p)}
    for pt in points:
        if pt.p != p:
            raise TreeError("point over a different prime")
        verts.add(pt)
    # In a rooted tree x^y^z is one of x^y, x^z, y^z: one round closes.
    verts |= {meet(x, y) for x, y in itertools.combinations(verts, 2)}
    ordered = sorted(verts, key=lambda v: (v.q, v._key()))
    parent: Dict[TreePoint, Optional[TreePoint]] = {}
    children: Dict[TreePoint, List[TreePoint]] = {v: [] for v in ordered}
    for v in ordered:
        anc = [u for u in ordered if u != v and is_below(u, v)]
        if not anc:
            parent[v] = None
        else:
            par = max(anc, key=lambda u: u.q)
            parent[v] = par
            children[par].append(v)
    return SkeletonTree(p, ordered, parent, children)


def refine(tree: SkeletonTree, extra: Iterable[TreePoint]) -> SkeletonTree:
    return build_tree(tree.p, list(tree.vertices) + list(extra))


@dataclass
class PLFunction:
    """Piecewise-affine function on a skeleton, constant off the tree."""

    tree: SkeletonTree
    values: Dict[TreePoint, Fraction]

    def __post_init__(self):
        self.values = {v: Fraction(self.values[v]) for v in self.tree.vertices}

    def evaluate(self, x: TreePoint) -> Fraction:
        r = self.tree.retract(x.center, x.q)
        u, c, t = self.tree.locate(r)
        if c is None:
            return self.values[u]
        frac = t / (c.q - u.q)
        return self.values[u] + (self.values[c] - self.values[u]) * frac

    def evaluate_center(self, center: Fraction) -> Fraction:
        """Value at the type-1 point with the given center."""
        r = self.tree.retract(Fraction(center), None)
        u, c, t = self.tree.locate(r)
        if c is None:
            return self.values[u]
        return self.values[u] + (self.values[c] - self.values[u]) * t / (c.q - u.q)

    def on_tree(self, new_tree: SkeletonTree) -> "PLFunction":
        """The same function, re-expressed on a refinement."""
        return PLFunction(new_tree, {v: self.evaluate(v) for v in new_tree.vertices})

    def _combine(self, other: "PLFunction", sign: int) -> "PLFunction":
        """self + sign * other, on the common refinement of both trees."""
        tree = refine(self.tree, other.tree.vertices)
        a, b = self.on_tree(tree), other.on_tree(tree)
        return PLFunction(tree, {v: a.values[v] + sign * b.values[v] for v in tree.vertices})

    def __add__(self, other: "PLFunction") -> "PLFunction":
        return self._combine(other, 1)

    def __sub__(self, other: "PLFunction") -> "PLFunction":
        return self._combine(other, -1)

    def scale(self, t: Fraction) -> "PLFunction":
        t = Fraction(t)
        return PLFunction(self.tree, {v: t * x for v, x in self.values.items()})

    def shift(self, c: Fraction) -> "PLFunction":
        c = Fraction(c)
        return PLFunction(self.tree, {v: x + c for v, x in self.values.items()})

    def min_value(self) -> Fraction:
        return min(self.values.values())

    def max_value(self) -> Fraction:
        return max(self.values.values())


def constant_function(tree: SkeletonTree, c: Fraction) -> PLFunction:
    return PLFunction(tree, {v: Fraction(c) for v in tree.vertices})


@dataclass
class DiscreteMeasure:
    masses: Dict[TreePoint, Fraction]

    def __post_init__(self):
        self.masses = {k: Fraction(v) for k, v in self.masses.items() if v != 0}

    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def add(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        out = dict(self.masses)
        for k, v in other.masses.items():
            out[k] = out.get(k, Fraction(0)) + v
        return DiscreteMeasure(out)

    def scale(self, t: Fraction) -> "DiscreteMeasure":
        t = Fraction(t)
        return DiscreteMeasure({k: t * v for k, v in self.masses.items()})

    def integrate(self, f: PLFunction) -> Fraction:
        return sum((m * f.evaluate(x) for x, m in self.masses.items()), Fraction(0))

    def tv_distance(self, other: "DiscreteMeasure") -> Fraction:
        pts = set(self.masses) | set(other.masses)
        diff = sum(
            abs(self.masses.get(x, Fraction(0)) - other.masses.get(x, Fraction(0)))
            for x in pts
        )
        return diff / 2


def laplacian(g: PLFunction) -> DiscreteMeasure:
    """Sum of outgoing edge slopes at each vertex; total mass is zero.

    Off-tree directions carry slope 0 by the constancy convention.
    """
    masses: Dict[TreePoint, Fraction] = {v: Fraction(0) for v in g.tree.vertices}
    for u, c, length in g.tree.edges():
        slope = (g.values[c] - g.values[u]) / length
        masses[u] += slope
        masses[c] -= slope
    return DiscreteMeasure(masses)
