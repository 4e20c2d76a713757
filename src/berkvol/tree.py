"""Finite skeleta of the Berkovich projective line over Q_p.

A point zeta_{a, p^-q} of the closed unit disc is stored as a rational
center a (with v_p(a) >= 0) and a rational radius exponent q >= 0; the
Gauss point is (0, 0).  Distances along the tree are differences of
radius exponents, matching the v(p) = 1 normalization.

`build_tree` alone closes a vertex set under meets, and `SkeletonTree.place`
alone finds where a point retracts onto a tree, by one descent from the
root.  In `digit_order` every residue class mod p^k is a segment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BerkvolError
from .field import INF, padic_valuation


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
        # The disc, not the chosen center, identifies the point; every dict
        # lookup compares keys, so the canonical key and its hash are fixed here.
        key = (self.p, self.q, _canonical_center(self.center, self.q, self.p))
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other) -> bool:
        return isinstance(other, TreePoint) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"zeta({self.center}, q={self.q})"


def gauss_point(p: int) -> TreePoint:
    return TreePoint(p, Fraction(0), Fraction(0))


def meet(x: TreePoint, y: TreePoint) -> TreePoint:
    """Infimum of x and y in the tree order rooted at the Gauss point."""
    if x.p != y.p:
        raise TreeError("points over different primes")
    q = min(x.q, y.q, padic_valuation(x.center - y.center, x.p))
    if q == x.q:
        return x
    if q == y.q:
        return y
    return TreePoint(x.p, x.center, q)


def digit_order(x: Fraction, y: Fraction, p: int) -> int:
    """-1, 0 or 1 as x comes before, with or after y in p-adic digit order,
    least significant digit first (both in the closed unit disc).  Every
    residue class mod p^k is a segment of this order."""
    if x == y:
        return 0
    mod = p ** (int(padic_valuation(x - y, p)) + 1)
    rx, ry = (z.numerator * pow(z.denominator, -1, mod) % mod for z in (x, y))
    return -1 if rx < ry else 1


@dataclass
class SkeletonTree:
    p: int
    vertices: List[TreePoint]
    parent: Dict[TreePoint, Optional[TreePoint]] = field(repr=False)
    children: Dict[TreePoint, List[TreePoint]] = field(repr=False)

    @property
    def root(self) -> TreePoint:
        """The Gauss point: vertices are sorted by q, and only it has q = 0."""
        return self.vertices[0]

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

    def place(
        self, center: Fraction, q: Optional[Fraction] = None
    ) -> Tuple[TreePoint, Optional[TreePoint], Fraction]:
        """The edge (u, c) holding the retraction of zeta_{center, p^-q} and
        its depth t past u, with c = None at a vertex (q = None: type 1).

        Descends from the root: at each vertex u at most one child shares
        more than q_u with the point."""
        center, q = Fraction(center), INF if q is None else q
        if padic_valuation(center, self.p) < 0:
            raise TreeError(f"center {center} lies outside the closed unit disc")
        u = self.root
        while True:
            for c in self.children[u]:
                shared = min(c.q, q, padic_valuation(center - c.center, self.p))
                if shared > u.q:
                    if shared < c.q:
                        return u, c, shared - u.q
                    u = c
                    break
            else:
                return u, None, Fraction(0)

    def retract(self, center: Fraction, q: Optional[Fraction] = None) -> TreePoint:
        """Retraction of zeta_{center, p^-q}, named by the given center."""
        u, _, t = self.place(center, q)
        return self.root if u.q + t == 0 else TreePoint(self.p, center, u.q + t)


def build_tree(p: int, points: Iterable[TreePoint]) -> SkeletonTree:
    """Smallest meet-closed tree containing the points and the Gauss point."""
    verts = {gauss_point(p)}
    for pt in points:
        if pt.p != p:
            raise TreeError("point over a different prime")
        verts.add(pt)
    # In a rooted tree x^y^z is one of x^y, x^z, y^z: one round closes.
    verts |= {meet(x, y) for x, y in itertools.combinations(verts, 2)}
    # Every prefix of this order is meet-closed, so each vertex retracts
    # onto the tree built so far at a vertex: its parent.
    ordered = sorted(verts, key=lambda v: (v.q, v.key))
    root = ordered[0]
    tree = SkeletonTree(p, [root], {root: None}, {root: []})
    for v in ordered[1:]:
        par = tree.place(v.center, v.q)[0]
        tree.vertices.append(v)
        tree.parent[v], tree.children[v] = par, []
        tree.children[par].append(v)
    return tree


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
        value = self.values.get(x)
        if value is not None:  # x is a vertex
            return value
        return self._at(*self.tree.place(x.center, x.q))

    def evaluate_center(self, center: Fraction) -> Fraction:
        """Value at the type-1 point with the given center."""
        return self._at(*self.tree.place(center))

    def _at(self, u: TreePoint, c: Optional[TreePoint], t: Fraction) -> Fraction:
        """Value at depth t past u on the edge (u, c), or at u if c is None."""
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
