"""Finite skeleta of the Berkovich projective line over Q_p.

A point zeta_{a, p^-q} of the closed unit disc is stored as a rational
center a (with v_p(a) >= 0) and a rational radius exponent q >= 0; the
Gauss point is (0, 0).  Distances along the tree are differences of
radius exponents, matching the v(p) = 1 normalization.

Each point also keeps k = ceil(q) and its digits, the center modulo p^k
as an integer in [0, p^k); the tree primitives read only these integers.
x lies below y (on the path from the Gauss point to y) iff q_x <= q_y and
y's digits reduce to x's modulo p^k_x, and two points that are not
comparable branch at the integer depth v_p of the difference of their
digits.  So the depth-first preorder of the tree, ancestors first and the
branches at a vertex in the order of their digit there, is one integer
comparison (`_preorder`); `digit_sorted` sorts type-1 points by the same
comparison.  `build_tree` closes a vertex set under meets in one pass over
that order, and `SkeletonTree.place` alone finds where a point retracts
onto a tree, by one descent from the root that reads `meet_q`; a type-1
point descends as its disc at the deepest vertex's radius.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from numbers import Number
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import BerkvolError, Frozen
from .field import check_prime, int_valuation


class TreeError(BerkvolError):
    pass


def _digits(a: Fraction, k: int, p: int) -> int:
    """a modulo p^k as an integer in [0, p^k), for a with a p-adic unit denominator."""
    if k == 0:
        return 0
    mod = p**k
    if a.denominator == 1:
        return a.numerator % mod
    return a.numerator * pow(a.denominator, -1, mod) % mod


def _center(a, p: int) -> Fraction:
    """a as a Fraction, checked to lie in the closed unit disc."""
    a = _rational(a)
    if a.denominator % p == 0:
        raise TreeError(f"center {a} lies outside the closed unit disc")
    return a


class TreePoint(Frozen):
    def __init__(self, p: int, center: Fraction, q: Fraction):
        check_prime(p)
        q = _rational(q)
        if q.numerator < 0:
            raise TreeError(f"radius exponent {q} must be >= 0")
        center = _center(center, p)
        k = -(-q.numerator // q.denominator)
        digits = _digits(center, k, p)
        # The disc, not the chosen center, identifies the point; every dict
        # lookup compares keys, so the canonical key and its hash are fixed here.
        key = (p, q, digits)
        self.__dict__.update(
            p=p, center=center, q=q, k=k, digits=digits, key=key, _hash=hash(key)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, TreePoint) and self.key == other.key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"zeta({self.center}, q={self.q})"


def gauss_point(p: int) -> TreePoint:
    return TreePoint(p, Fraction(0), Fraction(0))


def _branch_depth(x: TreePoint, y: TreePoint) -> Optional[int]:
    """The depth v_p(a_x - a_y) at which x and y branch, or None when one
    lies below the other."""
    d = x.digits - y.digits
    if d:
        # an integer v < min(q_x, q_y) iff v < min(k_x, k_y)
        v = int_valuation(d, x.p)
        if v < x.k and v < y.k:
            return v
    return None


def meet_q(x: TreePoint, y: TreePoint):
    """The radius exponent of meet(x, y), an int where they branch; no point is built."""
    if x.p != y.p:
        raise TreeError("points over different primes")
    v = _branch_depth(x, y)
    return min(x.q, y.q) if v is None else v


def meet(x: TreePoint, y: TreePoint) -> TreePoint:
    """Infimum of x and y in the tree order rooted at the Gauss point."""
    q = meet_q(x, y)
    return x if q == x.q else y if q == y.q else TreePoint(x.p, x.center, q)


def _digit_cmp(a: int, b: int, v: int, p: int) -> int:
    """-1 or 1 as the digit of a at p^v is below or above that of b."""
    pv = p**v
    return -1 if a // pv % p < b // pv % p else 1


def _preorder(x: TreePoint, y: TreePoint) -> int:
    """-1, 0 or 1 as x comes before, with or after y in the depth-first
    preorder of the tree: an ancestor first, and two points that branch
    at depth v in the order of their digits at p^v."""
    v = _branch_depth(x, y)
    if v is not None:
        return _digit_cmp(x.digits, y.digits, v, x.p)
    return (x.q > y.q) - (x.q < y.q)


def digit_sorted(points: Sequence[Fraction], p: int) -> Tuple[List[int], List[int]]:
    """The positions of distinct points of the closed unit disc in p-adic digit
    order, least significant digit first, and v_p of each adjacent difference.
    Each class mod p^k is a segment, so v_p(x_j - x_i) is the least from i to j."""
    xs = [_center(x, p) for x in points]

    def gap(i: int, j: int) -> int:
        # denominators are p-adic units, so this numerator has v_p(x_i - x_j)
        d = xs[i].numerator * xs[j].denominator - xs[j].numerator * xs[i].denominator
        if not d:
            raise TreeError(f"point {xs[i]} is repeated")
        return int_valuation(d, p)

    def cmp(i: int, j: int) -> int:
        v = gap(i, j)
        return _digit_cmp(_digits(xs[i], v + 1, p), _digits(xs[j], v + 1, p), v, p)

    order = sorted(range(len(xs)), key=cmp_to_key(cmp))
    return order, [gap(i, j) for i, j in zip(order, order[1:])]


class SkeletonTree(Frozen):
    """p; vertices, sorted by q; the parent and children of each vertex."""

    @property
    def root(self) -> TreePoint:
        """The Gauss point: vertices are sorted by q, and only it has q = 0."""
        return self.vertices[0]

    def edge_length(self, child: TreePoint) -> Fraction:
        par = self.parent[child]
        if par is None:
            raise TreeError("the Gauss point has no parent edge")
        return child.q - par.q

    def neighbors(self, v: TreePoint) -> List[TreePoint]:
        out = list(self.children[v])
        if self.parent[v] is not None:
            out.append(self.parent[v])
        return out

    def place(
        self, center: Fraction, q: Optional[Fraction] = None
    ) -> Tuple[TreePoint, Optional[TreePoint], Fraction]:
        """The edge (u, c) holding the retraction of zeta_{center, p^-q} and
        its depth t past u, with c = None at a vertex.  For q = None (type 1)
        it places the disc at the deepest vertex's radius, which leaves the
        tree at the same place.  Descends from the root by meet_q: at each
        vertex u at most one child meets the point above u."""
        x = TreePoint(self.p, center, self.vertices[-1].q if q is None else q)
        u = self.root
        while True:
            for c in self.children[u]:
                shared = meet_q(x, c)
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
    """Smallest meet-closed tree containing the points and the Gauss point.

    In depth-first preorder the meet closure of a set is the set and the
    meets of its adjacent pairs, so one walk with a stack holding the path
    to the last point takes V - 1 meets and finds every parent.  A vertex
    the input does not name is named by the center of the first input
    point below it, in the iteration order of the set {Gauss point} and
    the points: the point whose first pairwise meet with a later point
    makes it.  Vertices are listed by (q, key), and children in that order.
    """
    verts = {gauss_point(p)}
    for pt in points:
        if pt.p != p:
            raise TreeError("point over a different prime")
        verts.add(pt)
    given = list(verts)
    order = sorted(given, key=cmp_to_key(_preorder))
    parent: Dict[TreePoint, Optional[TreePoint]] = {order[0]: None}
    made: List[TreePoint] = []
    stack = order[:1]  # the path from the root to the last point, each below the previous
    for x in order[1:]:
        m = meet(stack[-1], x)
        while stack[-1].q > m.q:
            top = stack.pop()
            if stack[-1].q < m.q:  # m lies inside the edge above top
                parent[m], parent[top] = stack[-1], m
                stack.append(m)
                made.append(m)
        parent[x] = stack[-1]
        stack.append(x)
    if made:
        parent = _name_made_vertices(p, given, parent, made)
    vertices = sorted(parent, key=lambda v: (v.q, v.digits))
    children: Dict[TreePoint, List[TreePoint]] = {v: [] for v in vertices}
    for v in vertices[1:]:
        children[parent[v]].append(v)
    return SkeletonTree(
        p=p, vertices=vertices, parent={v: parent[v] for v in vertices}, children=children
    )


def _name_made_vertices(
    p: int,
    given: List[TreePoint],
    parent: Dict[TreePoint, Optional[TreePoint]],
    made: List[TreePoint],
) -> Dict[TreePoint, Optional[TreePoint]]:
    """parent, with each made vertex renamed by the first given point below it."""
    made = set(made)
    names: Dict[TreePoint, TreePoint] = {}
    seen = set()
    for x in given:
        # every vertex above a seen one is seen, and named if made
        u = x
        while u is not None and u not in seen:
            seen.add(u)
            if u in made:
                names[u] = u if u.center == x.center else TreePoint(p, x.center, u.q)
            u = parent[u]
    return {names.get(v, v): (None if u is None else names.get(u, u)) for v, u in parent.items()}


def refine(tree: SkeletonTree, extra: Iterable[TreePoint]) -> SkeletonTree:
    """The tree built from tree's vertices and extra: tree itself when every
    extra point is already a vertex, since the builder names each vertex by
    the first point that gives it."""
    extra = list(extra)
    if all(x in tree.parent for x in extra):
        return tree
    return build_tree(tree.p, list(tree.vertices) + extra)


def _exact(x):
    """x as a Fraction: x itself when it is one already.  A float is refused,
    since Fraction would take its binary expansion for the value meant, and
    so is a complex, a pair of floats.  A numbers.Number that Fraction
    refuses by type, such as an element of another exact field, is kept as
    given; any other object is refused, and so is a value Fraction cannot
    read: a malformed string, a zero denominator or a non-finite Decimal."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, complex)):
        raise TreeError(f"{x!r} is a {type(x).__name__}, not an exact rational")
    try:
        return Fraction(x)
    except TypeError:
        if isinstance(x, Number):
            return x
        raise TreeError(f"{x!r} is not a number") from None
    except (ValueError, OverflowError, ZeroDivisionError):
        raise TreeError(f"{x!r} is not an exact rational") from None


def _rational(x) -> Fraction:
    """x as a Fraction, for a center, a radius exponent, a point or a t."""
    x = _exact(x)
    if not isinstance(x, Fraction):
        raise TreeError(f"{x!r} is not a rational")
    return x


class PLFunction:
    """Piecewise-affine function on a skeleton, constant off the tree."""

    def __init__(self, tree: SkeletonTree, values: Dict[TreePoint, Fraction]):
        self.tree = tree
        try:
            self.values = {v: _exact(values[v]) for v in tree.vertices}
        except KeyError as e:
            raise TreeError(f"no value given at vertex {e.args[0]}") from None
        if len(values) != len(tree.vertices):  # every vertex is a key: the rest are off the tree
            off = next(x for x in values if x not in tree.parent)
            raise TreeError(f"value given at {off}, which is not a vertex")

    def evaluate(self, x: TreePoint) -> Fraction:
        value = self.values.get(x)
        if value is not None:  # x is a vertex
            return value
        if x.p != self.tree.p:
            raise TreeError("point over a different prime")
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
        """The same function, re-expressed on a refinement; itself when the
        refinement has the same vertex list."""
        if new_tree.vertices == self.tree.vertices:
            return self
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
        t = _exact(t)
        return PLFunction(self.tree, {v: t * x for v, x in self.values.items()})

    def shift(self, c: Fraction) -> "PLFunction":
        c = _exact(c)
        return PLFunction(self.tree, {v: x + c for v, x in self.values.items()})

    def min_value(self) -> Fraction:
        return min(self.values.values())

    def max_value(self) -> Fraction:
        return max(self.values.values())


def constant_function(tree: SkeletonTree, c: Fraction) -> PLFunction:
    return PLFunction(tree, dict.fromkeys(tree.vertices, c))


class DiscreteMeasure:
    def __init__(self, masses: Dict[TreePoint, Fraction]):
        self.masses = {k: m for k, v in masses.items() if (m := _exact(v))}
        if len({x.p for x in self.masses}) > 1:
            raise TreeError("atoms over different primes")

    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), Fraction(0))

    def add(self, other: "DiscreteMeasure") -> "DiscreteMeasure":
        out = dict(self.masses)
        for k, v in other.masses.items():
            out[k] = out.get(k, Fraction(0)) + v
        return DiscreteMeasure(out)

    def scale(self, t: Fraction) -> "DiscreteMeasure":
        t = _exact(t)
        return DiscreteMeasure({k: t * v for k, v in self.masses.items()})

    def integrate(self, f: PLFunction) -> Fraction:
        return sum((m * f.evaluate(x) for x, m in self.masses.items()), Fraction(0))

    def tv_distance(self, other: "DiscreteMeasure") -> Fraction:
        diff = self.add(other.scale(-1)).masses.values()
        return sum(map(abs, diff), Fraction(0)) / 2


def _slope_sums(g: PLFunction) -> Dict[TreePoint, Fraction]:
    """Outgoing slope sum at each vertex, root first; off-tree slopes are 0."""
    masses = dict.fromkeys(g.tree.vertices, Fraction(0))
    for c in g.tree.vertices[1:]:
        u = g.tree.parent[c]
        slope = (g.values[c] - g.values[u]) / g.tree.edge_length(c)
        masses[u] += slope
        masses[c] -= slope
    return masses


def laplacian(g: PLFunction) -> DiscreteMeasure:
    """The tree Laplacian of g; total mass is zero."""
    return DiscreteMeasure(_slope_sums(g))
