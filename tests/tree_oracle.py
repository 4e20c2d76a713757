"""The all-pairs tree builder: a test oracle.

Before the one-pass preorder builder, tree.build_tree closed the vertex
set under the meets of all C(V, 2) pairs and found each parent by a
descent from the root that compared Fraction valuations of center
differences.  `pairwise_meet`, `descend` and `all_pairs_build_tree` are that
path, kept verbatim apart from their names and from the descent being a
function, so that the tests can hold the integer primitives and the new
builder against it.
"""

import itertools
from fractions import Fraction
from typing import Optional, Tuple

from berkvol.field import INF, padic_valuation
from berkvol.tree import SkeletonTree, TreeError, TreePoint, gauss_point


def pairwise_meet(x: TreePoint, y: TreePoint) -> TreePoint:
    """Infimum of x and y in the tree order rooted at the Gauss point."""
    if x.p != y.p:
        raise TreeError("points over different primes")
    q = min(x.q, y.q, padic_valuation(x.center - y.center, x.p))
    if q == x.q:
        return x
    if q == y.q:
        return y
    return TreePoint(x.p, x.center, q)


def descend(
    tree: SkeletonTree, center: Fraction, q: Optional[Fraction] = None
) -> Tuple[TreePoint, Optional[TreePoint], Fraction]:
    """The edge (u, c) holding the retraction of zeta_{center, p^-q} and
    its depth t past u, with c = None at a vertex (q = None: type 1)."""
    center, q = Fraction(center), INF if q is None else q
    if padic_valuation(center, tree.p) < 0:
        raise TreeError(f"center {center} lies outside the closed unit disc")
    u = tree.root
    while True:
        for c in tree.children[u]:
            shared = min(c.q, q, padic_valuation(center - c.center, tree.p))
            if shared > u.q:
                if shared < c.q:
                    return u, c, shared - u.q
                u = c
                break
        else:
            return u, None, Fraction(0)


def all_pairs_build_tree(p: int, points) -> SkeletonTree:
    """Smallest meet-closed tree containing the points and the Gauss point."""
    verts = {gauss_point(p)}
    for pt in points:
        if pt.p != p:
            raise TreeError("point over a different prime")
        verts.add(pt)
    # In a rooted tree x^y^z is one of x^y, x^z, y^z: one round closes.
    verts |= {pairwise_meet(x, y) for x, y in itertools.combinations(verts, 2)}
    # Every prefix of this order is meet-closed, so each vertex retracts
    # onto the tree built so far at a vertex: its parent.
    ordered = sorted(verts, key=lambda v: (v.q, v.key))
    root = ordered[0]
    tree = SkeletonTree(p=p, vertices=[root], parent={root: None}, children={root: []})
    for v in ordered[1:]:
        par = descend(tree, v.center, v.q)[0]
        tree.vertices.append(v)
        tree.parent[v], tree.children[v] = par, []
        tree.children[par].append(v)
    return tree
