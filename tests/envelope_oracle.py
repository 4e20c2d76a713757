"""Psh envelopes as one exact LP: a test oracle.

Before the leaf-to-root recursion over knot lists, metrics solved every
envelope and equilibrium metric as one dense simplex in the
vertex values.  The two functions below are that path, kept verbatim apart
from their names and the neighbor list written out in _psh_rows, so that
the tests can hold the recursion against it.
"""

from fractions import Fraction
from typing import Dict, List, Tuple

from berkvol import simplex
from berkvol.metrics import MetricError
from berkvol.tree import SkeletonTree, TreePoint


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
        par = tree.parent[v]
        for u in tree.children[v] + ([] if par is None else [par]):
            length = abs(v.q - u.q)
            row[idx[v]] += Fraction(1) / length
            row[idx[u]] -= Fraction(1) / length
        rows.append(row)
        rhs.append(Fraction(d) if v == tree.root else Fraction(0))
    return rows, rhs, verts


def one_lp_max(
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
