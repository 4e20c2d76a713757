"""Polynomial sections of O(md): the determinant valuations of sup-norm unit balls.

A section is a rational polynomial of degree <= md in the affine chart.
All norm values are reported in valuation form (-log_p of the norm).  On
the closed unit disc the trivial metric has weight zero, so the point
norm at zeta_{a, p^-q} is the recentered Gauss norm plus m*g.

The sup over the whole analytification reduces to a minimum over the
tree vertices: the valuation of |s| is concave in the radius exponent
along edges and nondecreasing in the off-tree directions, while outside
the unit disc the outward slope is deg(s) - md <= 0.

The determinant valuation of the sup-norm unit ball U is read off the
tree alone.  Filter sections by degree: the leading coefficients of the
degree-j sections in U are the lambda with v(lambda) >= -F_j, where F_j
is the valuation form of the least sup norm of a monic degree-j
polynomial.  Hence v(det U) = -sum_{j=0}^{md} F_j.  A root alpha adds
q(x ^ alpha) to the valuation of |P| at a vertex x (the Hsia kernel).
Moving alpha to a vertex y at the deep end of the tree edge it retracts
to, in a residue direction that holds no other vertex, only adds more, so
F_j is the max over root counts c >= 0 on the vertices with sum j of
min_x (m g(x) + extra(x) + sum_y c_y q(x ^ y)).  Nothing here names a
ramification index, a residue field or a slice of Z_p: the value is the
same over every complete field whose value group holds the weights.

The level m enters only as the factor of g in the vertex lines
j -> j q(x) + m g(x) + extra(x), so _level_sums scales the vertex data
of a metric to integers once, by one common denominator, and that one
scaling serves every level of a series.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import BerkvolError
from .field import INF, FieldContext
from .lattices import Lattice, intersect
from .metrics import Metric
from .tree import PLFunction, SkeletonTree, TreePoint, _rational, digit_sorted


class SectionError(BerkvolError):
    pass


def _vertex_weights(
    phi: Metric, m: int, x: TreePoint, extra: Optional[PLFunction]
) -> List[Fraction]:
    """[i q_x + m g(x) + extra(x) for i < N] at the vertex x, the weights of
    the basis (z - a_x)^i; N comes from _level_dimension, the one level rule."""
    base = m * phi.g.values[x]
    if extra is not None:
        base += extra.evaluate(x)
    return [i * x.q + base for i in range(_level_dimension(m, phi.d))]


def required_ramification(phi: Metric, m: int, extra: Optional[PLFunction] = None) -> int:
    """Smallest M making every vertex weight lie in (1/M)Z: the common
    denominator of the weights of _vertex_weights at every vertex."""
    return _integers([w for x in phi.tree.vertices for w in _vertex_weights(phi, m, x, extra)])[0]


def diagonal_weights(phi: Metric, m: int, extra: Optional[PLFunction] = None) -> List[Fraction]:
    """Effective weights min_x (i q_x + m g(x) + extra(x)) on a chain tree.

    Valid only on a chain of discs, where the vertices share one center,
    the recentered bases coincide and the unit ball is diagonal in the
    monomial basis.  Term by term, this is the tests' oracle for the
    envelope sum that unit_ball_valuations computes on such trees.
    """
    if not _is_chain(phi.tree):
        raise SectionError("diagonal weights need a single-center tree")
    per_vertex = [_vertex_weights(phi, m, x, extra) for x in phi.tree.vertices]
    return [min(w) for w in zip(*per_vertex)]


def sup_norm_lattice(
    phi: Metric, m: int, ctx: FieldContext, extra: Optional[PLFunction] = None
) -> Lattice:
    """Unit ball of the sup norm as a lattice over K_M.

    Intersection over the tree vertices of the diagonal lattices in the
    recentered monomial bases {(z - a_x)^i} with weights i q_x + m g(x).
    This is the K_M oracle for unit_ball_valuations, which computes the
    same determinant valuation from root counts on the tree; only tests
    call it.  ctx must lie over phi's prime.
    """
    if ctx.p != phi.p:
        raise SectionError(f"field context over p = {ctx.p}, metric over p = {phi.p}")
    N = _level_dimension(m, phi.d)
    result: Optional[Lattice] = None
    for x in phi.tree.vertices:
        weights = _vertex_weights(phi, m, x, extra)
        cols = []
        for j, w in enumerate(weights):
            k = -w * ctx.M
            if k.denominator != 1:
                raise SectionError(
                    f"weight {w} not in (1/{ctx.M})Z: ramification insufficient"
                )
            scale = ctx.pi_power(int(k))
            # (z - a)^j in monomial coordinates.
            poly = [Fraction(0)] * N
            a = -x.center
            for i in range(j + 1):
                poly[i] = math.comb(j, i) * a ** (j - i)
            cols.append([ctx.from_rational(poly[i]) * scale for i in range(N)])
        vertex_lattice = Lattice(ctx, [list(row) for row in zip(*cols)])
        result = vertex_lattice if result is None else intersect(result, vertex_lattice)
    if result is None:
        raise SectionError("tree has no vertices")
    return result


def _envelope_sum(lines: List[Tuple[int, int]], n: int) -> int:
    """sum_{i=0}^{n-1} min over (a, b) in lines of a i + b, in integers.

    One sort by falling slope builds the lower envelope over the integers
    i >= 0 as a monotone hull of (start, a, b): each line is least from
    its start to the next start, and the first starts at 0.  A new line
    of smaller slope is at most the top from the ceiling of their
    crossing on, so it pops every top whose start that ceiling reaches;
    if it pops them all, it starts at 0, and if its start is n or more,
    it never wins.  An equal slope comes with a smaller or equal
    intercept, and pops the top.  Then one arithmetic series per hull
    piece [lo, hi); (lo + hi - 1)(hi - lo) is even.  Any line order and
    n = 0 are allowed.
    """
    hull: List[Tuple[int, int, int]] = []
    for a, b in sorted(lines, reverse=True):
        while hull:
            s0, a0, b0 = hull[-1]
            if a0 != a:
                start = -((b0 - b) // (a0 - a))
                if start > s0:
                    if start < n:
                        hull.append((start, a, b))
                    break
            hull.pop()
        else:
            hull.append((0, a, b))
    total, hi = 0, n
    for lo, a, b in reversed(hull):
        total += a * (lo + hi - 1) * (hi - lo) // 2 + b * (hi - lo)
        hi = lo
    return total


def _is_chain(tree: SkeletonTree) -> bool:
    """True when no vertex has two children: a chain of discs around one point."""
    return all(len(c) <= 1 for c in tree.children.values())


def _maxmin_merge(g: List[int], h: List[int]) -> List[int]:
    """k -> max_{a+b=k} min(g[a], h[b]) for nondecreasing g, h of equal length.

    One greedy walk from (0, 0) that advances the index of the smaller
    value.  While min(g[a], h[b]) is below the optimum at k, the smaller
    side is below it too, so its index is below the least one reaching
    the optimum, and advancing it never passes an optimal split.
    """
    out = [min(g[0], h[0])]
    a = b = 0
    for _ in range(len(g) - 1):
        if g[a] < h[b]:
            a += 1
        else:
            b += 1
        out.append(min(g[a], h[b]))
    return out


def _root_count_norms(
    tree: SkeletonTree, lines: Dict[TreePoint, Tuple[int, int]], n: int
) -> List[int]:
    """[F_0, ..., F_{n-1}], F_j = max_{c >= 0, sum c = j} min_x (b_x + sum_y c_y q(x ^ y)).

    lines[x] = (q_x, b_x).  Leaf to root: h_v(k) is the best value over
    the subtree of v with k roots in it, measured from q_v.  A child u
    adds q_u - q_v per root to its h_u, children share the roots by the
    max-min merge, and v's own b_v caps the result; roots at v itself add
    nothing below it.  At the root, the Gauss point, q = 0.
    """
    h: Dict[TreePoint, List[int]] = {}
    for v in reversed(tree.vertices):
        qv, bv = lines[v]
        merged = None
        for u in tree.children[v]:
            dq = lines[u][0] - qv
            hu = [x + dq * k for k, x in enumerate(h.pop(u))]
            merged = hu if merged is None else _maxmin_merge(merged, hu)
        h[v] = [bv] * n if merged is None else [min(bv, x) for x in merged]
    return h[tree.vertices[0]]


def _level_dimension(m: int, d: int) -> int:
    """N = m d + 1, the dimension of the sections of O(md), for a level m
    that is an int >= 1: a float, a Fraction or a bool is no level."""
    if type(m) is not int:
        raise SectionError(f"m must be an integer, got {m!r}")
    if m < 1:
        raise SectionError("m must be >= 1")
    return m * d + 1


def _integers(values: List[Fraction]) -> Tuple[int, List[int]]:
    """(D, [v D for v in values]) for the lcm D of the denominators: the one
    rule that scales exact rationals to integers.  A value of another exact
    field has no denominator and is refused."""
    # A list, not a generator: a tuple built from a generator is resized,
    # and CPython's free list then keeps up to 2000 of them per length.
    try:
        D = math.lcm(*[v.denominator for v in values])
    except AttributeError:
        raise SectionError("exact integer scaling needs rational values") from None
    return D, [v.numerator * (D // v.denominator) for v in values]


def _level_sums(
    phi: Metric, ms: Iterable[int], extra: Optional[PLFunction] = None
) -> Tuple[int, List[int]]:
    """(D, [S_m for m in ms]) with v(det U_m) = -S_m / D, in integers.

    v(det U_m) = -sum_{j=0}^{md} F_j, with F_j the best monic degree-j
    norm over root counts on the tree (module docstring).  It involves
    only the vertex lines j -> j q_x + m g(x) + extra(x), so no
    ramification index is chosen.  q_x, g(x) and extra(x) are read once
    and scaled to integers Q_x, G_x, E_x by _integers, over the lcm D of
    all their denominators; level m runs on the integer lines
    j -> j Q_x + m G_x + E_x.  Both kernels are homogeneous under a
    common positive scaling, so every level is exact.  On a chain of
    discs the max-min is the lower envelope of the lines, summed by
    _envelope_sum over one sorted hull per level; on any other tree
    _root_count_norms runs the tree recursion in O(V (md + 1)).  extra
    may live on any tree: it is read at phi's vertices by interpolation,
    so a vertex of its own tree that phi's lacks is not seen
    (volumes._rr_refine refines phi first).
    """
    ms = list(ms)
    ns = [_level_dimension(m, phi.d) for m in ms]
    tree = phi.tree
    rows = [
        (x.q, phi.g.values[x], Fraction(0) if extra is None else extra.evaluate(x))
        for x in tree.vertices
    ]
    D, flat = _integers([c for row in rows for c in row])
    scaled = list(zip(*[iter(flat)] * 3))  # back into rows (Q_x, G_x, E_x)
    chain = _is_chain(tree)
    out = []
    for m, n in zip(ms, ns):
        lines = [(q, m * g + e) for q, g, e in scaled]
        if chain:
            out.append(_envelope_sum(lines, n))
        else:
            out.append(sum(_root_count_norms(tree, dict(zip(tree.vertices, lines)), n)))
    return D, out


def unit_ball_valuations(
    phi: Metric, ms: Iterable[int], extra: Optional[PLFunction] = None
) -> List[Fraction]:
    """[v(det U_m) for m in ms]: the unit balls U_m of the level-m sup norms
    of phi, one Fraction per level from _level_sums, extra read at phi's
    vertices by interpolation."""
    D, sums = _level_sums(phi, ms, extra)
    return [Fraction(-s, D) for s in sums]


def _valuation_gaps(
    low: Tuple[int, List[int]], high: Tuple[int, List[int]]
) -> List[Fraction]:
    """[u_m(high) - u_m(low)] for two results (D, [S_m]) of _level_sums over
    the same levels: S_m / D - S'_m / D' as one Fraction per level, over
    the lcm of D and D'."""
    (d_low, s_low), (d_high, s_high) = low, high
    den = math.lcm(d_low, d_high)
    k_low, k_high = den // d_low, den // d_high
    return [Fraction(a * k_low - b * k_high, den) for a, b in zip(s_low, s_high)]


def unit_ball_valuation(
    phi: Metric, m: int, extra: Optional[PLFunction] = None
) -> Fraction:
    """v(det U) of the unit ball U of the level-m sup norm of phi.

    The one-level case of unit_ball_valuations, extra read at phi's
    vertices by interpolation.
    """
    return unit_ball_valuations(phi, [m], extra)[0]


def vol_m(phi: Metric, psi: Metric, m: int) -> Fraction:
    """Exact relative volume of the level-m sup norms of phi and psi.

    v(det U_psi) - v(det U_phi), each from unit_ball_valuations, which
    rejects a level that is not an int >= 1.
    """
    if phi.d != psi.d:
        raise SectionError("metrics live on different line bundles")
    if phi.p != psi.p:
        raise SectionError("metrics over different primes")
    # Larger norms mean smaller balls, hence a larger determinant
    # valuation for the second argument.
    return unit_ball_valuation(psi, m) - unit_ball_valuation(phi, m)


def vandermonde_value(points: List[Fraction], phi: Metric, m: int):
    """Valuation of the metrized Vandermonde determinant of the monomial basis.

    v_p(prod_{i<j} (x_j - x_i)) plus m * sum_j phi(x_j); +INF when two
    points coincide.  In p-adic digit order v_p(x_j - x_i) is the least
    valuation of an adjacent pair from i to j, so the pair sum is a sum of
    range minima, taken with one monotone stack.
    """
    N = _level_dimension(m, phi.d)
    if len(points) != N:
        raise SectionError(f"need exactly {N} points, got {len(points)}")
    pts = [_rational(x) for x in points]
    weight = sum(m * phi.g.evaluate_center(x) for x in pts)  # raises off the closed disc
    if len(set(pts)) < N:
        return INF
    # (valuation, count) runs of v_p(y - x) over the x before y; they sum to `ending`
    total, ending, stack = 0, 0, []
    for v in digit_sorted(pts, phi.p)[1]:
        count = 1
        while stack and stack[-1][0] >= v:
            w, k = stack.pop()
            ending -= w * k
            count += k
        stack.append((v, count))
        ending += v * count
        total += ending
    return total + weight
