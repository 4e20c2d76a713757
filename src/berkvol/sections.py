"""Polynomial sections of O(md): pointwise and sup norms, unit-ball lattices.

A section is a rational polynomial of degree <= md in the affine chart.
All norm values are reported in valuation form (-log_p of the norm).  On
the closed unit disc the trivial metric has weight zero, so the point
norm at zeta_{a, p^-q} is the recentered Gauss norm plus m*g.

The sup over the whole analytification reduces to a minimum over the
tree vertices: the valuation of |s| is concave in the radius exponent
along edges and nondecreasing in the off-tree directions, while outside
the unit disc the outward slope is deg(s) - md <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import BerkvolError
from .field import INF, FieldContext, padic_valuation
from .lattices import Lattice, intersect
from .metrics import Metric
from .tree import PLFunction, TreePoint


class SectionError(BerkvolError):
    pass


@dataclass
class Section:
    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        self.coeffs = tuple(Fraction(c) for c in self.coeffs)

    @property
    def degree(self) -> int:
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i] != 0:
                return i
        return -1

    def is_zero(self) -> bool:
        return self.degree < 0

    def recenter(self, a: Fraction) -> Tuple[Fraction, ...]:
        """Coefficients of s(z + a), by exact Horner shifts."""
        a = Fraction(a)
        out = list(self.coeffs)
        n = len(out)
        if a == 0:
            return tuple(out)
        for k in range(n):
            for i in range(n - 2, k - 1, -1):
                out[i] += a * out[i + 1]
        return tuple(out)


def point_norm(s: Section, x: TreePoint, phi: Metric, m: int):
    """Valuation of |s(x)| e^{-m phi(x)} for x in the unit-disc region."""
    if s.degree > m * phi.d:
        raise SectionError(f"degree {s.degree} exceeds m*d = {m * phi.d}")
    c = s.recenter(x.center)
    best = INF
    for i, ci in enumerate(c):
        if ci == 0:
            continue
        v = padic_valuation(ci, phi.p) + i * x.q
        if v < best:
            best = v
    return best + m * phi.value(x) if best != INF else INF


def sup_norm(s: Section, phi: Metric, m: int):
    """Valuation form of the sup norm: min of point_norm over the vertices."""
    if s.is_zero():
        raise SectionError("sup norm of the zero section")
    return min(point_norm(s, x, phi, m) for x in phi.tree.vertices)


def _vertex_base(
    phi: Metric, m: int, x: TreePoint, extra: Optional[PLFunction]
) -> Fraction:
    """m g(x) + extra(x): the weight at vertex x of the constant section."""
    base = m * phi.g.values[x]
    if extra is not None:
        base += extra.evaluate(x)
    return base


def _vertex_weights(
    phi: Metric, m: int, x: TreePoint, extra: Optional[PLFunction]
) -> List[Fraction]:
    base = _vertex_base(phi, m, x, extra)
    return [i * x.q + base for i in range(m * phi.d + 1)]


def required_ramification(phi: Metric, m: int, extra: Optional[PLFunction] = None) -> int:
    """Smallest M making every diagonal weight lie in (1/M)Z."""
    dens = [1]
    for x in phi.tree.vertices:
        for w in _vertex_weights(phi, m, x, extra):
            dens.append(w.denominator)
    return math.lcm(*dens)


def _single_center(phi: Metric) -> Optional[Fraction]:
    """Common center if all tree vertices are discs around one point.

    Vertices are sorted by q, so the last one is a deepest disc; the tree
    is a chain exactly when every vertex disc contains its center.
    """
    center = phi.tree.vertices[-1].center
    for x in phi.tree.vertices:
        if padic_valuation(center - x.center, phi.p) < x.q:
            return None
    return center


def diagonal_weights(phi: Metric, m: int, extra: Optional[PLFunction] = None) -> List[Fraction]:
    """Effective weights min_x (i q_x + m g(x) + extra(x)) on a chain tree.

    Valid only when all vertices share one center, so the recentered
    bases coincide and the unit ball is diagonal in the monomial basis.
    Term by term, this is the tests' oracle for the envelope sum that
    unit_ball_valuation computes on such trees.
    """
    if _single_center(phi) is None:
        raise SectionError("diagonal weights need a single-center tree")
    N = m * phi.d + 1
    per_vertex = [_vertex_weights(phi, m, x, extra) for x in phi.tree.vertices]
    return [min(w[i] for w in per_vertex) for i in range(N)]


def sup_norm_lattice(
    phi: Metric, m: int, ctx: FieldContext, extra: Optional[PLFunction] = None
) -> Lattice:
    """Unit ball of the sup norm as a lattice over K_M.

    Intersection over the tree vertices of the diagonal lattices in the
    recentered monomial bases {(z - a_x)^i} with weights i q_x + m g(x).
    This is the K_M oracle for unit_ball_valuation, which computes the
    same determinant valuation from Z_p slices; only tests call it.
    """
    N = m * phi.d + 1
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


def _taylor_shift(a: Fraction, N: int, mod: int) -> List[List[int]]:
    """Rows of T_a mod `mod`: (T_a s)_j = sum_{i>=j} C(i, j) a^(i-j) s_i.

    Built by Pascal's rule T[j][i] = T[j-1][i-1] + a T[j][i-1]; the
    denominator of a is a p-adic unit, so it is inverted mod `mod`.
    """
    a_mod = a.numerator * pow(a.denominator, -1, mod) % mod
    rows = [[1] + [0] * (N - 1)]
    for i in range(1, N):
        rows[0][i] = rows[0][i - 1] * a_mod % mod
    for j in range(1, N):
        prev = rows[-1]
        row = [0] * N
        row[j] = 1
        for i in range(j + 1, N):
            row[i] = (prev[i - 1] + a_mod * row[i - 1]) % mod
        rows.append(row)
    return rows


def _slice_valuation(p: int, centers: List[Fraction], exps: List[List[int]]) -> int:
    """v_p det of B = {s in Q_p^N : v_p((T_x s)_j) >= exps[x][j] for all x, j}.

    B is dual to the row module of the rows p^-e (T_x)_j.  Scaled by p^E,
    E = max e, those rows are integral and span a module R with
    v_p det B = N E - v_p det R.  Each vertex block alone spans a module
    with elementary divisors {E - e_{x,j}}, so R contains p^(K-1) Z_p^N
    for K = 1 + min_x max_j (E - e_{x,j}): echelon form modulo p^K, with
    a pivot of minimal valuation in each column, is exact.
    """
    N = len(exps[0])
    E = max(max(es) for es in exps)
    K = 1 + min(E - min(es) for es in exps)
    mod = p**K
    rows = []
    for a, es in zip(centers, exps):
        for row, e in zip(_taylor_shift(a, N, mod), es):
            if E - e < K:  # otherwise the scaled row is 0 mod p^K
                scale = p ** (E - e)
                rows.append([scale * c % mod for c in row])
    pivots = 0
    for c in range(N):
        best, best_v = -1, K
        for r, row in enumerate(rows):
            x = row[c]
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                if v < best_v:
                    best, best_v = r, v
                    if v == 0:
                        break
        if best < 0:
            raise SectionError("slice module lost rank modulo p^K")
        piv = rows.pop(best)
        unit_inv = pow(piv[c] // p**best_v, -1, mod)
        kept = []
        for row in rows:
            if row[c]:
                f = (row[c] // p**best_v) * unit_inv % mod
                row = [(x - f * y) % mod for x, y in zip(row, piv)]
            if any(row[c + 1:]):
                kept.append(row)
        rows = kept
        pivots += best_v
    return N * E - pivots


def _envelope_sum(lines: List[Tuple[int, int]], n: int) -> int:
    """sum_{i=0}^{n-1} min over (a, b) in lines of a i + b, in integers.

    Walks the lower envelope from i = 0.  Each run [lo, hi) takes the
    line least at lo, ties going to the smaller slope, which stays least
    after lo.  The run ends at the first integer where a line of smaller
    slope is at most it: the ceiling of their crossing.  Slopes fall
    from run to run, so there are at most V = len(lines) runs and
    O(V^2) integer operations; (lo + hi - 1)(hi - lo) is even.
    """
    total, lo = 0, 0
    while lo < n:
        a, b = min(lines, key=lambda line: (line[0] * lo + line[1], line[0]))
        hi = n
        for a2, b2 in lines:
            if a2 < a:
                hi = min(hi, -((b - b2) // (a - a2)))
        total += a * (lo + hi - 1) * (hi - lo) // 2 + b * (hi - lo)
        lo = hi
    return total


def unit_ball_valuation(
    phi: Metric, m: int, extra: Optional[PLFunction] = None
) -> Fraction:
    """v(det U) of the unit ball U of the level-m sup norm of phi.

    With w_{x,j} = j q_x + m g(x) + extra(x), U is cut out by
    v((T_x s)_j) >= -w_{x,j} at every vertex x, T_x the Taylor shift to
    the center a_x.  v(det U) does not depend on the basis, and T_a is
    unimodular for a in Z_p.  So on a single-center tree, where U is
    diagonal in the basis (z - a)^j, v(det U) = -sum_j min_x w_{x,j}:
    the sum over j = 0..md of the lower envelope of the vertex lines
    j -> w_{x,j}, taken in integers after scaling by the lcm D of their
    denominators.  On any other tree _slice_integral integrates v(det U)
    over Z_p slices.
    """
    if _single_center(phi) is not None:
        lines = [(x.q, _vertex_base(phi, m, x, extra)) for x in phi.tree.vertices]
        # A list, not a generator: a tuple built from a generator is resized,
        # and CPython's free list then keeps up to 2000 of them per length.
        D = math.lcm(*[c.denominator for line in lines for c in line])

        def scaled(c: Fraction) -> int:
            return c.numerator * (D // c.denominator)

        total = _envelope_sum([(scaled(a), scaled(b)) for a, b in lines], m * phi.d + 1)
        return Fraction(-total, D)
    return _slice_integral(phi, m, extra)


def _slice_integral(
    phi: Metric, m: int, extra: Optional[PLFunction] = None
) -> Fraction:
    """v(det U) from Z_p slices, valid on every tree.

    Over any K_M = Q_p(p^(1/M)) that makes the weights rational with
    denominator dividing M, U is the sum of the slices pi^k B_{k/M},
    where B_t is the Z_p-lattice of v_p((T_x s)_j) >= ceil(-w_{x,j} - t).
    Hence v(det U) = integral over t in [0, 1) of v_p det B_t, a step
    function that only jumps at the fractional parts of the -w_{x,j}.
    """
    verts = phi.tree.vertices
    weights = [_vertex_weights(phi, m, x, extra) for x in verts]
    cuts = sorted({Fraction(0)} | {-w - math.floor(-w) for ws in weights for w in ws})
    centers = [x.center for x in verts]
    total = Fraction(0)
    for t, t_next in zip(cuts, cuts[1:] + [Fraction(1)]):
        exps = [[math.ceil(-w - t) for w in ws] for ws in weights]
        total += (t_next - t) * _slice_valuation(phi.p, centers, exps)
    return total


def vol_m(phi: Metric, psi: Metric, m: int) -> Fraction:
    """Exact relative volume of the level-m sup norms of phi and psi.

    v(det U_psi) - v(det U_phi), each from unit_ball_valuation.
    """
    if phi.d != psi.d:
        raise SectionError("metrics live on different line bundles")
    if m < 1:
        raise SectionError("m must be >= 1")
    # Larger norms mean smaller balls, hence a larger determinant
    # valuation for the second argument.
    return unit_ball_valuation(psi, m) - unit_ball_valuation(phi, m)


def vandermonde_value(points: List[Fraction], phi: Metric, m: int):
    """Valuation of the metrized Vandermonde determinant of the monomial basis.

    v_p(prod_{i<j} (x_j - x_i)) plus m * sum_j phi(x_j); +INF when two
    points coincide.
    """
    N = m * phi.d + 1
    if len(points) != N:
        raise SectionError(f"need exactly {N} points, got {len(points)}")
    pts = [Fraction(x) for x in points]
    total = Fraction(0)
    for i in range(N):
        for j in range(i + 1, N):
            v = padic_valuation(pts[j] - pts[i], phi.p)
            if v == INF:
                return INF
            total += v
    for x in pts:
        total += m * phi.g.evaluate_center(x)
    return total
