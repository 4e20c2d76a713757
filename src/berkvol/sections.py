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


def _vertex_weights(
    phi: Metric, m: int, x: TreePoint, extra: Optional[PLFunction]
) -> List[Fraction]:
    base = m * phi.g.values[x]
    if extra is not None:
        base += extra.evaluate(x)
    return [i * x.q + base for i in range(m * phi.d + 1)]


def required_ramification(phi: Metric, m: int, extra: Optional[PLFunction] = None) -> int:
    """Smallest M making every diagonal weight lie in (1/M)Z."""
    dens = [1]
    for x in phi.tree.vertices:
        for w in _vertex_weights(phi, m, x, extra):
            dens.append(w.denominator)
    return math.lcm(*dens)


def _single_center(phi: Metric) -> Optional[Fraction]:
    """Common center if all tree vertices are discs around one point."""
    center = None
    for x in phi.tree.vertices:
        if center is None:
            center = x.center
        elif padic_valuation(center - x.center, phi.p) < x.q:
            return None
    return center


def diagonal_weights(phi: Metric, m: int, extra: Optional[PLFunction] = None) -> List[Fraction]:
    """Effective weights min_x (i q_x + m g(x) + extra(x)) on a chain tree.

    Valid only when all vertices share one center, so the recentered
    bases coincide and the unit ball is diagonal in the monomial basis.
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


def vol_m(
    phi: Metric, psi: Metric, m: int, M: Optional[int] = None
) -> Fraction:
    """Exact relative volume of the level-m sup norms of phi and psi."""
    if phi.d != psi.d:
        raise SectionError("metrics live on different line bundles")
    if m < 1:
        raise SectionError("m must be >= 1")
    ca, cb = _single_center(phi), _single_center(psi)
    if (
        M is None
        and ca is not None
        and cb is not None
        and (ca == cb or padic_valuation(ca - cb, phi.p) >= max_vertex_q(phi, psi))
    ):
        wa = diagonal_weights(phi, m)
        wb = diagonal_weights(psi, m)
        return sum(wa, Fraction(0)) - sum(wb, Fraction(0))
    if M is None:
        M = math.lcm(required_ramification(phi, m), required_ramification(psi, m))
    ctx = FieldContext(phi.p, M)
    La = sup_norm_lattice(phi, m, ctx)
    Lb = sup_norm_lattice(psi, m, ctx)
    # Relative volume of the unit balls: vol(N_phi, N_psi) picks up a sign
    # because larger norms mean smaller balls, hence larger determinant
    # valuation for the second argument.
    return Lb.det_valuation() - La.det_valuation()


def max_vertex_q(*metrics: Metric) -> Fraction:
    return max(x.q for phi in metrics for x in phi.tree.vertices)


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
