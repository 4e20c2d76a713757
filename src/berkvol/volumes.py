"""Exact limits of relative volumes, their one-sided derivatives, and the
Riemann-Roch slope experiment.

With u_m(phi) = v(det U_m(phi)) (sections.unit_ball_valuations), -u_m / m^2
tends to the integral over [0, d] of G(t) = min(g(root), max{z : F(z) <= t}),
F the root deficit: G is the root's knot list in the envelope's pass
metrics._leaf_to_root, with obstacle g at every vertex.  vol_limit is
exact, and nothing is fitted.  Over dual numbers a + b eps, obstacle
g + eps f gives the right derivative of t -> vol(L, phi + t f, phi) at 0
as the eps-part.  Level series are kept as data only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, NamedTuple, Tuple

from .errors import BerkvolError
from .metrics import Metric, _eval, _leaf_to_root, envelope, energy, is_psh, ma_measure
from .sections import _level_sums, _valuation_gaps
from .tree import PLFunction, refine


class VolumeError(BerkvolError):
    pass


# Not called by the package: it stays importable while the benchmark's
# tracer patches it by name.
def affine_fit(xs: List[Fraction], ys: List[Fraction]) -> Tuple[Fraction, Fraction]:
    """Exact least-squares fit y = a + b x; returns (a, b)."""
    n = len(xs)
    sx = sum(xs, Fraction(0))
    sy = sum(ys, Fraction(0))
    sxx = sum((x * x for x in xs), Fraction(0))
    sxy = sum((x * y for x, y in zip(xs, ys)), Fraction(0))
    det = n * sxx - sx * sx
    if det == 0:
        raise VolumeError("degenerate fit abscissae")
    b = (n * sxy - sx * sy) / det
    a = (sy - b * sx) / n
    return a, b


class _Dual(tuple):
    """a + b eps as the pair (a, b), for an infinitesimal eps > 0: eps^2 is
    dropped and the tuple order is the lexicographic one.  Arithmetic also
    takes a rational right operand, and a rational times a _Dual is defined;
    comparisons take _Duals only."""

    def __add__(self, o):
        a, b = self
        return _Dual((a + o[0], b + o[1]) if type(o) is _Dual else (a + o, b))

    def __sub__(self, o):
        a, b = self
        return _Dual((a - o[0], b - o[1]) if type(o) is _Dual else (a - o, b))

    def __mul__(self, o):
        a, b = self
        return _Dual((a * o[0], a * o[1] + b * o[0]) if type(o) is _Dual else (a * o, b * o))

    __rmul__ = __mul__

    def __truediv__(self, o):
        a, b = self
        if type(o) is not _Dual:
            return _Dual((a / o, b / o))
        c, e = o
        if c == 0:
            # Infinitesimal over infinitesimal: a slope across a piece of
            # length O(eps).  Its eps-part only ever meets O(eps) factors, so
            # it would only reach eps^2: the ratio of the eps-parts counts.
            if a != 0:
                raise ZeroDivisionError("finite over infinitesimal")
            return _Dual((b / e, Fraction(0)))
        q = a / c
        return _Dual((q, (b - q * e) / c))


def _integral(phi: Metric, obstacle: dict, zero):
    """The integral of G = W_root over [0, d], for an obstacle at every vertex
    of phi.tree: one trapezoid per knot piece, between the knots below d and
    the point (d, G(d))."""
    W = _leaf_to_root(phi.tree, obstacle, zero)[phi.tree.root]
    d = zero + phi.d
    knots = [(t, g) for t, g in zip(W[0], W[1]) if t < d] + [(d, _eval(W, d))]
    return sum(((t1 - t0) * (g0 + g1) for (t0, g0), (t1, g1) in zip(knots, knots[1:])), zero) / 2


def right_derivative(phi: Metric, f: PLFunction) -> Fraction:
    """d/dt at 0+ of the integral of G for phi + t f, with f on phi's tree."""
    obstacle = {v: _Dual((phi.g.values[v], f.values[v])) for v in phi.tree.vertices}
    return _integral(phi, obstacle, _Dual((Fraction(0), Fraction(0))))[1]


def vol_limit(phi: Metric, psi: Metric) -> Fraction:
    """vol(L, phi, psi), exactly: the difference of the integrals of G."""
    if phi.d != psi.d:
        raise VolumeError("metrics live on different line bundles")
    return _integral(phi, phi.g.values, Fraction(0)) - _integral(psi, psi.g.values, Fraction(0))


class VolEnergyReport(NamedTuple):
    samples: List[Tuple[int, Fraction]]
    limit: Fraction
    energy: Fraction
    gap: Fraction


def check_vol_equals_energy(
    phi: Metric, psi: Metric, m_range: Iterable[int]
) -> VolEnergyReport:
    """Compare vol(L, phi, psi) against E(env(phi), env(psi)), and record
    the exact level series vol_m(phi, psi) for m in m_range."""
    limit = vol_limit(phi, psi)
    ms = sorted(set(m_range))
    vols = _valuation_gaps(_level_sums(phi, ms), _level_sums(psi, ms))
    e = energy(envelope(phi), envelope(psi))
    return VolEnergyReport(list(zip(ms, vols)), limit, e, limit - e)


def rr_content(phi_D: PLFunction, phi_A: Metric, m: int) -> Fraction:
    """Content of the level-m restriction to the vertical divisor of phi_D.

    Computed as v(det U') - v(det U), for U the unit ball of the level-m
    sup norm of phi_A and U' its sublattice of sections s with pointwise
    valuation of |s| e^{-m phi_A} at least phi_D everywhere.  Over a DVR
    that difference is the content of the quotient U / U'.  Both
    determinant valuations come from the integer sums of
    sections._level_sums on the common refinement of the two trees.
    """
    return _rr_content_refined(*_rr_refine(phi_D, phi_A), [m])[0]


def _rr_refine(phi_D: PLFunction, phi_A: Metric) -> Tuple[Metric, PLFunction]:
    """Check the inputs of rr_content, and put phi_A and -phi_D on one tree.

    Neither the checks nor the common tree depend on the level m.
    """
    if any(v < 0 for v in phi_D.values.values()):
        raise VolumeError("divisor function must be nonnegative (effectivity)")
    if not is_psh(phi_A):
        raise VolumeError("ample-side metric must be psh")
    tree = refine(phi_A.tree, phi_D.tree.vertices)
    return phi_A.on_tree(tree), phi_D.scale(Fraction(-1)).on_tree(tree)


def _rr_content_refined(phi_r: Metric, shrink_r: PLFunction, ms: List[int]) -> List[Fraction]:
    """rr_content at each level of ms, on the common tree of _rr_refine."""
    shrunk = _level_sums(phi_r, ms, shrink_r)
    return _valuation_gaps(_level_sums(phi_r, ms), shrunk)


class RRReport(NamedTuple):
    samples: List[Tuple[int, Fraction]]
    slope: Fraction
    target: Fraction


def rr_slope_experiment(
    phi_D: PLFunction, phi_A: Metric, m_range: Iterable[int]
) -> RRReport:
    """The exact slope lim rr_content(m) / m, against the pairing of phi_D
    with MA(phi_A).  As rr_content(m) = u_m(phi_A - phi_D / m) - u_m(phi_A),
    it is minus the right derivative in the direction -phi_D, on the tree of
    _rr_refine; the level series is recorded as data."""
    phi_r, shrink_r = _rr_refine(phi_D, phi_A)
    ms = sorted(set(m_range))
    samples = list(zip(ms, _rr_content_refined(phi_r, shrink_r, ms)))
    slope = -right_derivative(phi_r, shrink_r)
    return RRReport(samples, slope, ma_measure(phi_A).integrate(phi_D))
