"""Exact limits of relative volumes, their one-sided derivatives, and the
Riemann-Roch slope experiment.

With u_m(phi) = v(det U_m(phi)) (sections.unit_ball_valuations), -u_m / m^2
tends to the integral over [0, d] of G(t) = min(g(root), max{z : F(z) <= t}),
F the root deficit: G is the root's knot list in the envelope's pass with
obstacle g at every vertex, and metrics._solve integrates it, so knot lists
never leave metrics.  A metric runs that solve once, for its volume limit
and its envelope both.  vol_limit is exact; nothing is fitted.  Over dual
numbers a + b eps, obstacle g + eps f gives the right derivative of
t -> vol(L, phi + t f, phi) at 0 as the eps-part.  Level series are data only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import BerkvolError, Frozen
from .metrics import Metric, _solve, envelope, energy, is_psh, ma_measure
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


def right_derivative(phi: Metric, f: PLFunction) -> Fraction:
    """d/dt at 0+ of the integral of G for phi + t f, f on any tree: f is
    read at phi's vertices, which hold every atom of MA(P(phi))."""
    obstacle = {v: _Dual((phi.g.values[v], f.evaluate(v))) for v in phi.tree.vertices}
    return _solve(phi.tree, phi.d, obstacle)[0][1]


def vol_limit(phi: Metric, psi: Metric) -> Fraction:
    """vol(L, phi, psi), exactly: the difference of the integrals of G."""
    if phi.d != psi.d:
        raise VolumeError("metrics live on different line bundles")
    if phi.p != psi.p:
        raise VolumeError("metrics over different primes")
    return phi._solved[0] - psi._solved[0]


class VolEnergyReport(Frozen):
    """samples: the (m, vol_m) pairs; limit, energy, and gap = limit - energy."""


def check_vol_equals_energy(
    phi: Metric, psi: Metric, m_range: Iterable[int]
) -> VolEnergyReport:
    """Compare vol(L, phi, psi) against E(env(phi), env(psi)), and record
    the exact level series vol_m(phi, psi) for m in m_range."""
    limit = vol_limit(phi, psi)
    ms = sorted(set(m_range))
    vols = _valuation_gaps(_level_sums(phi, ms), _level_sums(psi, ms))
    e = energy(envelope(phi), envelope(psi))
    return VolEnergyReport(samples=list(zip(ms, vols)), limit=limit, energy=e, gap=limit - e)


def rr_content(phi_D: PLFunction, phi_A: Metric, m: int) -> Fraction:
    """Content of the level-m restriction to the vertical divisor of phi_D.

    Computed as v(det U') - v(det U), for U the unit ball of the level-m
    sup norm of phi_A and U' its sublattice of sections s with pointwise
    valuation of |s| e^{-m phi_A} at least phi_D everywhere.  Over a DVR
    that difference is the content of the quotient U / U'.  Both
    determinant valuations come from the integer sums of
    sections._level_sums on the common refinement of the two trees.
    """
    phi_r, shrink_r = _rr_refine(phi_D, phi_A)
    shrunk = _level_sums(phi_r, [m], shrink_r)
    return _valuation_gaps(_level_sums(phi_r, [m]), shrunk)[0]


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


class RRReport(Frozen):
    """samples: the (m, rr_content) pairs; slope, and its target."""


def rr_slope_experiment(
    phi_D: PLFunction, phi_A: Metric, m_range: Iterable[int]
) -> RRReport:
    """The exact slope lim rr_content(m) / m, against the pairing of phi_D
    with MA(phi_A).  As rr_content(m) = u_m(phi_A - phi_D / m) - u_m(phi_A),
    it is minus the right derivative in the direction -phi_D, on the tree of
    _rr_refine; the level series is recorded as data."""
    phi_r, shrink_r = _rr_refine(phi_D, phi_A)
    ms = sorted(set(m_range))
    shrunk = _level_sums(phi_r, ms, shrink_r)
    samples = list(zip(ms, _valuation_gaps(_level_sums(phi_r, ms), shrunk)))
    slope = -right_derivative(phi_r, shrink_r)
    return RRReport(samples=samples, slope=slope, target=ma_measure(phi_A).integrate(phi_D))
