"""Asymptotics of relative volumes and the Riemann-Roch slope experiment.

The finite-level values are exact rationals; a limit is read off an exact
least-squares affine fit of value / m^power against 1/m over the last
DEFAULT_WINDOW levels.  The reported error bound is twice the largest fit
residual, a conservative empirical figure (no convergence rate is assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Tuple

from .errors import BerkvolError
from .metrics import Metric, envelope, energy, is_psh, ma_measure
from .sections import unit_ball_valuation, vol_m
from .tree import PLFunction, refine


class VolumeError(BerkvolError):
    pass


DEFAULT_WINDOW = 8


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


@dataclass
class ExtrapolationReport:
    estimate: Fraction
    slope: Fraction
    samples: List[Tuple[int, Fraction]]
    window: List[int]
    residuals: List[Tuple[int, Fraction]]
    error_bound: Fraction

    def normalized(self) -> List[Tuple[int, Fraction]]:
        return [(m, v / (m * m)) for m, v in self.samples]


def _extrapolate(
    fn: Callable[[int], Fraction], m_range: Iterable[int], power: int
) -> ExtrapolationReport:
    """Fit fn(m) / m^power = a + b/m over the last DEFAULT_WINDOW levels."""
    samples = [(m, fn(m)) for m in sorted(set(m_range))]
    tail = samples[-DEFAULT_WINDOW:]
    if len(tail) < 4:
        raise VolumeError(f"window of {len(tail)} samples is too small (need >= 4)")
    xs = [Fraction(1, m) for m, _ in tail]
    ys = [v / m**power for m, v in tail]
    a, b = affine_fit(xs, ys)
    residuals = [(m, y - (a + b * x)) for (m, _), x, y in zip(tail, xs, ys)]
    bound = 2 * max(abs(r) for _, r in residuals)
    return ExtrapolationReport(a, b, samples, [m for m, _ in tail], residuals, bound)


def vol_limit(phi: Metric, psi: Metric, m_range: Iterable[int]) -> ExtrapolationReport:
    """Extrapolated vol(L, phi, psi) from exact finite-level volumes."""
    return _vol_limit(phi, psi, m_range, lambda m: vol_m(phi, psi, m))


def _vol_limit(
    phi: Metric, psi: Metric, m_range: Iterable[int], vol: Callable[[int], Fraction]
) -> ExtrapolationReport:
    """vol_limit, with the level-m volume vol(m) of phi against psi
    supplied by the caller (diff_experiment shares psi's unit balls)."""
    if phi.d != psi.d:
        raise VolumeError("metrics live on different line bundles")
    if phi.d == 0:
        samples = [(m, Fraction(0)) for m in sorted(set(m_range))]
        return ExtrapolationReport(
            Fraction(0), Fraction(0), samples, [m for m, _ in samples],
            [(m, Fraction(0)) for m, _ in samples], Fraction(0),
        )
    return _extrapolate(vol, m_range, power=2)


@dataclass
class VolEnergyReport:
    volume: ExtrapolationReport
    energy: Fraction
    gap: Fraction

    def within_bound(self) -> bool:
        return abs(self.gap) <= self.volume.error_bound


def check_vol_equals_energy(
    phi: Metric, psi: Metric, m_range: Iterable[int]
) -> VolEnergyReport:
    """Compare vol(L, phi, psi) against E(env(phi), env(psi))."""
    rep = vol_limit(phi, psi, m_range)
    e = energy(envelope(phi), envelope(psi))
    return VolEnergyReport(rep, e, rep.estimate - e)


def rr_content(phi_D: PLFunction, phi_A: Metric, m: int) -> Fraction:
    """Content of the level-m restriction to the vertical divisor of phi_D.

    Computed as the content of the quotient of the unit ball of the
    level-m sup norm of phi_A by the sublattice of sections s with
    pointwise valuation of |s| e^{-m phi_A} at least phi_D everywhere.
    Both unit balls come from sections.unit_ball_valuation on the common
    refinement of the two trees.
    """
    return _rr_content_refined(*_rr_refine(phi_D, phi_A), m)


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


def _rr_content_refined(phi_r: Metric, shrink_r: PLFunction, m: int) -> Fraction:
    """Level-m part of rr_content, on the common tree of _rr_refine."""
    return unit_ball_valuation(phi_r, m, shrink_r) - unit_ball_valuation(phi_r, m)


@dataclass
class RRReport:
    samples: List[Tuple[int, Fraction]]
    slope_estimate: Fraction
    target: Fraction
    residuals: List[Tuple[int, Fraction]]
    error_bound: Fraction
    window: List[int]

    @property
    def gap(self) -> Fraction:
        return self.slope_estimate - self.target


def rr_slope_experiment(
    phi_D: PLFunction, phi_A: Metric, m_range: Iterable[int]
) -> RRReport:
    """Fit rr_content(m)/m against 1/m; the intercept should approach
    the pairing of phi_D with the Monge-Ampere measure of phi_A."""
    phi_r, shrink_r = _rr_refine(phi_D, phi_A)
    rep = _extrapolate(lambda m: _rr_content_refined(phi_r, shrink_r, m), m_range, power=1)
    target = ma_measure(phi_A).integrate(phi_D)
    return RRReport(rep.samples, rep.estimate, target, rep.residuals, rep.error_bound, rep.window)
