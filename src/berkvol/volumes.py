"""Asymptotics of relative volumes and the Riemann-Roch slope experiment.

Every fitted experiment (here, and diff and sandwich in experiments) first
builds its exact level series [(m, value)] from sections.unit_ball_valuations,
at every degree d >= 0, and hands the finished list to _extrapolate, the one
fit: an exact least-squares affine fit of value / m^power against 1/m over
the last DEFAULT_WINDOW levels.  The reported error bound is twice the
largest fit residual, a conservative empirical figure (no convergence rate
is assumed).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Tuple

from .errors import BerkvolError
from .metrics import Metric, envelope, energy, is_psh, ma_measure
from .sections import unit_ball_valuations
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
    error_bound: Fraction


def _extrapolate(samples: List[Tuple[int, Fraction]], power: int) -> ExtrapolationReport:
    """Fit value / m^power = a + b/m over the last DEFAULT_WINDOW samples.

    samples is a finished exact series [(m, value)], in increasing m.
    """
    tail = samples[-DEFAULT_WINDOW:]
    if len(tail) < 4:
        raise VolumeError(f"window of {len(tail)} samples is too small (need >= 4)")
    xs = [Fraction(1, m) for m, _ in tail]
    ys = [v / m**power for m, v in tail]
    a, b = affine_fit(xs, ys)
    bound = 2 * max(abs(y - (a + b * x)) for x, y in zip(xs, ys))
    return ExtrapolationReport(a, b, samples, [m for m, _ in tail], bound)


def vol_limit(phi: Metric, psi: Metric, m_range: Iterable[int]) -> ExtrapolationReport:
    """Extrapolated vol(L, phi, psi) from exact finite-level volumes.

    Each level's volume equals sections.vol_m, read off one series of
    unit balls per metric.
    """
    if phi.d != psi.d:
        raise VolumeError("metrics live on different line bundles")
    ms = sorted(set(m_range))
    vols = [a - b for a, b in zip(unit_ball_valuations(psi, ms), unit_ball_valuations(phi, ms))]
    return _extrapolate(list(zip(ms, vols)), power=2)


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
    Both unit balls come from sections.unit_ball_valuations on the common
    refinement of the two trees.
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
    shrunk = unit_ball_valuations(phi_r, ms, shrink_r)
    return [a - b for a, b in zip(shrunk, unit_ball_valuations(phi_r, ms))]


@dataclass
class RRReport:
    content: ExtrapolationReport
    target: Fraction

    @property
    def gap(self) -> Fraction:
        return self.content.estimate - self.target


def rr_slope_experiment(
    phi_D: PLFunction, phi_A: Metric, m_range: Iterable[int]
) -> RRReport:
    """Fit rr_content(m)/m against 1/m; the intercept should approach
    the pairing of phi_D with the Monge-Ampere measure of phi_A."""
    phi_r, shrink_r = _rr_refine(phi_D, phi_A)
    ms = sorted(set(m_range))
    content = _extrapolate(list(zip(ms, _rr_content_refined(phi_r, shrink_r, ms))), power=1)
    return RRReport(content, ma_measure(phi_A).integrate(phi_D))
