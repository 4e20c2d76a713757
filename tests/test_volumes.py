import random
from fractions import Fraction

import pytest

from berkvol import volumes
from berkvol.metrics import Metric, energy, ma_measure, trivial_metric
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point
from berkvol.volumes import (
    VolumeError,
    affine_fit,
    check_vol_equals_energy,
    rr_content,
    rr_slope_experiment,
    vol_limit,
)

from conftest import random_psh_metric


def slope_metric(p, d, slope, depth=1):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(depth))
    tree = build_tree(p, [g0, x])
    return Metric(d, PLFunction(tree, {g0: Fraction(0), x: slope * depth}))


def tent_function(p, height=Fraction(1)):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(1))
    tree = build_tree(p, [g0, x])
    return PLFunction(tree, {g0: Fraction(0), x: height})


def test_affine_fit_exact():
    xs = [Fraction(1, m) for m in (2, 3, 5, 7)]
    ys = [Fraction(3) - Fraction(5, m) for m in (2, 3, 5, 7)]
    assert affine_fit(xs, ys) == (Fraction(3), Fraction(-5))


def test_vol_limit_constant_shift():
    rng = random.Random(9)
    phi = random_psh_metric(2, 1, rng)
    c = Fraction(3, 2)
    rep = vol_limit(phi.shift(c), phi, range(4, 20, 2))
    # vol_m = m c (m d + 1), so vol_m / m^2 = c d + c/m with zero residuals
    assert rep.estimate == c
    assert rep.slope == c
    assert rep.error_bound == 0


def test_vol_limit_needs_enough_samples():
    phi = trivial_metric(2, 1)
    with pytest.raises(VolumeError):
        vol_limit(phi, phi, [2, 4, 6])


def test_vol_limit_degree_zero():
    phi = trivial_metric(2, 0)
    rep = vol_limit(phi, phi.shift(Fraction(0)), [1, 2, 3, 4])
    assert rep.estimate == 0 and rep.error_bound == 0


def test_check_vol_equals_energy_exact_case():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    rep = check_vol_equals_energy(phi, trivial_metric(2, 1), range(8, 41, 2))
    assert rep.volume.estimate == Fraction(-1, 8)
    assert rep.energy == Fraction(-1, 8)
    assert rep.gap == 0
    assert rep.within_bound()


def test_vol_uses_envelopes_for_non_psh_input():
    # a tent-shaped metric has trivial envelope, so the volume vanishes
    p = 2
    tent = Metric(1, tent_function(p))
    rep = check_vol_equals_energy(tent, trivial_metric(p, 1), range(8, 41, 4))
    assert rep.energy == 0
    assert rep.volume.estimate == 0
    assert rep.within_bound()


def test_rr_content_constant_divisor():
    p = 2
    phiA = trivial_metric(p, 1)
    for k in (1, 2, 3):
        g0 = gauss_point(p)
        tree = build_tree(p, [g0])
        phiD = PLFunction(tree, {g0: Fraction(k)})
        # h^0 of O(m) twisted down by a constant k: content k per section
        for m in (1, 2, 4):
            assert rr_content(phiD, phiA, m) == k * (m + 1)


def test_rr_content_tent_divisor():
    p = 2
    phiD = tent_function(p)
    phiA = trivial_metric(p, 1)
    for m in (1, 2, 3, 5):
        assert rr_content(phiD, phiA, m) == 1


def test_rr_content_nonnegative_randomized():
    rng = random.Random(17)
    for _ in range(8):
        phiA = random_psh_metric(2, 1, rng)
        tree = phiA.tree
        phiD = PLFunction(
            tree, {v: Fraction(rng.randint(0, 3)) for v in tree.vertices}
        )
        assert rr_content(phiD, phiA, rng.choice([1, 2, 3])) >= 0


def test_rr_slope_matches_pairing():
    p = 2
    phiA = slope_metric(p, 1, Fraction(-1, 2))
    phiD = tent_function(p)
    rep = rr_slope_experiment(phiD, phiA, range(2, 21, 2))
    target = ma_measure(phiA).integrate(phiD)
    assert rep.target == target == Fraction(1, 2)
    assert abs(rep.slope_estimate - rep.target) <= rep.error_bound


def test_rr_slope_refines_once(monkeypatch):
    calls = []
    refine = volumes.refine
    monkeypatch.setattr(volumes, "refine", lambda *a: calls.append(a) or refine(*a))
    rng = random.Random(23)
    for _ in range(4):
        phiA = random_psh_metric(2, 1, rng)
        phiD = PLFunction(
            phiA.tree, {v: Fraction(rng.randint(0, 3)) for v in phiA.tree.vertices}
        )
        expected = [(m, rr_content(phiD, phiA, m)) for m in range(1, 6)]
        calls.clear()
        rep = rr_slope_experiment(phiD, phiA, range(1, 6))
        assert rep.samples == expected
        assert len(calls) == 1


def test_report_normalized_series():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    rep = vol_limit(phi, trivial_metric(2, 1), range(8, 25, 2))
    norm = dict(rep.normalized())
    assert norm[8] == Fraction(-10, 64)
    assert rep.estimate == Fraction(-1, 8)
