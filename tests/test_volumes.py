import random
from fractions import Fraction

import pytest

from berkvol import sections, volumes
from berkvol.errors import BerkvolError
from berkvol.experiments import diff_experiment, sandwich_check
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
    assert abs(rep.content.estimate - rep.target) <= rep.content.error_bound


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
        assert rep.content.samples == expected
        assert len(calls) == 1


def test_report_normalized_series():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    rep = vol_limit(phi, trivial_metric(2, 1), range(8, 25, 2))
    norm = {m: v / (m * m) for m, v in rep.samples}
    assert norm[8] == Fraction(-10, 64)
    assert rep.estimate == Fraction(-1, 8)


def branching_metric(p=2):
    """A Gauss point with two children: the root-count recursion runs."""
    g0 = gauss_point(p)
    a, b = TreePoint(p, Fraction(0), Fraction(1)), TreePoint(p, Fraction(1), Fraction(1))
    tree = build_tree(p, [g0, a, b])
    return Metric(1, PLFunction(tree, {g0: Fraction(0), a: Fraction(-1, 2), b: Fraction(-1, 2)}))


@pytest.mark.parametrize("shape", ["branching", "chain"])
@pytest.mark.parametrize(
    "call",
    [
        lambda phi, D: sections.unit_ball_valuation(phi, -1),
        lambda phi, D: sections.unit_ball_valuation(phi, 0),
        lambda phi, D: sections.unit_ball_valuations(phi, [3, 0, 2]),
        lambda phi, D: rr_content(D, phi, -1),
        lambda phi, D: rr_slope_experiment(D, phi, [-3, -2, -1, 0]),
        lambda phi, D: vol_limit(phi, phi.shift(Fraction(1)), [0, 1, 2, 3, 4]),
        lambda phi, D: diff_experiment(phi, D, [Fraction(1, 8)], [0, 1, 2, 3]),
        lambda phi, D: sandwich_check(phi, phi, phi.shift(Fraction(1)), [0, 1, 2, 3, 4]),
    ],
    ids=[
        "unit_ball_valuation-minus-1",
        "unit_ball_valuation-0",
        "unit_ball_valuations-with-0",
        "rr_content-minus-1",
        "rr_slope_experiment",
        "vol_limit",
        "diff_experiment",
        "sandwich_check",
    ],
)
def test_levels_below_one_are_rejected(shape, call):
    """Used to raise IndexError or ZeroDivisionError, or to return 0."""
    phi = branching_metric() if shape == "branching" else slope_metric(2, 1, Fraction(-1, 2))
    D = PLFunction(phi.tree, {v: Fraction(v.q) for v in phi.tree.vertices})
    with pytest.raises(BerkvolError, match="m must be >= 1"):
        call(phi, D)


@pytest.mark.parametrize("ms", [[-3, -2, -1, 0], [0, 1, 2, 3]])
def test_vol_limit_rejects_levels_below_one_in_degree_zero(ms):
    """The d = 0 shortcut used to return zeros for any levels."""
    phi = trivial_metric(2, 0)
    with pytest.raises(BerkvolError, match="m must be >= 1"):
        vol_limit(phi, phi.shift(Fraction(1)), ms)


def count_series(monkeypatch):
    """Record (metric, levels, extra) of every unit_ball_valuations call."""
    calls = []
    original = sections.unit_ball_valuations

    def counted(phi, ms, extra=None):
        ms = list(ms)
        calls.append((phi, ms, extra))
        return original(phi, ms, extra)

    monkeypatch.setattr(sections, "unit_ball_valuations", counted)
    monkeypatch.setattr(volumes, "unit_ball_valuations", counted)
    return calls


@pytest.mark.parametrize("d", [0, 1])
def test_vol_limit_computes_two_series(monkeypatch, d):
    """At d = 0 too: its samples are vol_m, as at any other degree."""
    rng = random.Random(24)
    phi, psi = random_psh_metric(2, d, rng), random_psh_metric(2, d, rng)
    if d == 0:
        psi = psi.shift(Fraction(-1, 3))
    ms = [9, 4, 12, 5, 4, 8, 6, 7]
    calls = count_series(monkeypatch)
    rep = vol_limit(phi, psi, ms)
    assert [(metric is psi, metric is phi, levels, extra) for metric, levels, extra in calls] == [
        (True, False, sorted(set(ms)), None),
        (False, True, sorted(set(ms)), None),
    ]
    assert rep.samples == [(m, sections.vol_m(phi, psi, m)) for m in sorted(set(ms))]


def test_rr_slope_computes_two_series(monkeypatch):
    rng = random.Random(25)
    phiA = random_psh_metric(2, 1, rng)
    phiD = PLFunction(phiA.tree, {v: Fraction(rng.randint(0, 3)) for v in phiA.tree.vertices})
    ms = [7, 1, 3, 2, 6]
    calls = count_series(monkeypatch)
    rep = rr_slope_experiment(phiD, phiA, ms)
    assert len(calls) == 2
    (phi_1, levels_1, extra_1), (phi_2, levels_2, extra_2) = calls
    assert phi_1 is phi_2 and levels_1 == levels_2 == sorted(ms)
    assert extra_1 is not None and extra_2 is None
    assert rep.content.samples == [(m, rr_content(phiD, phiA, m)) for m in sorted(ms)]
