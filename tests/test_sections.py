import random
from fractions import Fraction

import pytest

from berkvol.field import INF, FieldContext
from berkvol.metrics import Metric, trivial_metric
from berkvol.sections import (
    Section,
    SectionError,
    _single_center,
    _slice_integral,
    diagonal_weights,
    point_norm,
    required_ramification,
    sup_norm,
    sup_norm_lattice,
    unit_ball_valuation,
    vandermonde_value,
    vol_m,
)
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point

from conftest import random_pl_metric, random_psh_chain_metric, random_psh_metric


def slope_metric(p, d, slope, depth=1, center=0):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(center), Fraction(depth))
    tree = build_tree(p, [g0, x])
    vals = {v: Fraction(0) for v in tree.vertices}
    vals[x] = slope * depth
    return Metric(d, PLFunction(tree, vals))


def test_section_recenter():
    s = Section((Fraction(1), Fraction(2), Fraction(1)))  # (z+1)^2
    assert s.recenter(Fraction(-1)) == (Fraction(0), Fraction(0), Fraction(1))


def test_point_norm_gauss():
    triv = trivial_metric(2, 1)
    g0 = gauss_point(2)
    s = Section((Fraction(4), Fraction(1, 2)))
    # Gauss norm is the min coefficient valuation
    assert point_norm(s, g0, triv, 1) == -1


def test_point_norm_recentred_disc():
    p = 2
    phi = slope_metric(p, 1, Fraction(-1, 2))
    x = TreePoint(p, Fraction(0), Fraction(1))
    s = Section((Fraction(0), Fraction(1)))  # z
    # v(z) on the disc of radius 2^-1 is 1, plus m * g(x) = -1/2
    assert point_norm(s, x, phi, 1) == Fraction(1, 2)
    s2 = Section((Fraction(1), Fraction(1)))  # z + 1, unit on that disc
    assert point_norm(s2, x, phi, 1) == Fraction(-1, 2)


def test_sup_norm_is_min_over_vertices():
    p = 2
    phi = slope_metric(p, 1, Fraction(-1, 2))
    s = Section((Fraction(0), Fraction(1)))
    assert sup_norm(s, phi, 1) == 0  # attained at the Gauss point
    s1 = Section((Fraction(1),))
    assert sup_norm(s1, phi, 1) == Fraction(-1, 2)  # attained at the leaf


def test_sup_norm_of_zero_section_rejected():
    with pytest.raises(SectionError):
        sup_norm(Section((Fraction(0),)), trivial_metric(2, 1), 1)


def test_degree_bound_enforced():
    with pytest.raises(SectionError):
        sup_norm(Section((0, 0, 0, 1)), trivial_metric(2, 1), 2)


def test_required_ramification():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    # weights j*q + m*g have denominator 2 at m = 1
    assert required_ramification(phi, 1) % 2 == 0
    assert required_ramification(trivial_metric(2, 1), 5) == 1


def test_sup_norm_lattice_consistency():
    """Membership in the unit-ball lattice matches the sup norm sign."""
    p = 2
    phi = slope_metric(p, 1, Fraction(-1), depth=1)
    m = 2
    M = required_ramification(phi, m)
    ctx = FieldContext(p, M)
    L = sup_norm_lattice(phi, m, ctx)
    from berkvol.lattices import lattice_norm

    rng = random.Random(2)
    for _ in range(20):
        coeffs = [Fraction(rng.randint(-8, 8)) for _ in range(m * phi.d + 1)]
        s = Section(tuple(coeffs))
        v = [ctx.from_rational(c) for c in coeffs]
        assert (sup_norm(s, phi, m) >= 0) == (lattice_norm(L, v) >= 0)


def test_vol_m_scaling_closed_form():
    rng = random.Random(41)
    for _ in range(5):
        d = rng.choice([1, 2])
        phi = random_psh_metric(2, d, rng)
        c = Fraction(rng.randint(1, 5), rng.choice([1, 2]))
        for m in (1, 2, 3):
            assert vol_m(phi.shift(c), phi, m) == m * c * (m * d + 1)


def test_vol_m_antisymmetry_mixed_centers():
    p = 2
    phi = slope_metric(p, 2, Fraction(-1, 2))
    psi = slope_metric(p, 2, Fraction(-1), center=1)
    for m in (1, 2, 3):
        assert vol_m(phi, psi, m) == -vol_m(psi, phi, m)


def test_vandermonde_value():
    triv = trivial_metric(2, 1)
    assert vandermonde_value([Fraction(0), Fraction(2)], triv, 1) == 1
    assert vandermonde_value([Fraction(0), Fraction(1)], triv, 1) == 0
    assert vandermonde_value([Fraction(1), Fraction(1)], triv, 1) == INF
    phi = slope_metric(2, 1, Fraction(-1, 2))
    # both points retract into the weighted disc
    assert vandermonde_value([Fraction(0), Fraction(2)], phi, 1) == 1 - 1


def nonpositive_extra(phi, rng):
    return PLFunction(
        phi.tree,
        {v: -Fraction(rng.randint(0, 6), rng.choice([1, 2, 3])) for v in phi.tree.vertices},
    )


def test_unit_ball_valuation_matches_km_oracle():
    """Z_p slices agree with the K_M lattice at M0 and at 2 M0.

    Agreement at both ramification indices is the base-change invariance
    that vol_m(M=M0) == vol_m(M=2 M0) checked while vol_m ran over K_M.
    """
    rng = random.Random(3)
    seen = set()
    checked = 0
    while checked < 30:
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2])
        phi = rng.choice([random_pl_metric, random_psh_metric])(p, d, rng)
        m = rng.choice([1, 2, 3])
        extra = nonpositive_extra(phi, rng) if rng.random() < 0.5 else None
        M0 = required_ramification(phi, m, extra)
        if M0 > 24:
            continue
        got = unit_ball_valuation(phi, m, extra)
        assert _slice_integral(phi, m, extra) == got
        for M in (M0, 2 * M0):
            lattice = sup_norm_lattice(phi, m, FieldContext(p, M), extra)
            assert got == lattice.det_valuation(), (p, d, m, M)
        seen.add((p, d, extra is None))
        checked += 1
    assert len(seen) == 12  # every p, d, with and without extra


def test_unit_ball_valuation_is_diagonal_on_chains():
    """The slice integral equals the diagonal closed form on every chain.

    Chains run through 0 or around a nonzero center, whose vertices may
    name their discs by different representatives of it.
    """
    rng = random.Random(4)
    off_zero = 0
    for _ in range(80):
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2])
        center = rng.choice([0, rng.randint(1, p**4 - 1)])
        phi = random_psh_chain_metric(p, d, rng, center=center)
        assert _single_center(phi) is not None
        off_zero += phi.tree.vertices[-1].center != 0
        m = rng.randint(1, 6)
        extra = nonpositive_extra(phi, rng) if rng.random() < 0.5 else None
        want = -sum(diagonal_weights(phi, m, extra), Fraction(0))
        assert _slice_integral(phi, m, extra) == want
        assert unit_ball_valuation(phi, m, extra) == want
    assert off_zero >= 20

