import itertools
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from berkvol.experiments import diff_experiment, fekete_experiment
from berkvol.field import INF, FieldContext, FieldError, padic_valuation
from berkvol.metrics import Metric, MetricError, energy, ma_measure, ma_solution, trivial_metric
from berkvol.sections import (
    SectionError,
    _envelope_sum,
    _is_chain,
    _maxmin_merge,
    _root_count_norms,
    diagonal_weights,
    required_ramification,
    sup_norm_lattice,
    unit_ball_valuation,
    unit_ball_valuations,
    vandermonde_value,
    vol_m,
)
from berkvol.tree import (
    DiscreteMeasure,
    PLFunction,
    TreeError,
    TreePoint,
    build_tree,
    digit_sorted,
    gauss_point,
    meet,
    refine,
)
from berkvol.volumes import (
    VolumeError,
    _rr_refine,
    check_vol_equals_energy,
    right_derivative,
    rr_content,
    vol_limit,
)

from conftest import (
    is_below,
    random_chain_tree,
    random_pl_metric,
    random_psh_chain_metric,
    random_psh_metric,
    random_tree,
    slope_metric,
)
from fekete_oracle import pairwise_vandermonde_value
from lattice_oracle import Section, lattice_norm, point_norm, sup_norm
from slice_oracle import _slice_integral


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


def test_vandermonde_value_matches_pairwise_sum():
    """The range-minimum sum over the points in digit order equals the sum
    over every pair, with repeated points and unit denominators."""
    rng = random.Random(43)
    repeated = 0
    for _ in range(2000):
        p, d, m = rng.choice([2, 3, 5]), rng.randint(1, 2), rng.randint(1, 5)
        phi = random_psh_metric(p, d, rng)
        digits = rng.randint(1, 6)
        pts = [
            Fraction(rng.randint(0, p**digits - 1), rng.choice([1, p + 1, p * p + 1]))
            for _ in range(m * d + 1)
        ]
        if rng.random() < 0.2:
            pts[rng.randrange(len(pts))] = rng.choice(pts)
        want = pairwise_vandermonde_value(pts, phi, m)
        assert vandermonde_value(pts, phi, m) == want
        repeated += want == INF
    assert repeated > 200


def nonpositive_extra(phi, rng):
    return PLFunction(
        phi.tree,
        {v: -Fraction(rng.randint(0, 6), rng.choice([1, 2, 3])) for v in phi.tree.vertices},
    )


def test_unit_ball_valuation_matches_km_oracle():
    """The root-count recursion, the Z_p slices (slice_oracle) and the K_M
    lattice at M0 and at 2 M0 all agree, and at 3 M0 too when M0 <= 8.

    Agreement at every ramification index is the base-change invariance
    that vol_m(M=M0) == vol_m(M=2 M0) checked while vol_m ran over K_M: the
    value does not depend on the field.
    """
    rng = random.Random(3)
    seen = set()
    checked = thrice = 0
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
        for M in (M0, 2 * M0, 3 * M0) if M0 <= 8 else (M0, 2 * M0):
            lattice = sup_norm_lattice(phi, m, FieldContext(p, M), extra)
            assert got == lattice.det_valuation(), (p, d, m, M)
        seen.add((p, d, extra is None))
        checked += 1
        thrice += M0 <= 8
    assert len(seen) == 12  # every p, d, with and without extra
    assert thrice >= 10


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
        assert all(len(c) <= 1 for c in phi.tree.children.values())
        off_zero += phi.tree.vertices[-1].center != 0
        m = rng.randint(1, 6)
        extra = nonpositive_extra(phi, rng) if rng.random() < 0.5 else None
        want = -sum(diagonal_weights(phi, m, extra), Fraction(0))
        assert _slice_integral(phi, m, extra) == want
        assert unit_ball_valuation(phi, m, extra) == want
    assert off_zero >= 20



def signed_function(tree, rng):
    return PLFunction(
        tree, {v: Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4])) for v in tree.vertices}
    )


def test_chain_envelope_matches_diagonal_weights():
    """The integer envelope sum equals -sum(diagonal_weights) on chains.

    Chains run through 0 or around a nonzero center, m goes up to 100,
    g is psh or arbitrary, and extra is absent, of either sign, on the
    metric's own tree or on an unrelated one (read by interpolation).
    """
    rng = random.Random(6)
    seen = set()
    for _ in range(300):
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2, 3])
        center = rng.choice([0, rng.randint(1, p**4 - 1)])
        if rng.random() < 0.5:
            phi = random_psh_chain_metric(p, d, rng, center=center)
        else:
            phi = Metric(d, signed_function(random_chain_tree(p, rng, center), rng))
        m = rng.choice([rng.randint(1, 12), rng.randint(1, 100)])
        extra = rng.choice([None, "own", "other"])
        if extra == "own":
            extra = signed_function(phi.tree, rng)
        elif extra == "other":
            extra = signed_function(random_tree(p, rng), rng)
        want = -sum(diagonal_weights(phi, m, extra), Fraction(0))
        assert unit_ball_valuation(phi, m, extra) == want, (p, d, m)
        seen.add((p, d, center != 0))
    assert len(seen) == 18


def brute_envelope_sum(lines, n):
    return sum(min(a * i + b for a, b in lines) for i in range(n))


@pytest.mark.parametrize(
    "lines, n, want",
    [
        # crossing at i = 2: 0, 2, 4, 4, 4
        ([(2, 0), (0, 4)], 5, 14),
        # crossing at i = 0: the smaller slope wins the tie and the run
        ([(3, 0), (1, 0)], 4, 6),
        ([(1, 0), (3, 0)], 4, 6),
        # crossing at the last term i = n - 1 = md, and just past it
        ([(1, 0), (0, 4)], 5, 10),
        ([(1, 0), (0, 5)], 5, 10),
        # three lines through one integer point, plus a parallel copy
        ([(2, 0), (1, 3), (0, 6), (2, 0)], 7, 0 + 2 + 4 + 6 + 6 + 6 + 6),
        # a crossing at a non-integer 5/2
        ([(2, 0), (0, 5)], 5, 0 + 2 + 4 + 5 + 5),
        ([(1, 7)], 1, 7),
        ([(1, 7)], 0, 0),
        ([(2, 0), (0, 4)], 0, 0),
        # equal slopes: the least intercept wins, in either order
        ([(1, 3), (1, 1), (0, 9)], 4, 1 + 2 + 3 + 4),
        ([(1, 1), (1, 3), (0, 9)], 4, 1 + 2 + 3 + 4),
        ([(0, 2), (0, 2), (0, 5)], 3, 6),
        # a middle line that never wins: (1, 3) is above min(2i, 4) everywhere
        ([(2, 0), (1, 3), (0, 4)], 5, 0 + 2 + 4 + 4 + 4),
        # a line whose crossing lies past md wins nowhere: (0, 9) at n = 5
        ([(2, 0), (0, 9)], 5, 0 + 2 + 4 + 6 + 8),
        # the last line pops the pieces of (3, 8) and (4, 5) at once
        ([(6, 1), (4, 5), (3, 8), (0, 7)], 8, 1 + 7 * 7),
        # a line least at i = 0 pops every line of larger slope
        ([(5, 2), (4, 3), (1, 0)], 3, 0 + 1 + 2),
    ],
)
def test_envelope_sum_tie_rule(lines, n, want):
    assert brute_envelope_sum(lines, n) == want
    for order in itertools.permutations(lines):
        assert _envelope_sum(list(order), n) == want, order


def test_envelope_sum_matches_brute_force():
    """Random line sets, parallel lines and lines that never win included,
    in random order and sorted by rising and by falling slope."""
    rng = random.Random(8)
    for _ in range(2000):
        lines = [(rng.randint(0, 6), rng.randint(-20, 20)) for _ in range(rng.randint(1, 6))]
        n = rng.randint(0, 30)
        want = brute_envelope_sum(lines, n)
        assert _envelope_sum(lines, n) == want
        assert _envelope_sum(sorted(lines), n) == want
        assert _envelope_sum(sorted(lines, reverse=True), n) == want
        rng.shuffle(lines)
        assert _envelope_sum(lines, n) == want


def test_chain_envelope_ties_at_level_ends():
    """A chain whose vertex lines cross exactly at i = 0 and at i = md."""
    p, d, m = 2, 1, 4
    g0, x = gauss_point(p), TreePoint(p, Fraction(0), Fraction(1))
    tree = build_tree(p, [x])
    # b = 0 at both vertices: the lines 0 and i cross at i = 0
    phi = Metric(d, PLFunction(tree, {g0: Fraction(0), x: Fraction(0)}))
    assert unit_ball_valuation(phi, m) == 0
    # m g(x) = -4 = -md: the lines 0 and i - 4 cross at i = md = 4
    phi = Metric(d, PLFunction(tree, {g0: Fraction(0), x: Fraction(-1)}))
    assert unit_ball_valuation(phi, m) == -sum(min(0, i - 4) for i in range(5))
    for psi in (phi, phi.shift(Fraction(1, 3))):
        assert unit_ball_valuation(psi, m) == -sum(diagonal_weights(psi, m), Fraction(0))


def compositions(total, parts):
    """Every tuple of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def brute_root_count_norms(phi, m, extra):
    """F_j by brute force over every placement of j roots on the vertices."""
    verts = phi.tree.vertices
    base = [m * phi.g.values[x] + (extra.evaluate(x) if extra else 0) for x in verts]
    depth = [[meet(x, y).q for y in verts] for x in verts]
    return [
        max(
            min(bx + sum(c * dq for c, dq in zip(cs, row)) for bx, row in zip(base, depth))
            for cs in compositions(j, len(verts))
        )
        for j in range(m * phi.d + 1)
    ]


def test_unit_ball_valuation_matches_root_count_brute_force():
    """The tree recursion equals a brute-force max over root placements.

    Term by term through _root_count_norms (run on Fractions), and in sum
    through unit_ball_valuation, on psh and arbitrary g with extra absent
    or signed; most trees branch, and those take the recursion.
    """
    rng = random.Random(10)
    branching = 0
    seen = set()
    checked = 0
    while checked < 150:
        p, d = rng.choice([2, 3, 5]), rng.choice([1, 2, 3])
        if rng.random() < 0.5:
            phi = random_psh_metric(p, d, rng)
        else:
            phi = random_pl_metric(p, d, rng)
        m = rng.randint(1, max(1, 5 // d))
        if len(phi.tree.vertices) > 6:
            continue
        extra = rng.choice([None, "own", "other"])
        if extra == "own":
            extra = signed_function(phi.tree, rng)
        elif extra == "other":
            extra = signed_function(random_tree(p, rng), rng)
        want = brute_root_count_norms(phi, m, extra)
        lines = {
            x: (x.q, m * phi.g.values[x] + (extra.evaluate(x) if extra else 0))
            for x in phi.tree.vertices
        }
        assert _root_count_norms(phi.tree, lines, m * d + 1) == want, (p, d, m)
        assert unit_ball_valuation(phi, m, extra) == -sum(want), (p, d, m)
        branching += any(len(c) > 1 for c in phi.tree.children.values())
        seen.add((p, extra is None))
        checked += 1
    assert branching >= 75
    assert len(seen) == 6


def test_root_count_norms_reduce_to_the_envelope_on_chains():
    """On a chain the recursion is the lower envelope of the vertex lines."""
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        tree = random_chain_tree(p, rng, rng.choice([0, rng.randint(1, p**4 - 1)]))
        b = signed_function(tree, rng).values
        n = rng.randint(1, 40)
        want = [min(b[x] + x.q * j for x in tree.vertices) for j in range(n)]
        lines = {x: (x.q, b[x]) for x in tree.vertices}
        assert _root_count_norms(tree, lines, n) == want


def per_level_unit_ball_valuation(phi, m, extra=None):
    """v(det U_m) from the vertex lines of level m alone.

    Each level scales its own lines j -> j q_x + m g(x) + extra(x) to
    integers by the lcm of their denominators, so it shares no scaling
    with unit_ball_valuations, which scales once for every level.
    """
    tree = phi.tree
    lines = {}
    for x in tree.vertices:
        base = m * phi.g.values[x]
        if extra is not None:
            base += extra.evaluate(x)
        lines[x] = (x.q, base)
    D = math.lcm(*[c.denominator for line in lines.values() for c in line])
    scaled = {
        x: (a.numerator * (D // a.denominator), b.numerator * (D // b.denominator))
        for x, (a, b) in lines.items()
    }
    n = m * phi.d + 1
    if _is_chain(tree):
        total = _envelope_sum(list(scaled.values()), n)
    else:
        total = sum(_root_count_norms(tree, scaled, n))
    return Fraction(-total, D)


def random_levels(rng):
    """An unsorted level list with gaps, now and then a repeat or all of 1..48."""
    if rng.random() < 0.04:
        return range(1, 49)
    ms = rng.sample(range(1, 13), rng.randint(1, 5))
    if rng.random() < 0.2:
        ms.append(rng.choice(ms))
    return ms


def test_unit_ball_valuations_match_per_level_oracle():
    """One integer scaling per metric gives every level the per-level value.

    Chains and branching trees, p in {2, 3, 5}, d in {0, 1, 2, 3}, psh and
    arbitrary g, extra absent or rr_content's -phi_D on the common tree of
    _rr_refine, and level lists that are unsorted, have gaps or repeats.
    """
    rng = random.Random(14)
    seen = set()
    fractional_q = whole_range = 0
    for _ in range(1000):
        p, d = rng.choice([2, 3, 5]), rng.choice([0, 1, 2, 3])
        chain, with_extra = rng.random() < 0.5, rng.random() < 0.5
        center = rng.choice([0, rng.randint(1, p**4 - 1)])
        if chain and (with_extra or rng.random() < 0.5):
            phi = random_psh_chain_metric(p, d, rng, center=center)
        elif chain:
            phi = Metric(d, signed_function(random_chain_tree(p, rng, center), rng))
        elif with_extra or rng.random() < 0.5:
            phi = random_psh_metric(p, d, rng)
        else:
            phi = random_pl_metric(p, d, rng)
        extra = None
        if with_extra:
            # a divisor on phi's own tree keeps a chain a chain
            tree = phi.tree if chain or rng.random() < 0.5 else random_tree(p, rng)
            phi_D = PLFunction(
                tree, {v: Fraction(rng.randint(0, 6), rng.choice([1, 2, 3])) for v in tree.vertices}
            )
            phi, extra = _rr_refine(phi_D, phi)
        ms = random_levels(rng)
        want = [per_level_unit_ball_valuation(phi, m, extra) for m in ms]
        assert unit_ball_valuations(phi, ms, extra) == want, (p, d, list(ms))
        seen.add((p, d, _is_chain(phi.tree), extra is None))
        fractional_q += any(x.q.denominator > 1 for x in phi.tree.vertices)
        whole_range += len(ms) == 48
    assert len(seen) == 48  # every p, d, tree shape, with and without extra
    assert fractional_q >= 300 and whole_range >= 20


def brute_maxmin_merge(g, h):
    return [max(min(g[a], h[k - a]) for a in range(k + 1)) for k in range(len(g))]


def random_steps(rng, n):
    """A nondecreasing integer list of length n, mostly flat."""
    out = [rng.randint(-5, 5)]
    for _ in range(n - 1):
        out.append(out[-1] + rng.choice([0, 0, 0, 1, 2, 7]))
    return out


def test_maxmin_merge_matches_quadratic_convolution():
    rng = random.Random(12)
    for _ in range(3000):
        n = rng.choice([1, 1, 2, rng.randint(1, 25)])
        g, h = random_steps(rng, n), random_steps(rng, n)
        assert _maxmin_merge(g, h) == brute_maxmin_merge(g, h), (g, h)
        assert _maxmin_merge(h, g) == brute_maxmin_merge(g, h), (g, h)


def test_diagonal_weights_guard_is_pairwise_nesting():
    """diagonal_weights accepts exactly the trees whose discs are nested."""
    rng = random.Random(13)
    seen = set()
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        if rng.random() < 0.3:
            tree = random_chain_tree(p, rng, rng.choice([0, rng.randint(1, p**4 - 1)]))
        else:
            tree = random_tree(p, rng)
        phi = Metric(1, signed_function(tree, rng))
        verts = tree.vertices
        nested = all(is_below(x, y) or is_below(y, x) for x in verts for y in verts)
        if nested:
            assert len(diagonal_weights(phi, 2)) == 3
        else:
            with pytest.raises(SectionError):
                diagonal_weights(phi, 2)
        seen.add(nested)
    assert seen == {True, False}


# a call outside the domain of a library routine, with the error it raises
LIBRARY_DOMAIN_ERRORS = {
    "energy-two-bundles": (
        lambda: energy(trivial_metric(2, 1), trivial_metric(2, 2)),
        MetricError, "metrics live on different line bundles",
    ),
    "energy-not-psh": (
        lambda: energy(slope_metric(2, 1, 1), trivial_metric(2, 1)),
        MetricError, "energy requires psh inputs",
    ),
    "vol-m-two-bundles": (
        lambda: vol_m(trivial_metric(2, 1), trivial_metric(2, 2), 1),
        SectionError, "metrics live on different line bundles",
    ),
    "vandermonde-point-count": (
        lambda: vandermonde_value([Fraction(0)], trivial_metric(2, 1), 1),
        SectionError, "need exactly 2 points, got 1",
    ),
    "meet-two-primes": (
        lambda: meet(gauss_point(2), gauss_point(3)), TreeError, "points over different primes",
    ),
    "build-tree-two-primes": (
        lambda: build_tree(2, [gauss_point(3)]), TreeError, "point over a different prime",
    ),
    "gauss-point-edge": (
        lambda: build_tree(2, []).edge_length(gauss_point(2)),
        TreeError, "the Gauss point has no parent edge",
    ),
    "edge-length-off-the-tree": (
        lambda: build_tree(2, [TreePoint(2, 0, 1)]).edge_length(TreePoint(2, 1, 1)),
        TreeError, "zeta(1, q=1) is not a vertex",
    ),
    "build-tree-int-point": (lambda: build_tree(2, [1]), TreeError, "1 is not a TreePoint"),
    "refine-int-point": (lambda: refine(build_tree(2, []), [1]), TreeError, "1 is not a TreePoint"),
    "evaluate-int-point": (
        lambda: trivial_metric(2, 1).g.evaluate(1), TreeError, "1 is not a TreePoint",
    ),
    "measure-atom-not-a-point": (
        lambda: DiscreteMeasure({"a": 1}), TreeError, "atom 'a' is not a TreePoint",
    ),
    "ma-solution-negative-mass": (
        lambda: ma_solution(
            build_tree(2, []), DiscreteMeasure({gauss_point(2): 2, TreePoint(2, 0, 1): -1}), 1
        ),
        MetricError, "mass -1 at zeta(0, q=1) is negative",
    ),
    "ma-solution-total-mass": (
        lambda: ma_solution(build_tree(2, []), DiscreteMeasure({TreePoint(2, 0, 1): 1}), 2),
        MetricError, "total mass 1 is not the degree 2",
    ),
    "ma-solution-two-primes": (
        lambda: ma_solution(build_tree(2, []), DiscreteMeasure({TreePoint(3, 0, 1): 1}), 1),
        TreeError, "point over a different prime",
    ),
    "metric-negative-degree": (
        lambda: Metric(-1, trivial_metric(2, 1).g), MetricError, "degree must be nonnegative",
    ),
    "digit-order-off-disc": (
        lambda: digit_sorted([Fraction(1, 2), Fraction(1)], 2),
        TreeError, "center 1/2 lies outside the closed unit disc",
    ),
    **{
        f"digit-order-prime-{p}": (
            lambda p=p: digit_sorted([Fraction(x) for x in (0, 1, 2, 3, 8)], p), FieldError, message,
        )
        for p, message in [
            (4, "p = 4 is not prime"),
            (2.0, "p = 2.0 is not an integer"),
            (0, "p = 0 is not prime"),
            (1, "p = 1 is not prime"),
        ]
    },
    "vol-limit-two-primes": (
        lambda: vol_limit(slope_metric(2, 1, -1), slope_metric(3, 1, -1)),
        VolumeError, "metrics over different primes",
    ),
    "vol-m-two-primes": (
        lambda: vol_m(slope_metric(2, 1, -1), slope_metric(3, 1, -1), 2),
        SectionError, "metrics over different primes",
    ),
    "check-vol-equals-energy-two-primes": (
        lambda: check_vol_equals_energy(slope_metric(2, 1, -1), slope_metric(3, 1, -1), [1, 2]),
        VolumeError, "metrics over different primes",
    ),
    "energy-two-primes": (
        lambda: energy(slope_metric(2, 1, -1), slope_metric(3, 1, -1)),
        TreeError, "point over a different prime",
    ),
    "right-derivative-two-primes": (
        lambda: right_derivative(slope_metric(2, 1, -1), slope_metric(3, 1, -1).g),
        TreeError, "point over a different prime",
    ),
    "integrate-two-primes": (
        lambda: ma_measure(slope_metric(2, 1, -1)).integrate(slope_metric(3, 1, -1).g),
        TreeError, "point over a different prime",
    ),
    "pl-function-float-value": (
        lambda: PLFunction(build_tree(2, []), {gauss_point(2): 0.1}),
        TreeError, "0.1 is a float, not an exact rational",
    ),
    "pl-function-float-scale": (
        lambda: trivial_metric(2, 1).g.scale(0.5), TreeError, "0.5 is a float, not an exact rational",
    ),
    "metric-float-shift": (
        lambda: trivial_metric(2, 1).shift(0.1), TreeError, "0.1 is a float, not an exact rational",
    ),
    "fekete-float-pool": (
        lambda: fekete_experiment(trivial_metric(3, 1), 1, [0.5, 1.0, 2.0, 0.1]),
        TreeError, "0.5 is a float, not an exact rational",
    ),
    "vandermonde-float-point": (
        lambda: vandermonde_value([Fraction(1), 0.1], trivial_metric(3, 1), 1),
        TreeError, "0.1 is a float, not an exact rational",
    ),
    "diff-float-t": (
        lambda: diff_experiment(slope_metric(2, 1, -1), slope_metric(2, 1, 1).g, [0.1], [1]),
        TreeError, "0.1 is a float, not an exact rational",
    ),
    "measure-float-zero-mass": (
        lambda: DiscreteMeasure({gauss_point(2): 0.0}), TreeError, "0.0 is a float, not an exact rational",
    ),
    "tree-point-malformed-center": (
        lambda: TreePoint(2, "abc", 1), TreeError, "'abc' is not an exact rational",
    ),
    "metric-malformed-shift": (
        lambda: trivial_metric(2, 1).shift("x"), TreeError, "'x' is not an exact rational",
    ),
    "tree-point-nan-center": (
        lambda: TreePoint(2, Decimal("NaN"), 1), TreeError, "Decimal('NaN') is not an exact rational",
    ),
    "tree-point-infinite-radius": (
        lambda: TreePoint(2, 0, Decimal("Infinity")),
        TreeError, "Decimal('Infinity') is not an exact rational",
    ),
    "measure-zero-denominator-mass": (
        lambda: DiscreteMeasure({gauss_point(2): "1/0"}), TreeError, "'1/0' is not an exact rational",
    ),
    **{
        f"tree-point-prime-{p}": (
            lambda p=p: TreePoint(p, Fraction(1), Fraction(2)), FieldError, f"p = {p} is not prime",
        )
        for p in (0, 1, 4, -3)
    },
    "build-tree-prime-4": (lambda: build_tree(4, []), FieldError, "p = 4 is not prime"),
    "tree-point-float-prime": (
        lambda: TreePoint(2.0, Fraction(1), Fraction(2)), FieldError, "p = 2.0 is not an integer",
    ),
    "tree-point-bool-prime": (
        lambda: TreePoint(True, Fraction(1), Fraction(2)), FieldError, "p = True is not an integer",
    ),
    "build-tree-float-prime": (
        lambda: build_tree(2.0, [TreePoint(2, Fraction(1), Fraction(2))]),
        FieldError, "p = 2.0 is not an integer",
    ),
    "padic-valuation-float": (
        lambda: padic_valuation(0.1, 2), FieldError, "0.1 is a float, not an int or a Fraction",
    ),
    "from-rational-float": (
        lambda: FieldContext(2, 2).from_rational(0.1), FieldError, "0.1 is a float, not an int or a Fraction",
    ),
    "pi-power-float-exponent": (
        lambda: FieldContext(2, 2).pi_power(1.5), FieldError, "exponent must be an integer, got 1.5",
    ),
    "field-context-float-prime": (lambda: FieldContext(3.0), FieldError, "p = 3.0 is not an integer"),
    **{
        f"field-context-{name}-ramification": (
            lambda M=M: FieldContext(2, M), FieldError, f"ramification index must be an integer, got {M!r}",
        )
        for name, M in [("float", 1.5), ("bool", True), ("string", "2")]
    },
    "metric-bool-degree": (
        lambda: Metric(True, trivial_metric(2, 1).g), MetricError, "degree must be an integer, got True",
    ),
    "metric-float-degree": (
        lambda: Metric(1.5, trivial_metric(2, 1).g), MetricError, "degree must be an integer, got 1.5",
    ),
    "measure-add-two-primes": (
        lambda: ma_measure(trivial_metric(2, 1)).add(ma_measure(trivial_metric(3, 1))),
        TreeError, "atoms over different primes",
    ),
    "tv-distance-two-primes": (
        lambda: ma_measure(trivial_metric(2, 1)).tv_distance(ma_measure(trivial_metric(3, 1))),
        TreeError, "atoms over different primes",
    ),
    "pl-function-missing-vertex": (
        lambda: PLFunction(
            build_tree(2, [TreePoint(2, Fraction(0), Fraction(1))]), {gauss_point(2): Fraction(0)}
        ),
        TreeError, "no value given at vertex zeta(0, q=1)",
    ),
    "pl-function-value-off-the-tree": (
        lambda: PLFunction(
            build_tree(2, []), {gauss_point(2): Fraction(0), TreePoint(2, Fraction(0), Fraction(1)): 5}
        ),
        TreeError, "value given at zeta(0, q=1), which is not a vertex",
    ),
    "place-float-radius": (
        lambda: build_tree(2, []).place(Fraction(0), 0.5), TreeError, "0.5 is a float, not an exact rational",
    ),
    "place-negative-radius": (
        lambda: build_tree(2, []).place(Fraction(0), -1), TreeError, "radius exponent -1 must be >= 0",
    ),
    "retract-negative-radius": (
        lambda: build_tree(2, []).retract(Fraction(0), -1), TreeError, "radius exponent -1 must be >= 0",
    ),
    "unit-ball-valuations-fraction-level": (
        lambda: unit_ball_valuations(slope_metric(2, 1, -1), [Fraction(3, 2)]),
        SectionError, "m must be an integer, got Fraction(3, 2)",
    ),
    "unit-ball-valuations-bool-level": (
        lambda: unit_ball_valuations(slope_metric(2, 1, -1), [True]),
        SectionError, "m must be an integer, got True",
    ),
    "vol-m-float-level": (
        lambda: vol_m(slope_metric(2, 1, -1), trivial_metric(2, 1), 2.0),
        SectionError, "m must be an integer, got 2.0",
    ),
    "check-vol-equals-energy-float-level": (
        lambda: check_vol_equals_energy(slope_metric(2, 1, -1), trivial_metric(2, 1), [2.0]),
        SectionError, "m must be an integer, got 2.0",
    ),
    "rr-content-float-level": (
        lambda: rr_content(slope_metric(2, 1, 1).g, slope_metric(2, 1, -1), 1.5),
        SectionError, "m must be an integer, got 1.5",
    ),
    "vandermonde-float-level": (
        lambda: vandermonde_value([Fraction(0), Fraction(1)], trivial_metric(3, 1), 1.5),
        SectionError, "m must be an integer, got 1.5",
    ),
    "section-float-coefficient": (
        lambda: Section((0.1, 1)), TreeError, "0.1 is a float, not an exact rational",
    ),
    "sup-norm-lattice-two-primes": (
        lambda: sup_norm_lattice(slope_metric(2, 1, -1), 1, FieldContext(3, 6)),
        SectionError, "field context over p = 3, metric over p = 2",
    ),
    "point-norm-level-0": (
        lambda: point_norm(Section((1,)), TreePoint(2, 0, 1), slope_metric(2, 1, -1), 0),
        SectionError, "m must be >= 1",
    ),
    "sup-norm-level-0": (
        lambda: sup_norm(Section((1,)), slope_metric(2, 1, -1), 0), SectionError, "m must be >= 1",
    ),
    "diagonal-weights-level-0": (
        lambda: diagonal_weights(slope_metric(2, 1, -1), 0), SectionError, "m must be >= 1",
    ),
    "required-ramification-level-0": (
        lambda: required_ramification(slope_metric(2, 1, -1), 0), SectionError, "m must be >= 1",
    ),
    "required-ramification-float-level": (
        lambda: required_ramification(slope_metric(2, 1, -1), 1.5),
        SectionError, "m must be an integer, got 1.5",
    ),
    "sup-norm-lattice-level-0": (
        lambda: sup_norm_lattice(slope_metric(2, 1, -1), 0, FieldContext(2, 1)),
        SectionError, "m must be >= 1",
    ),
    **{
        f"fekete-level-{m}": (
            lambda m=m: fekete_experiment(trivial_metric(3, 1), m, [Fraction(x) for x in range(4)]),
            SectionError, message,
        )
        for m, message in [
            (0, "m must be >= 1"),
            (-1, "m must be >= 1"),
            (-2, "m must be >= 1"),
            (1.5, "m must be an integer, got 1.5"),
            (Fraction(3, 2), "m must be an integer, got Fraction(3, 2)"),
        ]
    },
}


@pytest.mark.parametrize("name", sorted(LIBRARY_DOMAIN_ERRORS))
def test_library_domain_error(name):
    call, error, message = LIBRARY_DOMAIN_ERRORS[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
