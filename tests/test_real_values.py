"""The paper's identities with values in a real value group: Q(sqrt 2).

The paper works over an arbitrary non-Archimedean field, whose value group
need not lie in Q.  The package's exact passes run in the number type of the
values they are given, so metrics and directions with values in Q(sqrt 2)
(tests/surd.py) go through its own functions unchanged, on trees whose
centers and radii stay rational.  Checked exactly on seeded draws, psh or
not: vol(L, phi, psi) = E(P(phi), P(psi)), the orthogonality residual is 0,
both one-sided derivatives equal int f MA(P(phi)), and the envelope carries
its contact certificate.
"""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from berkvol.experiments import diff_experiment, fekete_experiment, orthogonality_experiment
from berkvol.metrics import Metric, energy, envelope, is_psh, ma_measure, trivial_metric
from berkvol.sections import SectionError, vandermonde_value, vol_m
from berkvol.tree import (
    DiscreteMeasure,
    PLFunction,
    TreeError,
    TreePoint,
    build_tree,
    digit_sorted,
    refine,
)
from berkvol.volumes import check_vol_equals_energy, right_derivative, vol_limit

from conftest import random_psh_metric, random_tree, slope_metric
from surd import Surd

#: sqrt(2) - 1, in (0, 1)
S = Surd(-1, 1)


def surd_value(rng):
    a = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 4]))
    return Surd(a, Fraction(rng.randint(-3, 3), rng.choice([1, 2])))


def surd_metric(p, d, rng):
    """A third of the draws psh, sqrt(2) - 1 of the way between two rational
    psh metrics on one tree, whose measures it mixes; the rest with random
    Q(sqrt 2) values, shifted by one more."""
    tree = random_tree(p, rng, 6, digits=3)
    if rng.random() < 1 / 3:
        a, b = (random_psh_metric(p, d, rng, tree=tree).g.values for _ in range(2))
        return Metric(d, PLFunction(tree, {v: (1 - S) * a[v] + S * b[v] for v in tree.vertices}))
    return Metric(d, PLFunction(tree, {v: surd_value(rng) for v in tree.vertices}).shift(surd_value(rng)))


def test_surd_arithmetic_and_order():
    rng = random.Random(20)
    root2 = 2**0.5
    for _ in range(500):
        x, y = surd_value(rng), surd_value(rng)
        assert x * y / y == x if y else x * y == 0
        assert (x - y) + y == x and -(-x) == x and x * x >= 0
        approx = float(x.a) + float(x.b) * root2
        assert x.sign() == (approx > 0) - (approx < 0)  # |approx| > 1/25 here, or x is 0
        assert (x < y) == (y > x) == (not x >= y)
    assert Surd(3) == 3 == Fraction(3) and hash(Surd(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert 1 / Surd(1, 1) == Surd(-1, 1) and Surd(3, -2).sign() == 1 and Surd(-3, 2).sign() == -1


def test_identities_over_q_sqrt_2():
    rng = random.Random(21)
    not_psh = irrational = 0
    for i in range(300):
        p, d = rng.choice([2, 3, 5]), rng.randint(1, 3)
        phi, psi = surd_metric(p, d, rng), surd_metric(p, d, rng)
        not_psh += not is_psh(phi)
        env = envelope(phi)
        limit = vol_limit(phi, psi)
        assert limit == energy(env, envelope(psi)), i
        irrational += isinstance(limit, Surd) and limit.b != 0
        assert orthogonality_experiment(phi) == 0, i
        # the contact certificate: psh, below phi, and equal to phi at one
        # vertex at least and at every atom of its measure
        g, h = phi.g.values, env.g.values
        contact = {v for v in g if h[v] == g[v]}
        assert is_psh(env) and all(h[v] <= g[v] for v in g), i
        assert contact and contact.issuperset(ma_measure(env).masses), i
        # a direction on phi's tree or on a tree of its own
        tree = phi.tree if i % 2 else random_tree(p, rng, 6, digits=3)
        f = PLFunction(tree, {v: surd_value(rng) for v in tree.vertices})
        common = refine(phi.tree, f.tree.vertices)
        phi_r, f_r = phi.on_tree(common), f.on_tree(common)
        right = right_derivative(phi_r, f_r)
        left = -right_derivative(phi_r, f_r.scale(Fraction(-1)))
        assert right == left == ma_measure(env).integrate(f), i
    assert not_psh >= 150 and irrational >= 150


def test_values_keep_an_exact_type_and_points_stay_rational():
    tree = build_tree(2, [TreePoint(2, Fraction(0), Fraction(1))])
    root, leaf = tree.vertices
    x = Surd(1, 1)
    assert PLFunction(tree, {root: x, leaf: 0}).values[root] is x
    got = tuple(PLFunction(tree, {root: a, leaf: b}).values for a, b in ((3, "1/2"), (Decimal("0.1"), 0)))
    assert got == ({root: 3, leaf: Fraction(1, 2)}, {root: Fraction(1, 10), leaf: 0})
    assert all(type(v) is Fraction for values in got for v in values.values())
    assert DiscreteMeasure({root: x}).masses[root] is x and DiscreteMeasure({root: Surd()}).masses == {}
    g = PLFunction(tree, {root: 1, leaf: 2})
    assert g.scale(x).values == {root: x, leaf: 2 * x} and g.shift(x).values == {root: 1 + x, leaf: 2 + x}
    for inexact, kind in ((0.5, "float"), (1j, "complex")):
        with pytest.raises(TreeError, match=rf"^{re.escape(repr(inexact))} is a {kind}, not an exact rational$"):
            PLFunction(tree, {root: inexact, leaf: 0})
    for bad in (None, [1]):
        with pytest.raises(TreeError, match=rf"^{re.escape(repr(bad))} is not a number$"):
            PLFunction(tree, {root: bad, leaf: 0})


def test_level_series_stay_rational():
    # the level sums and the Fekete DP scale every value by a common denominator
    phi = trivial_metric(2, 1).shift(Surd(0, 1))
    for call in (
        lambda: check_vol_equals_energy(phi, trivial_metric(2, 1), [1, 2]),
        lambda: vol_m(trivial_metric(2, 1), phi, 1),
        lambda: fekete_experiment(phi, 1, [Fraction(0), Fraction(1), Fraction(2)]),
    ):
        with pytest.raises(SectionError, match="^exact integer scaling needs rational values$"):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda x: TreePoint(2, x, Fraction(1)),
        lambda x: TreePoint(2, Fraction(0), x),
        lambda x: build_tree(2, []).place(x),
        lambda x: digit_sorted([Fraction(0), x], 3),
        lambda x: fekete_experiment(trivial_metric(3, 1), 1, [Fraction(0), x, Fraction(1)]),
        lambda x: vandermonde_value([Fraction(0), x], trivial_metric(3, 1), 1),
        lambda x: diff_experiment(slope_metric(2, 1, -1), slope_metric(2, 1, 1).g, [x], [1]),
    ],
    ids=["center", "radius", "place", "digit-sorted", "fekete-pool", "vandermonde-point", "diff-t"],
)
def test_points_of_another_field_are_refused(call):
    with pytest.raises(TreeError, match=r"^Surd\(1, 1\) is not a rational$"):
        call(Surd(1, 1))
