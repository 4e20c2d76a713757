import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berkvol.field import padic_valuation
from berkvol.tree import (
    DiscreteMeasure,
    PLFunction,
    TreeError,
    TreePoint,
    build_tree,
    constant_function,
    gauss_point,
    is_below,
    laplacian,
    meet,
    refine,
)

centers = st.integers(min_value=0, max_value=31).map(Fraction)
radii = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)])
points = st.builds(lambda c, q: TreePoint(2, c, q), centers, radii)


def test_point_equality_is_disc_equality():
    # zeta_{a, r} only depends on the disc, not on the chosen center
    assert TreePoint(2, Fraction(0), Fraction(1)) == TreePoint(2, Fraction(2), Fraction(1))
    assert TreePoint(2, Fraction(0), Fraction(1)) != TreePoint(2, Fraction(1), Fraction(1))
    assert TreePoint(3, Fraction(1), Fraction(2)) == TreePoint(3, Fraction(10), Fraction(2))
    assert hash(TreePoint(2, Fraction(0), Fraction(1))) == hash(
        TreePoint(2, Fraction(2), Fraction(1))
    )


def test_point_key_ignores_the_representative():
    """Centers differing by p^ceil(q) k name one disc: equal points, equal
    hashes, one dict slot, one stored key."""
    rng = random.Random(23)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        q = Fraction(rng.randint(0, 8), rng.choice([1, 2, 3]))
        a = Fraction(rng.randint(0, p**4 - 1), rng.choice([1, p + 1]))
        k = rng.randint(-(p**3), p**3)
        x = TreePoint(p, a, q)
        y = TreePoint(p, a + p ** math.ceil(q) * k, q)
        assert x == y and hash(x) == hash(y) and x.key == y.key
        slots = {x: "x"}
        slots[y] = "y"
        assert slots == {x: "y"}
        if q > 0:
            assert TreePoint(p, a + p ** (math.ceil(q) - 1), q) != x


def test_point_rejects_center_outside_unit_disc():
    with pytest.raises(Exception):
        TreePoint(2, Fraction(1, 2), Fraction(1))
    with pytest.raises(Exception):
        TreePoint(2, Fraction(0), Fraction(-1))


@given(x=points, y=points)
def test_meet_commutes(x, y):
    assert meet(x, y) == meet(y, x)


@given(x=points, y=points)
def test_meet_below_both(x, y):
    z = meet(x, y)
    assert is_below(z, x) and is_below(z, y)


@given(x=points, y=points, z=points)
@settings(max_examples=80)
def test_meet_associative(x, y, z):
    assert meet(meet(x, y), z) == meet(x, meet(y, z))


@given(x=points)
def test_meet_idempotent(x):
    assert meet(x, x) == x
    assert meet(x, gauss_point(2)) == gauss_point(2)


def _old_meet(x, y):
    sep = padic_valuation(x.center - y.center, x.p)
    q = min(x.q, y.q) if sep == math.inf else min(x.q, y.q, Fraction(sep))
    return TreePoint(x.p, x.center, q)


def _old_retract(tree, center, q=None):
    best = tree.root
    for v in tree.vertices:
        sep = padic_valuation(center - v.center, tree.p)
        sep = v.q if sep == math.inf else min(Fraction(sep), v.q)
        if q is not None:
            sep = min(sep, q)
        cand = TreePoint(tree.p, center, sep)
        if cand.q > best.q:
            best = cand
    return best


def test_tree_primitives_match_point_building_versions():
    """meet, is_below and retract agree with versions that build a point at
    every step: meet may return an argument itself, with that argument's
    center; every other result carries the same center."""
    rng = random.Random(71)
    for _ in range(300):
        p = rng.choice([2, 3, 5])

        def point():
            q = Fraction(rng.randint(0, 8), rng.choice([1, 2, 3]))
            return TreePoint(p, Fraction(rng.randint(0, p**4 - 1), rng.choice([1, p + 1])), q)

        x, y = point(), point()
        new, old = meet(x, y), _old_meet(x, y)
        assert new == old
        assert new is x or new is y or new.center == old.center
        # a meet that is one of the points is that point, not a new one
        if is_below(x, y):
            assert new is x
        elif is_below(y, x):
            assert new is y
        assert is_below(x, y) == (_old_meet(x, y) == x)
        assert is_below(new, x) and is_below(new, y)

        tree = build_tree(p, [point() for _ in range(rng.randint(0, 5))])
        z = point()
        for q in (None, z.q):
            new, old = tree.retract(z.center, q), _old_retract(tree, z.center, q)
            assert new == old and new.center == old.center
            assert (new is tree.root) == (new == tree.root)


def test_retract_rejects_centers_off_the_closed_disc():
    tree = build_tree(2, [TreePoint(2, Fraction(1), Fraction(2))])
    with pytest.raises(TreeError, match="outside the closed unit disc"):
        tree.retract(Fraction(1, 2))
    with pytest.raises(TreeError, match="outside the closed unit disc"):
        tree.retract(Fraction(1, 2), Fraction(1))


def test_build_tree_adds_meets():
    p = 2
    a = TreePoint(p, Fraction(1), Fraction(3))
    b = TreePoint(p, Fraction(3), Fraction(3))
    tree = build_tree(p, [a, b])
    # v_2(1 - 3) = 1, so the branch point zeta_{1, 2^-1} must appear
    branch = TreePoint(p, Fraction(1), Fraction(1))
    assert branch in tree.vertices
    assert gauss_point(p) == tree.root
    assert tree.parent[a] == branch and tree.parent[b] == branch


def _fixed_point_closure(p, points):
    """Meet closure by rescanning every pair until nothing is added."""
    verts = {gauss_point(p)}
    verts.update(points)
    changed = True
    while changed:
        changed = False
        current = list(verts)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                m = meet(current[i], current[j])
                if m not in verts:
                    verts.add(m)
                    changed = True
    return sorted(verts, key=lambda v: (v.q, v.key))


def test_build_tree_one_round_matches_fixed_point():
    """One round of pairwise meets gives the same vertices, in the same
    order and with the same center representatives, as the fixed point."""
    rng = random.Random(17)
    added = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        pts = []
        for _ in range(rng.randint(1, 7)):
            q = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
            pts.append(TreePoint(p, Fraction(rng.randint(0, p**4 - 1)), q))
        want = _fixed_point_closure(p, pts)
        got = build_tree(p, pts).vertices
        assert [(v.center, v.q) for v in got] == [(v.center, v.q) for v in want]
        added += len(got) > len(set(pts) | {gauss_point(p)})
    assert added > 100


def _scan_parents(vertices):
    """Parent of each vertex as its deepest ancestor, by scanning all others."""
    parent, children = {}, {v: [] for v in vertices}
    for v in vertices:
        anc = [u for u in vertices if u != v and is_below(u, v)]
        parent[v] = max(anc, key=lambda u: u.q) if anc else None
        if anc:
            children[parent[v]].append(v)
    return parent, children


def test_build_tree_parents_match_scan():
    """Descending from the root finds the parents and child order that
    the all-pairs is_below scan finds."""
    rng = random.Random(19)
    branched = 0
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        pts = []
        for _ in range(rng.randint(1, 8)):
            q = Fraction(rng.randint(0, 8), rng.choice([1, 2]))
            pts.append(TreePoint(p, Fraction(rng.randint(0, p**4 - 1)), q))
        tree = build_tree(p, pts)
        parent, children = _scan_parents(tree.vertices)
        assert tree.vertices == _fixed_point_closure(p, pts)
        assert tree.parent == parent
        assert all(tree.children[v] == children[v] for v in tree.vertices)
        assert list(tree.children) == list(children)
        branched += any(len(c) > 1 for c in children.values())
    assert branched > 100


def test_edge_lengths_and_retraction():
    p = 2
    a = TreePoint(p, Fraction(0), Fraction(2))
    tree = build_tree(p, [a])
    assert tree.edge_length(a) == 2
    # retraction of a type-2 point off the tree lands at the meet
    off = TreePoint(p, Fraction(1), Fraction(3))
    assert tree.retract(off.center, off.q) == tree.root
    inside = TreePoint(p, Fraction(4), Fraction(3))
    assert tree.retract(inside.center, inside.q) == a
    # type-1 points retract along their center
    assert tree.retract(Fraction(4)) == a
    assert tree.retract(Fraction(3)) == tree.root


def test_pl_function_evaluation_interpolates():
    p = 2
    a = TreePoint(p, Fraction(0), Fraction(2))
    tree = build_tree(p, [a])
    f = PLFunction(tree, {tree.root: Fraction(0), a: Fraction(1)})
    mid = TreePoint(p, Fraction(0), Fraction(1))
    assert f.evaluate(mid) == Fraction(1, 2)
    # off-tree points take the value at their retraction
    assert f.evaluate(TreePoint(p, Fraction(1), Fraction(5))) == 0
    assert f.evaluate_center(Fraction(4)) == 1


def test_pl_function_algebra_refines():
    p = 2
    a = TreePoint(p, Fraction(0), Fraction(1))
    b = TreePoint(p, Fraction(1), Fraction(2))
    t1 = build_tree(p, [a])
    t2 = build_tree(p, [b])
    f = PLFunction(t1, {t1.root: Fraction(0), a: Fraction(2)})
    g = PLFunction(t2, {t2.root: Fraction(1), b: Fraction(0)})
    h = f + g
    for x in [a, b, gauss_point(p), TreePoint(p, Fraction(1), Fraction(1))]:
        assert h.evaluate(x) == f.evaluate(x) + g.evaluate(x)
    assert (f - f).max_value() == 0
    assert f.scale(Fraction(-3)).evaluate(a) == -6


def test_refine_keeps_values():
    p = 2
    a = TreePoint(p, Fraction(0), Fraction(2))
    tree = build_tree(p, [a])
    f = PLFunction(tree, {tree.root: Fraction(0), a: Fraction(1)})
    mid = TreePoint(p, Fraction(0), Fraction(1, 2))
    t2 = refine(tree, [mid])
    f2 = PLFunction(t2, {v: f.evaluate(v) for v in t2.vertices})
    assert mid in f2.tree.vertices
    assert f2.values[mid] == Fraction(1, 4)
    for v in tree.vertices:
        assert f2.values[v] == f.values[v]


def test_laplacian_total_mass_zero():
    p = 3
    pts = [
        TreePoint(p, Fraction(0), Fraction(1)),
        TreePoint(p, Fraction(1), Fraction(2)),
        TreePoint(p, Fraction(3), Fraction(1, 2)),
    ]
    tree = build_tree(p, pts)
    vals = {v: Fraction(hash(v) % 7, 3) for v in tree.vertices}
    f = PLFunction(tree, vals)
    mu = laplacian(f)
    assert mu.total_mass() == 0


def test_laplacian_single_edge():
    p = 2
    a = TreePoint(p, Fraction(0), Fraction(2))
    tree = build_tree(p, [a])
    f = PLFunction(tree, {tree.root: Fraction(0), a: Fraction(-1)})
    mu = laplacian(f)
    assert mu.masses == {tree.root: Fraction(-1, 2), a: Fraction(1, 2)}


def test_measure_integration_and_tv():
    p = 2
    g0 = gauss_point(p)
    a = TreePoint(p, Fraction(0), Fraction(1))
    mu = DiscreteMeasure({g0: Fraction(1, 2), a: Fraction(1, 2)})
    nu = DiscreteMeasure({g0: Fraction(1)})
    tree = build_tree(p, [a])
    f = PLFunction(tree, {g0: Fraction(2), a: Fraction(4)})
    assert mu.integrate(f) == 3
    assert mu.tv_distance(nu) == Fraction(1, 2)
    assert constant_function(tree, Fraction(5)).evaluate(a) == 5
