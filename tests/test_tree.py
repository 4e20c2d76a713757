import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import berkvol.tree as tree_module
from berkvol.field import padic_valuation
from berkvol.tree import (
    DiscreteMeasure,
    PLFunction,
    TreeError,
    TreePoint,
    build_tree,
    constant_function,
    digit_sorted,
    gauss_point,
    laplacian,
    meet,
    meet_q,
    refine,
)

from conftest import is_below
from tree_oracle import all_pairs_build_tree, descend

RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3)]
centers = st.integers(min_value=0, max_value=31).map(Fraction)
points = st.builds(lambda c, q: TreePoint(2, c, q), centers, st.sampled_from(RADII))


def test_point_equality_is_disc_equality():
    # zeta_{a, r} only depends on the disc, not on the chosen center
    assert TreePoint(2, Fraction(0), Fraction(1)) == TreePoint(2, Fraction(2), Fraction(1))
    assert TreePoint(2, Fraction(0), Fraction(1)) != TreePoint(2, Fraction(1), Fraction(1))
    assert TreePoint(3, Fraction(1), Fraction(2)) == TreePoint(3, Fraction(10), Fraction(2))
    assert hash(TreePoint(2, Fraction(0), Fraction(1))) == hash(
        TreePoint(2, Fraction(2), Fraction(1))
    )


def test_point_is_frozen():
    x = TreePoint(3, Fraction(7), Fraction(2))
    before = (x.center, x.q, x.key, hash(x))
    for name in ("center", "q", "key"):
        with pytest.raises(AttributeError, match=f"'{name}' of a frozen TreePoint"):
            setattr(x, name, Fraction(1))
        with pytest.raises(AttributeError, match=f"'{name}' of a frozen TreePoint"):
            delattr(x, name)
    assert (x.center, x.q, x.key, hash(x)) == before
    assert x == TreePoint(3, Fraction(7), Fraction(2))


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
    for p in (2, 3, 5):
        with pytest.raises(TreeError, match=rf"^center 1/{p} lies outside the closed unit disc$"):
            TreePoint(p, Fraction(1, p), Fraction(1))
        with pytest.raises(TreeError, match=r"^radius exponent -1/2 must be >= 0$"):
            TreePoint(p, Fraction(0), Fraction(-1, 2))
        # a denominator prime to p is a p-adic unit
        x = TreePoint(p, Fraction(1, p + 1), Fraction(2))
        assert (x.digits * (p + 1)) % p**2 == 1


def test_point_reads_int_fraction_and_unreduced_inputs():
    """Ints, Fractions and centers off [0, p^k) name the same point with
    the same k, digits, key and hash; a Fraction is stored as given."""
    p = 3
    c, q = Fraction(7), Fraction(2)
    x = TreePoint(p, c, q)
    assert x.center is c and x.q is q
    assert (x.k, x.digits, x.key) == (2, 7, (3, Fraction(2), 7))
    for center, radius in [(7, 2), (Fraction(14, 2), Fraction(6, 3)), (7 - 9 * 5, 2), (7 + 9 * 4, 2)]:
        y = TreePoint(p, center, radius)
        assert (y.k, y.digits, y.key, hash(y)) == (x.k, x.digits, x.key, hash(x))
        assert y == x and isinstance(y.center, Fraction) and isinstance(y.q, Fraction)
    # a denominator prime to p is a unit: 1/4 = 7 mod 9 and 1 mod 3
    assert TreePoint(p, Fraction(1, 4), 2) == x
    assert TreePoint(p, Fraction(1, 4), Fraction(3, 2)).digits == 7
    assert TreePoint(p, Fraction(1, 4), Fraction(1, 2)).digits == 1
    assert gauss_point(p).digits == 0 and gauss_point(p).k == 0
    # the key's hash is that of the Fraction digits the key used to hold
    assert hash(x) == hash((3, Fraction(2), Fraction(7)))


def _meet_pair(rng):
    """Two points over one p in {2, 3, 5}, often close together."""
    p = rng.choice([2, 3, 5])
    a = Fraction(rng.randint(-(p**5), p**5), rng.choice([1, p + 1, 2 * p + 1]))
    x = TreePoint(p, a, Fraction(rng.randint(0, 12), rng.choice([1, 2, 3])))
    b = a + p ** rng.randint(0, 5) * Fraction(rng.randint(-p, p), rng.choice([1, p + 1]))
    y = TreePoint(p, b, Fraction(rng.randint(0, 12), rng.choice([1, 2, 3])))
    return x, y


def test_meet_matches_the_valuation_formula():
    """meet(x, y) has depth min(q_x, q_y, v_p(a_x - a_y)); it is x or y
    itself when that is their depth, and otherwise a new point at that
    integer depth, named by x's center."""
    rng = random.Random(53)
    made = 0
    for _ in range(3000):
        x, y = _meet_pair(rng)
        p = x.p
        q = min(x.q, y.q, padic_valuation(x.center - y.center, p))
        z = meet(x, y)
        if q == x.q:
            assert z is x
        elif q == y.q:
            assert z is y
        else:
            assert z.center == x.center and z.q == q and z.q.denominator == 1
            made += 1
        assert meet(y, x) == z
    assert made > 500


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


def test_meet_q_is_the_depth_of_the_meet():
    """meet_q(x, y) == meet(x, y).q on the pairs of the valuation-formula
    test and on every pair of the points the property tests draw from."""
    rng = random.Random(59)
    pairs = [_meet_pair(rng) for _ in range(3000)]
    small = [TreePoint(2, Fraction(c), q) for c in range(32) for q in RADII]
    pairs += itertools.product(small, repeat=2)
    for x, y in pairs:
        assert meet_q(x, y) == meet(x, y).q == meet_q(y, x)


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


def _scan_retract(tree, center, q=None):
    """Retraction by scanning every vertex: the depth shared with the
    deepest one, named by the given center."""
    center = Fraction(center)
    depth = max(min(v.q, padic_valuation(center - v.center, tree.p)) for v in tree.vertices)
    if q is not None:
        depth = min(depth, q)
    return tree.root if depth == 0 else TreePoint(tree.p, center, depth)


def _scan_locate(tree, x):
    """For x on the tree, the edge (u, c) with u <= x <= c and t = q_x - q_u,
    by scanning every vertex; c is None when x is a vertex."""
    u = max((v for v in tree.vertices if is_below(v, x)), key=lambda v: v.q)
    if u == x:
        return u, None, Fraction(0)
    return u, next(c for c in tree.children[u] if is_below(x, c)), x.q - u.q


def test_place_matches_scanning_oracle():
    """place, retract, evaluate and evaluate_center agree with retracting
    by a scan of every vertex and then locating the edge by another, for
    type-1 and type-2 points on vertices, inside edges and off the tree."""
    rng = random.Random(37)
    seen = {"vertex": 0, "edge": 0, "off": 0, "type-1": 0}
    for _ in range(3000):
        p = rng.choice([2, 3, 5])

        def center():
            return Fraction(rng.randint(0, p**4 - 1), rng.choice([1, p + 1, 2 * p + 1]))

        def radius():
            return Fraction(rng.randint(1, 12), rng.choice([1, 2, 3]))

        tree = build_tree(p, [TreePoint(p, center(), radius()) for _ in range(rng.randint(0, 6))])
        values = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for v in tree.vertices}
        f = PLFunction(tree, values)
        v = rng.choice(tree.vertices)
        u = tree.parent[v] or v
        other = v.center + p ** math.ceil(v.q) * rng.randint(-3, 3)
        queries = [
            (other, v.q),  # a vertex, named by another center
            (other, u.q + (v.q - u.q) * Fraction(rng.randint(1, 4), 5)),  # inside its edge
            (center(), radius()),  # anywhere, mostly off the tree
            (center(), None),
            (other, None),
        ]
        for c, q in queries:
            r = _scan_retract(tree, c, q)
            want = _scan_locate(tree, r)
            assert tree.place(c, q) == want
            got = tree.retract(c, q)
            assert got == r and got.center == r.center and (got is tree.root) == (r is tree.root)
            u0, c0, t = want
            value = f.values[u0] if c0 is None else (
                f.values[u0] + (f.values[c0] - f.values[u0]) * t / (c0.q - u0.q)
            )
            if q is None:
                assert f.evaluate_center(c) == value
                seen["type-1"] += 1
            else:
                x = TreePoint(p, c, q)
                assert f.evaluate(x) == value
                seen["vertex" if x in tree.vertices else "edge" if r == x else "off"] += 1
    assert min(seen.values()) > 1000


def test_digit_order_makes_residue_classes_segments():
    """digit_sorted puts distinct points in one order however they are
    given, and every residue class mod p^k is a run of the sorted points."""
    rng = random.Random(47)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        pool = sorted({Fraction(rng.randint(0, p**5 - 1), rng.choice([1, p + 1])) for _ in range(12)})
        runs = []
        for _ in range(2):
            rng.shuffle(pool)
            runs.append([pool[i] for i in digit_sorted(pool, p)[0]])
        assert runs[0] == runs[1]
        for k in range(1, 6):
            mod = p**k
            classes = [x.numerator * pow(x.denominator, -1, mod) % mod for x in runs[0]]
            starts = [key for key, _ in itertools.groupby(classes)]
            assert len(starts) == len(set(starts))


def _brute_digits(x, p, k):
    """The first k p-adic digits of x, least significant first, one at a time."""
    out = []
    for _ in range(k):
        digit = x.numerator * pow(x.denominator, -1, p) % p
        out.append(digit)
        x = (x - digit) / p
    return tuple(out)


def test_digit_sorted_matches_the_digit_expansions():
    """digit_sorted lists distinct points in the lexicographic order of their
    digit expansions, read one place past every pairwise valuation, and
    gives v_p of each adjacent difference."""
    rng = random.Random(61)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7])
        pool = {
            Fraction(rng.randint(-(p**6), p**6), rng.choice([1, 1, p - 1, p + 1, 2 * p + 1]))
            for _ in range(rng.randint(1, 14))
        }
        pts = rng.sample(sorted(pool), len(pool))
        k = 1 + int(max((padic_valuation(x - y, p) for x, y in itertools.combinations(pts, 2)), default=0))
        order, gaps = digit_sorted(pts, p)
        assert order == sorted(range(len(pts)), key=lambda i: _brute_digits(pts[i], p, k))
        assert gaps == [padic_valuation(pts[j] - pts[i], p) for i, j in zip(order, order[1:])]
        assert all(type(v) is int for v in gaps)


def test_digit_sorted_refuses_repeats_floats_and_points_off_the_disc():
    with pytest.raises(TreeError, match="^point 1/3 is repeated$"):
        digit_sorted([Fraction(1, 3), Fraction(0), Fraction(2, 6)], 2)
    with pytest.raises(TreeError, match="^0.5 is a float, not an exact rational$"):
        digit_sorted([Fraction(0), 0.5], 3)
    with pytest.raises(TreeError, match="^center 1/3 lies outside the closed unit disc$"):
        digit_sorted([Fraction(1, 3)], 3)


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


def _draw_points(rng, p):
    """Up to 9 points: fresh ones with non-integer radii and centers with
    unit denominators, the same disc again under another center, and
    discs nested in or around one already drawn."""
    pts = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if pts and kind < 0.2:
            x = rng.choice(pts)
            pts.append(TreePoint(p, x.center + p ** math.ceil(x.q) * rng.randint(-3, 3), x.q))
        elif pts and kind < 0.45:
            x = rng.choice(pts)
            pts.append(TreePoint(p, x.center, Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))))
        else:
            a = Fraction(rng.randint(-(p**4), p**4), rng.choice([1, p + 1, 2 * p + 1]))
            pts.append(TreePoint(p, a, Fraction(rng.randint(0, 12), rng.choice([1, 2, 3]))))
    return pts


def _shape(v):
    """A vertex as a report prints it: its center and radius exponent."""
    return None if v is None else (v.center, v.q)


def test_build_tree_matches_the_all_pairs_builder():
    """The preorder builder gives the all-pairs builder's vertices in
    order, each with the same center, the same parents and the same order
    of children; place agrees with the Fraction descent."""
    rng = random.Random(61)
    made = branched = 0
    for _ in range(1500):
        p = rng.choice([2, 3, 5])
        pts = _draw_points(rng, p)
        new, old = build_tree(p, pts), all_pairs_build_tree(p, pts)
        assert [_shape(v) for v in new.vertices] == [_shape(v) for v in old.vertices]
        assert list(new.parent) == new.vertices and list(new.children) == new.vertices
        for v, w in zip(new.vertices, old.vertices):
            assert _shape(new.parent[v]) == _shape(old.parent[w])
            assert [_shape(c) for c in new.children[v]] == [_shape(c) for c in old.children[w]]
        for x in _draw_points(rng, p)[:3]:
            for q in (x.q, None):
                assert new.place(x.center, q) == descend(old, x.center, q)
        made += len(new.vertices) > len(set(pts) | {gauss_point(p)})
        branched += any(len(c) > 1 for c in new.children.values())
    assert made > 300 and branched > 600


def test_build_tree_takes_one_meet_per_adjacent_pair(monkeypatch):
    """One build calls meet once per adjacent pair of its distinct input
    points in preorder, at most V - 1 times for V vertices."""
    calls = []
    real_meet = tree_module.meet
    monkeypatch.setattr(tree_module, "meet", lambda x, y: calls.append(1) or real_meet(x, y))
    rng = random.Random(67)
    for _ in range(300):
        p = rng.choice([2, 3, 5])
        pts = _draw_points(rng, p)
        calls.clear()
        tree = build_tree(p, pts)
        assert len(calls) == len(set(pts) | {gauss_point(p)}) - 1 <= len(tree.vertices) - 1


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


def _renamed(v, rng):
    """v under another center, when its disc has more than one."""
    return TreePoint(v.p, v.center + v.p**v.k * rng.randint(-3, 3), v.q)


def test_refine_by_vertices_is_the_tree_itself():
    """refine returns its tree, unbuilt, when every extra point is a vertex,
    even one named by another center; the all-pairs builder gives the same
    centers, parents and order of children.  A function re-expressed on a
    tree with an equal vertex list is the function itself."""
    rng = random.Random(71)
    renamed = added = 0
    for _ in range(1200):
        p = rng.choice([2, 3, 5])
        tree = build_tree(p, _draw_points(rng, p))
        extra = [_renamed(v, rng) if rng.random() < 0.5 else v
                 for v in rng.sample(tree.vertices, rng.randint(0, len(tree.vertices)))]
        renamed += any(x.center != v.center for x in extra for v in tree.vertices if x == v)
        assert refine(tree, extra) is tree
        old = all_pairs_build_tree(p, list(tree.vertices) + extra)
        assert [_shape(v) for v in tree.vertices] == [_shape(v) for v in old.vertices]
        for v, w in zip(tree.vertices, old.vertices):
            assert _shape(tree.parent[v]) == _shape(old.parent[w])
            assert [_shape(c) for c in tree.children[v]] == [_shape(c) for c in old.children[w]]

        f = PLFunction(tree, {v: Fraction(rng.randint(-6, 6), rng.choice([1, 2])) for v in tree.vertices})
        twin = build_tree(p, [_renamed(v, rng) for v in rng.sample(tree.vertices, len(tree.vertices))])
        assert twin.vertices == tree.vertices
        assert f.on_tree(tree) is f and f.on_tree(twin) is f

        x = _draw_points(rng, p)[:1]
        if x and x[0] not in tree.parent:
            added += 1
            finer = refine(tree, extra + x)
            assert finer is not tree and x[0] in finer.vertices
            g = f.on_tree(finer)
            assert g is not f and all(g.values[v] == f.values[v] for v in tree.vertices)
    assert renamed > 300 and added > 300


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


def test_tv_distance_is_exact_on_empty_measures():
    """Two empty measures (the Monge-Ampere measures of two d = 0 metrics)
    are at distance Fraction(0), not the float 0.0 of an unseeded sum."""
    empty = DiscreteMeasure({gauss_point(2): Fraction(0)})
    assert empty.masses == {}
    dist = empty.tv_distance(DiscreteMeasure({}))
    assert type(dist) is Fraction and dist == 0


def test_fraction_values_are_kept_not_rewrapped():
    """PLFunction and DiscreteMeasure keep the Fraction objects they are
    given, and wrap only what is not a Fraction yet."""
    p = 2
    a = TreePoint(p, Fraction(0), Fraction(1))
    tree = build_tree(p, [a])
    vals = {tree.root: Fraction(1, 3), a: Fraction(-2, 5)}
    f = PLFunction(tree, vals)
    assert all(f.values[v] is vals[v] for v in tree.vertices)
    masses = {tree.root: Fraction(1, 2), a: Fraction(1, 2)}
    mu = DiscreteMeasure(masses)
    assert all(mu.masses[v] is masses[v] for v in masses)
    g = PLFunction(tree, {tree.root: 1, a: 2})
    assert all(type(x) is Fraction for x in g.values.values())
    assert g.values == {tree.root: 1, a: 2}
