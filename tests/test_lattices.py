import random
from fractions import Fraction

import pytest

from berkvol import linalg
from berkvol.field import FieldContext
from berkvol.lattices import Lattice, intersect
from berkvol.metrics import Metric
from berkvol.sections import SectionError, sup_norm_lattice
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point

from lattice_oracle import contains, lattice_norm, lattices_equal


def std_lattice(ctx, n):
    return Lattice(ctx, linalg.identity(ctx, n))


def random_unimodular(ctx, n, rng):
    """Product of elementary integral row operations applied to the identity."""
    A = linalg.identity(ctx, n)
    if n < 2:
        return A
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = ctx.from_rational(Fraction(rng.randint(-3, 3)))
        for k in range(n):
            A[i][k] = A[i][k] + c * A[j][k]
    return A


def random_sublattice(ctx, n, rng, max_exp=3):
    """Standard lattice scaled by random pi powers, then twisted unimodularly."""
    U = random_unimodular(ctx, n, rng)
    D = linalg.identity(ctx, n)
    exps = [rng.randint(0, max_exp) for _ in range(n)]
    for i in range(n):
        D[i][i] = ctx.pi_power(exps[i])
    basis = linalg.mat_mul(U, D)
    return Lattice(ctx, basis), sum(Fraction(e, ctx.M) for e in exps)


def test_smith_diagonal_case():
    ctx = FieldContext(2, 2)
    A = linalg.identity(ctx, 3)
    A[0][0] = ctx.pi_power(4)
    A[2][2] = ctx.pi_power(1)
    U, d, V = linalg.smith(A)
    assert d == [0, Fraction(1, 2), 2]
    assert linalg.mat_mul(linalg.mat_mul(U, A), V)[0][0].valuation() == 0


def test_lattice_norm_diagonal():
    ctx = FieldContext(2, 2)
    L = std_lattice(ctx, 3)
    v = [ctx.from_rational(Fraction(4)), ctx.zero(), ctx.from_rational(Fraction(1, 2))]
    assert lattice_norm(L, v) == -1
    vp = [ctx.pi_power(3), ctx.zero(), ctx.zero()]
    assert lattice_norm(L, vp) == Fraction(3, 2)


def test_contains_and_equality():
    rng = random.Random(3)
    ctx = FieldContext(3, 1)
    L, _ = random_sublattice(ctx, 3, rng)
    U = random_unimodular(ctx, 3, rng)
    same = Lattice(ctx, linalg.mat_mul(L.basis, U))
    assert lattices_equal(L, same)
    pi = ctx.pi_power(1)
    smaller = Lattice(ctx, [[x * pi for x in row] for row in L.basis])
    assert contains(L, smaller)
    assert not contains(smaller, L)


def test_intersection_of_diagonal_norms():
    ctx = FieldContext(2, 2)
    def diagonal(k, l):
        # the lattice {v(x) >= k / 2, v(y) >= l / 2}
        return Lattice(ctx, [[ctx.pi_power(k), ctx.zero()], [ctx.zero(), ctx.pi_power(l)]])

    # unit balls {v(x) >= 1/2, v(y) >= 0} and {v(x) >= 0, v(y) >= 1}
    L = intersect(diagonal(1, 0), diagonal(0, 2))
    assert lattices_equal(L, diagonal(1, 2))


def test_intersection_agrees_with_containment():
    rng = random.Random(19)
    ctx = FieldContext(2, 2)
    for _ in range(15):
        L1, _ = random_sublattice(ctx, 3, rng)
        L2, _ = random_sublattice(ctx, 3, rng)
        L = intersect(L1, L2)
        assert contains(L1, L)
        assert contains(L2, L)
        # maximality: any vector in both lattices lies in the intersection
        for _ in range(5):
            coeffs = [[ctx.from_rational(Fraction(rng.randint(-2, 2)))] for _ in range(3)]
            v = [row[0] for row in linalg.mat_mul(L1.basis, coeffs)]
            if lattice_norm(L2, v) >= 0:
                assert lattice_norm(L, v) >= 0


def test_diagonal_norm_rejects_fractional_weight():
    # sup_norm_lattice builds one diagonal lattice per vertex; at m = 1 the
    # weight m g(x) = -1/3 at the disc vertex is not in (1/2)Z
    g0, x = gauss_point(2), TreePoint(2, Fraction(0), Fraction(1))
    phi = Metric(1, PLFunction(build_tree(2, [g0, x]), {g0: Fraction(0), x: Fraction(-1, 3)}))
    with pytest.raises(SectionError, match="ramification insufficient"):
        sup_norm_lattice(phi, 1, FieldContext(2, 2))


def test_smith_diagonal_sums_to_the_determinant_valuation():
    """210 instances, n <= 12, p in {2, 3, 5}, M <= 6: the Smith diagonal
    d of U D, for an integral unimodular U and a diagonal D of pi powers,
    has sum(d) = v(det), found by row reduction, = v(det D)."""
    rng = random.Random(2026)

    def unimodular(ctx, n):
        A = linalg.identity(ctx, n)
        if n < 2:
            return A
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = ctx.from_rational(Fraction(rng.randint(-2, 2)))
            for k in range(n):
                A[i][k] = A[i][k] + c * A[j][k]
        return A

    checked = 0
    for M in (1, 2, 3, 6):
        ctx = FieldContext(2, M)
        exps = [0, 1, 3, 2]
        D = linalg.identity(ctx, 4)
        for i, e in enumerate(exps):
            D[i][i] = ctx.pi_power(e)
        assert linalg.smith(D)[1] == [Fraction(e, M) for e in sorted(exps)]
        checked += 1
    while checked < 210:
        p = rng.choice([2, 3, 5])
        M = rng.randint(1, 6)
        n = rng.randint(1, 12)
        ctx = FieldContext(p, M)
        exps = [rng.randint(0, 3) for _ in range(n)]
        D = linalg.identity(ctx, n)
        for i, e in enumerate(exps):
            D[i][i] = ctx.pi_power(e)
        A = linalg.mat_mul(unimodular(ctx, n), D)
        assert sum(linalg.smith(A)[1]) == linalg.det_valuation(A) == Fraction(sum(exps), M)
        checked += 1
