import random
from fractions import Fraction

import pytest

from berkvol import linalg
from berkvol.field import FieldContext
from berkvol.lattices import (
    DiagonalNorm,
    Lattice,
    TorsionModule,
    content,
    contains,
    intersect,
    lattice_norm,
    lattices_equal,
    relative_volume,
    smith_normal_form,
)


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
    U, d, V = smith_normal_form(A)
    assert d == [0, Fraction(1, 2), 2]
    assert linalg.mat_mul(linalg.mat_mul(U, A), V)[0][0].valuation() == 0


def test_content_of_scaled_lattice():
    ctx = FieldContext(3, 2)
    L = std_lattice(ctx, 4)
    Lp = L.scaled(ctx.uniformizer())
    T = TorsionModule(L, Lp)
    assert content(T) == 4 * Fraction(1, 2)


def test_torsion_module_requires_containment():
    ctx = FieldContext(2, 1)
    L = std_lattice(ctx, 2)
    with pytest.raises(Exception):
        TorsionModule(L.scaled(ctx.uniformizer()), L)


def test_content_matches_determinant_oracle_randomized():
    rng = random.Random(7)
    for trial in range(60):
        p = rng.choice([2, 3, 5])
        M = rng.choice([1, 2, 3])
        n = rng.randint(1, 6)
        ctx = FieldContext(p, M)
        outer, _ = random_sublattice(ctx, n, rng, max_exp=2)
        inner_rel, _ = random_sublattice(ctx, n, rng, max_exp=2)
        inner = Lattice(ctx, linalg.mat_mul(outer.basis, inner_rel.basis))
        T = TorsionModule(outer, inner)
        got = content(T)
        oracle = inner.det_valuation() - outer.det_valuation()
        assert got == oracle


def test_relative_volume_antisymmetry_and_cocycle():
    rng = random.Random(11)
    ctx = FieldContext(2, 2)
    for _ in range(20):
        L1, _ = random_sublattice(ctx, 3, rng)
        L2, _ = random_sublattice(ctx, 3, rng)
        L3, _ = random_sublattice(ctx, 3, rng)
        v12 = relative_volume(L1, L2)
        v21 = relative_volume(L2, L1)
        v13 = relative_volume(L1, L3)
        v23 = relative_volume(L2, L3)
        assert v12 == -v21
        assert v13 == v12 + v23


def test_relative_volume_of_pi_scaling():
    ctx = FieldContext(5, 3)
    L = std_lattice(ctx, 4)
    Lp = L.scaled(ctx.uniformizer())
    # shrinking the second lattice by pi increases the volume of the pair
    assert relative_volume(L, Lp) == Fraction(4, 3)


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
    smaller = L.scaled(ctx.uniformizer())
    assert contains(L, smaller)
    assert not contains(smaller, L)


def test_intersection_of_diagonal_norms():
    ctx = FieldContext(2, 2)
    # unit balls {v(x) >= 1/2, v(y) >= 0} and {v(x) >= 0, v(y) >= 1}
    N1 = DiagonalNorm(ctx, linalg.identity(ctx, 2), [Fraction(-1, 2), Fraction(0)])
    N2 = DiagonalNorm(ctx, linalg.identity(ctx, 2), [Fraction(0), Fraction(-1)])
    L = intersect(N1.unit_ball(), N2.unit_ball())
    want = DiagonalNorm(
        ctx, linalg.identity(ctx, 2), [Fraction(-1, 2), Fraction(-1)]
    ).unit_ball()
    assert lattices_equal(L, want)


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
            coeffs = [ctx.from_rational(Fraction(rng.randint(-2, 2))) for _ in range(3)]
            v = linalg.mat_vec(L1.basis, coeffs)
            if lattice_norm(L2, v) >= 0:
                assert lattice_norm(L, v) >= 0


def test_diagonal_norm_rejects_fractional_weight():
    ctx = FieldContext(2, 2)
    with pytest.raises(Exception):
        DiagonalNorm(ctx, linalg.identity(ctx, 1), [Fraction(1, 3)]).unit_ball()
