import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from berkvol.field import (
    INF,
    DivisionByZero,
    FieldContext,
    FieldError,
    int_valuation,
    is_prime,
    padic_valuation,
)

rationals = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)


def ctx_elems(p=2, M=3):
    ctx = FieldContext(p, M)
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=8)
    return ctx, st.builds(lambda cs: ctx.element(cs), st.lists(coeff, min_size=M, max_size=M))


CTX, ELEMS = ctx_elems()


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1)


def trial_division_is_prime(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(10**4) if is_prime(n)] == [
        n for n in range(10**4) if trial_division_is_prime(n)
    ]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)
    assert not is_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7


def test_field_context_rejects_large_p():
    with pytest.raises(FieldError, match="2\\^64"):
        FieldContext(1000000000000000000000000000057)
    with pytest.raises(FieldError, match="2\\^64"):
        FieldContext(2**64)
    assert FieldContext(2**64 - 59).p == 2**64 - 59  # the largest prime below 2^64


def test_field_context_and_elements_are_frozen_values():
    ctx = FieldContext(2, 3)
    x = ctx.element([1, 2, 3])
    for obj, fields in ((ctx, ("p", "M")), (x, ("ctx", "coeffs"))):
        before = {name: getattr(obj, name) for name in fields}
        for name in fields:
            cls = type(obj).__name__
            with pytest.raises(AttributeError, match=f"'{name}' of a frozen {cls}"):
                setattr(obj, name, 5)
            with pytest.raises(AttributeError, match=f"'{name}' of a frozen {cls}"):
                delattr(obj, name)
        assert {name: getattr(obj, name) for name in fields} == before
    # contexts and elements compare, and hash, by their fields
    assert FieldContext(2) == FieldContext(2, 1) and hash(FieldContext(2)) == hash(FieldContext(2, 1))
    assert FieldContext(2) != FieldContext(2, 2) and FieldContext(2) != FieldContext(3)
    y = FieldContext(2, 3).element([1, 2, 3])
    assert x == y and hash(x) == hash(y) and x is not y
    assert x != ctx.element([1, 2, 4]) and ctx.one() != FieldContext(2, 1).one()
    with pytest.raises(FieldError, match="mixed field contexts"):
        x + FieldContext(3, 3).one()


def test_padic_valuation_basics():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(1, 8), 2) == -3
    assert padic_valuation(Fraction(9, 5), 3) == 2
    assert padic_valuation(Fraction(0), 7) == INF


def naive_valuation(r, p):
    """v_p by one division per unit of valuation."""
    v, n, d = 0, r.numerator, r.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def test_padic_valuation_matches_the_division_loop():
    rng = random.Random(29)
    for _ in range(300):
        p = rng.choice([2, 3, 5, 7, 2**61 - 1])
        k = rng.randint(-3000, 3000) if p < 8 else rng.randint(-30, 30)
        u = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        for r in (u, u * Fraction(p) ** k):
            assert padic_valuation(r, p) == naive_valuation(r, p)
            assert int_valuation(r.numerator, p) - int_valuation(r.denominator, p) == naive_valuation(r, p)
    for k in (0, 1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025, 3000):
        assert int_valuation(-(3**k) * 10, 3) == k and padic_valuation(Fraction(1, 2**k), 2) == -k


@given(a=rationals, b=rationals)
def test_padic_valuation_is_multiplicative(a, b):
    p = 3
    va, vb = padic_valuation(a, p), padic_valuation(b, p)
    assert padic_valuation(a * b, p) == va + vb


@given(a=rationals, b=rationals)
def test_padic_valuation_ultrametric(a, b):
    p = 5
    v = padic_valuation(a + b, p)
    assert v >= min(padic_valuation(a, p), padic_valuation(b, p))


def test_uniformizer_valuation():
    for M in (1, 2, 3, 5):
        ctx = FieldContext(2, M)
        assert ctx.pi_power(1).valuation() == Fraction(1, M)
        assert ctx.pi_power(M).valuation() == 1
        # pi^M reduces to p itself
        assert ctx.pi_power(M) == ctx.from_rational(Fraction(2))


def test_pi_power_negative_exponent():
    ctx = FieldContext(3, 2)
    x = ctx.pi_power(-3)
    assert x.valuation() == Fraction(-3, 2)
    assert x * ctx.pi_power(3) == ctx.one()


@given(a=ELEMS, b=ELEMS, c=ELEMS)
@settings(max_examples=60)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + CTX.zero() == a
    assert a * CTX.one() == a


@given(a=ELEMS)
@settings(max_examples=60)
def test_inverse(a):
    if a == CTX.zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        assert a * a.inverse() == CTX.one()


@given(a=ELEMS, b=ELEMS)
@settings(max_examples=60)
def test_valuation_laws(a, b):
    va, vb = a.valuation(), b.valuation()
    assert (a * b).valuation() == va + vb
    assert (a + b).valuation() >= min(va, vb)


def test_valuation_of_zero():
    assert CTX.zero().valuation() == INF
