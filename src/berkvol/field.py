"""Exact arithmetic in Eisenstein extensions K_M = Q_p(p^(1/M)).

Elements are represented by their rational coordinates in the basis
1, pi, ..., pi^(M-1) of Q[pi]/(pi^M - p).  Valuations are normalized so
that v(p) = 1; every valuation of a nonzero element is a rational with
denominator dividing M.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Union

from .errors import BerkvolError, Frozen

#: Valuation of zero.
INF = float("inf")

Rational = Union[int, Fraction]


class FieldError(BerkvolError):
    pass


class DivisionByZero(FieldError):
    pass


#: Primes up to 37: as Miller-Rabin bases they decide primality exactly
#: for every n < 2^64 (indeed below 3.3 * 10^24).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < 2^64."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def check_prime(p: int) -> None:
    """Raise FieldError unless p is an int prime below 2^64, where is_prime
    is exact.  Every TreePoint checks its prime, so a passed one is cached;
    the cache keys 3 and 3.0 apart, so 3.0 reaches the type check."""
    if type(p) is not int:
        raise FieldError(f"p = {p!r} is not an integer")
    if p >= 2**64:
        raise FieldError(f"p = {p} is too large: need p < 2^64")
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")


def int_valuation(n: int, p: int) -> int:
    """v_p of a nonzero integer, in O(log v_p(n)) divisions: square p up to
    the largest p^(2^k) dividing n, then strip those powers largest first.
    Every power of p divides 0, so 0 is refused, and the squares of p = 1
    or -1 never grow, so p < 2 is refused too."""
    if n == 0:
        raise FieldError("v_p(0) is infinite: int_valuation needs a nonzero integer")
    if p < 2:
        raise FieldError(f"p = {p} is below 2: int_valuation needs p >= 2")
    if n % p:
        return 0
    powers = [p]
    while n % (powers[-1] * powers[-1]) == 0:
        powers.append(powers[-1] * powers[-1])
    v = 0
    for k in range(len(powers) - 1, -1, -1):
        quotient, rest = divmod(n, powers[k])
        if rest == 0:
            n = quotient
            v += 1 << k
    return v


def _fraction(r: Rational) -> Fraction:
    """An int or a Fraction as a Fraction.  Any other type is refused: a
    float would be read as its binary expansion, so 0.1 would become
    3602879701896397/36028797018963968."""
    if not isinstance(r, (int, Fraction)):
        raise FieldError(f"{r!r} is a {type(r).__name__}, not an int or a Fraction")
    return Fraction(r)


def padic_valuation(r: Rational, p: int):
    """v_p of an int or a Fraction, with v_p(0) = INF."""
    r = _fraction(r)
    if r == 0:
        return INF
    return Fraction(int_valuation(r.numerator, p) - int_valuation(r.denominator, p))


class FieldContext(Frozen):
    """The extension K_M of Q_p generated by an M-th root pi of p."""

    def __init__(self, p: int, M: int = 1):
        check_prime(p)
        if type(M) is not int:  # a bool is no ramification index
            raise FieldError(f"ramification index must be an integer, got {M!r}")
        if M < 1:
            raise FieldError(f"ramification index M = {M} must be >= 1")
        self.__dict__.update(p=p, M=M)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldContext) and (self.p, self.M) == (other.p, other.M)

    def __hash__(self) -> int:
        return hash((self.p, self.M))

    def from_rational(self, r: Rational) -> "FieldElement":
        coeffs = [_fraction(r)] + [Fraction(0)] * (self.M - 1)
        return FieldElement(self, tuple(coeffs))

    def zero(self) -> "FieldElement":
        return self.from_rational(0)

    def one(self) -> "FieldElement":
        return self.from_rational(1)

    def pi_power(self, k: int) -> "FieldElement":
        """pi^k for any integer k (negative powers use pi^M = p)."""
        if not isinstance(k, int):
            raise FieldError(f"exponent must be an integer, got {k!r}")
        q, r = divmod(k, self.M)
        coeffs = [Fraction(0)] * self.M
        coeffs[r] = Fraction(self.p) ** q
        return FieldElement(self, tuple(coeffs))


class FieldElement(Frozen):
    def __init__(self, ctx: FieldContext, coeffs: tuple):
        self.__dict__.update(ctx=ctx, coeffs=coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldElement) and (self.ctx, self.coeffs) == (other.ctx, other.coeffs)

    def __hash__(self) -> int:
        return hash((self.ctx, self.coeffs))

    def _check(self, other: "FieldElement") -> None:
        if self.ctx != other.ctx:
            raise FieldError("mixed field contexts")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        M = self.ctx.M
        p = self.ctx.p
        out = [Fraction(0)] * M
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                k = i + j
                if k < M:
                    out[k] += a * b
                else:
                    # pi^M = p
                    out[k - M] += a * b * p
        return FieldElement(self.ctx, tuple(out))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse, by solving x*y = 1 as a rational linear system."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        M = self.ctx.M
        # Column j of the system is x * pi^j in coordinates.
        cols = [(self * self.ctx.pi_power(j)).coeffs for j in range(M)]
        A = [[cols[j][i] for j in range(M)] for i in range(M)]
        rhs = [Fraction(1)] + [Fraction(0)] * (M - 1)
        sol = _solve_rational(A, rhs)
        return FieldElement(self.ctx, tuple(sol))

    def valuation(self):
        """min_j (v_p(a_j) + j/M); INF for zero.

        The candidates are pairwise distinct mod 1, so the ultrametric
        minimum is exact.
        """
        M = self.ctx.M
        best = INF
        for j, a in enumerate(self.coeffs):
            if a == 0:
                continue
            v = padic_valuation(a, self.ctx.p) + Fraction(j, M)
            if v < best:
                best = v
        return best


def _solve_rational(A, b):
    """Solve a square rational linear system by Gaussian elimination."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for k in range(n):
        piv = next((i for i in range(k, n) if M[i][k] != 0), None)
        if piv is None:
            raise FieldError("singular rational system")
        M[k], M[piv] = M[piv], M[k]
        inv = 1 / M[k][k]
        M[k] = [x * inv for x in M[k]]
        for i in range(n):
            if i != k and M[i][k] != 0:
                f = M[i][k]
                M[i] = [x - f * y for x, y in zip(M[i], M[k])]
    return [M[i][n] for i in range(n)]
