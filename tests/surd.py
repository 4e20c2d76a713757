"""Q(sqrt 2) for the tests: a + b sqrt(2), a and b rational.

Arithmetic is exact, and so is the order: the sign of a + b sqrt(2) is the
sign of a and b where they agree, and otherwise that of the larger of a^2
and 2 b^2.  An int or a Fraction is the element with b = 0, equal to it and
hashed like it.  It is registered as a numbers.Number, which Fraction
refuses by type, so the package takes a Surd value as given.
"""

from fractions import Fraction
from numbers import Number


def _lift(x):
    """x as a Surd, or None for a type that is not int, Fraction or Surd."""
    if isinstance(x, Surd):
        return x
    if isinstance(x, (int, Fraction)):
        return Surd(x)
    return None


class Surd:
    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __repr__(self):
        return f"Surd({self.a}, {self.b})"

    def __add__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else Surd(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.a, -self.b)

    def __sub__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else Surd(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else o - self

    def __mul__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        return Surd(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _lift(other)
        if o is None:
            return NotImplemented
        # the norm a^2 - 2 b^2 vanishes only at 0, as sqrt(2) is irrational
        norm = o.a * o.a - 2 * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("Surd division by zero")
        return self * Surd(o.a / norm, -o.b / norm)

    def __rtruediv__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else o / self

    def sign(self):
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sb == 0 or sa == sb:
            return sa
        if sa == 0:
            return sb
        return sa if self.a * self.a > 2 * self.b * self.b else sb

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __bool__(self):
        return bool(self.a or self.b)

    def __eq__(self, other):
        o = _lift(other)
        return NotImplemented if o is None else (self.a, self.b) == (o.a, o.b)

    def __hash__(self):
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def _cmp(self, other):
        o = _lift(other)
        return None if o is None else (self - o).sign()

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0


Number.register(Surd)
