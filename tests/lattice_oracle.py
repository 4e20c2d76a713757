"""Field, lattice and section helpers of the K_M oracle that only tests call.

The package keeps what sections.sup_norm_lattice needs to build a unit
ball over K_M and to read its determinant valuation.  The helpers below
check that lattice from outside: an element from its coordinates, a solve
over K_M, the lattice norm and containment, and polynomial sections with
their pointwise and sup norms.  Norms are in valuation form: the value
attached to a vector or a section is -log_p of its norm, an element of
(1/M)Z or INF.
"""

from fractions import Fraction
from typing import List, Sequence, Tuple

from berkvol.field import INF, FieldContext, FieldElement, FieldError, padic_valuation
from berkvol.lattices import Lattice
from berkvol.linalg import Matrix, SingularMatrixError, _pivot
from berkvol.metrics import Metric
from berkvol.sections import SectionError, _level_dimension
from berkvol.tree import TreePoint, _rational


def element(ctx: FieldContext, coeffs: Sequence) -> FieldElement:
    """The element of K_M with the given coordinates in 1, pi, ..., pi^(M-1)."""
    if len(coeffs) != ctx.M:
        raise FieldError(f"expected {ctx.M} coefficients, got {len(coeffs)}")
    return FieldElement(ctx, tuple(Fraction(c) for c in coeffs))


def solve(A: Matrix, B: Matrix) -> Matrix:
    """Solve A X = B for square invertible A."""
    n = len(A)
    W = [A[i][:] + B[i][:] for i in range(n)]
    for k in range(n):
        piv_v, piv, _ = _pivot(W, k, k + 1)
        if piv_v == INF:
            raise SingularMatrixError("matrix is singular over the field")
        W[k], W[piv] = W[piv], W[k]
        inv = W[k][k].inverse()
        W[k] = [x * inv for x in W[k]]
        for i in range(n):
            if i != k and not W[i][k].is_zero():
                f = W[i][k]
                W[i] = [x - f * y for x, y in zip(W[i], W[k])]
    return [row[n:] for row in W]


def lattice_norm(L: Lattice, v: List[FieldElement]):
    """Valuation form of ||v||_L: min_i v(c_i) for c = basis^{-1} v."""
    c = solve(L.basis, [[x] for x in v])
    return min(row[0].valuation() for row in c)


def contains(outer: Lattice, inner: Lattice) -> bool:
    """inner is a sublattice of outer iff the transition matrix is integral."""
    T = solve(outer.basis, inner.basis)
    return all(x.valuation() >= 0 for row in T for x in row)


def lattices_equal(L1: Lattice, L2: Lattice) -> bool:
    return contains(L1, L2) and contains(L2, L1)


class Section:
    """A rational polynomial in the affine chart, by its coefficients."""

    def __init__(self, coeffs: Tuple[Fraction, ...]):
        self.coeffs = tuple(_rational(c) for c in coeffs)

    @property
    def degree(self) -> int:
        return max((i for i, c in enumerate(self.coeffs) if c), default=-1)

    def is_zero(self) -> bool:
        return self.degree < 0

    def recenter(self, a: Fraction) -> Tuple[Fraction, ...]:
        """Coefficients of s(z + a), by exact Horner shifts."""
        a = _rational(a)
        out = list(self.coeffs)
        n = len(out)
        if a == 0:
            return tuple(out)
        for k in range(n):
            for i in range(n - 2, k - 1, -1):
                out[i] += a * out[i + 1]
        return tuple(out)


def point_norm(s: Section, x: TreePoint, phi: Metric, m: int):
    """Valuation of |s(x)| e^{-m phi(x)} for x in the unit-disc region."""
    if s.degree >= _level_dimension(m, phi.d):
        raise SectionError(f"degree {s.degree} exceeds m*d = {m * phi.d}")
    c = s.recenter(x.center)
    best = min((padic_valuation(ci, phi.p) + i * x.q for i, ci in enumerate(c) if ci), default=INF)
    return best + m * phi.value(x) if best != INF else INF


def sup_norm(s: Section, phi: Metric, m: int):
    """Valuation form of the sup norm: min of point_norm over the vertices."""
    if s.is_zero():
        raise SectionError("sup norm of the zero section")
    return min(point_norm(s, x, phi, m) for x in phi.tree.vertices)
