"""Lattices over the valuation ring of K_M: the K_M oracle's half.

sections.sup_norm_lattice builds the unit ball of a sup norm as the
intersection of diagonal vertex lattices, and the tests compare its
determinant valuation with unit_ball_valuations.  A lattice is stored
through a basis matrix whose columns span it over the valuation ring.
lattice_norm, contains and lattices_equal let the tests check intersect
itself; lattice norms are in valuation form: the value attached to a
vector v is -log_p ||v||, an element of (1/M)Z or INF.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from . import linalg
from .errors import BerkvolError
from .field import INF, FieldContext, FieldElement
from .linalg import Matrix


class LatticeError(BerkvolError):
    pass


class Lattice:
    def __init__(self, ctx: FieldContext, basis: Matrix):
        self.ctx = ctx
        self.basis = basis  # columns span the lattice
        self.__post_init__()

    def __post_init__(self):
        """The checks on the basis, kept apart from __init__ as a span of
        the benchmark's tracer."""
        n = len(self.basis)
        if any(len(row) != n for row in self.basis):
            raise LatticeError("basis matrix must be square")
        if linalg.det_valuation(self.basis) == INF:
            raise LatticeError("basis matrix is singular")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def det_valuation(self) -> Fraction:
        return linalg.det_valuation(self.basis)


def lattice_norm(L: Lattice, v: List[FieldElement]):
    """Valuation form of ||v||_L: min_i v(c_i) for c = basis^{-1} v."""
    c = linalg.solve_vector(L.basis, v)
    return min(x.valuation() for x in c)


def contains(outer: Lattice, inner: Lattice) -> bool:
    """inner is a sublattice of outer iff the transition matrix is integral."""
    T = linalg.solve(outer.basis, inner.basis)
    return all(x.valuation() >= 0 for row in T for x in row)


def lattices_equal(L1: Lattice, L2: Lattice) -> bool:
    return contains(L1, L2) and contains(L2, L1)


def intersect(L1: Lattice, L2: Lattice) -> Lattice:
    """L1 ∩ L2, computed by saturating the kernel of [A | -B].

    A pair (u, w) with A u = B w describes a common vector; the integral
    points of that kernel subspace are spanned by the last n columns of
    the unimodular V from the Smith reduction of [A | -B].
    """
    if L1.dim != L2.dim:
        raise LatticeError("dimension mismatch")
    n = L1.dim
    R = [L1.basis[i][:] + [-x for x in L2.basis[i]] for i in range(n)]
    _, _, V = linalg.smith(R)
    u_cols = [[V[i][n + j] for j in range(n)] for i in range(n)]
    basis = linalg.mat_mul(L1.basis, u_cols)
    return Lattice(L1.ctx, basis)
