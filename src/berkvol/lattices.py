"""Lattices over the valuation ring of K_M.

A lattice is stored through a basis matrix whose columns span it over the
valuation ring.  Lattice norms are reported in valuation form: the value
attached to a vector v is -log_p ||v||, an element of (1/M)Z or INF.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Union

from . import linalg
from .errors import BerkvolError
from .field import INF, FieldContext, FieldElement
from .linalg import Matrix


class LatticeError(BerkvolError):
    pass


@dataclass
class Lattice:
    ctx: FieldContext
    basis: Matrix  # columns span the lattice

    def __post_init__(self):
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

    def scaled(self, a: FieldElement) -> "Lattice":
        return Lattice(self.ctx, [[x * a for x in row] for row in self.basis])


@dataclass
class DiagonalNorm:
    """Norm with valuation min_i (v(c_i) + w_i) in the given basis."""

    ctx: FieldContext
    basis: Matrix
    weights: List[Fraction]

    def unit_ball(self) -> Lattice:
        """The unit ball as a lattice; needs all weights in (1/M)Z."""
        M = self.ctx.M
        cols = []
        for j, w in enumerate(self.weights):
            k = -w * M
            if k.denominator != 1:
                raise LatticeError(
                    f"weight {w} not in (1/{M})Z; increase the ramification index"
                )
            scale = self.ctx.pi_power(int(k))
            cols.append([self.basis[i][j] * scale for i in range(len(self.basis))])
        return Lattice(self.ctx, [list(col) for col in zip(*cols)])


Norm = Union[Lattice, DiagonalNorm]


def _ball(n: Norm) -> Lattice:
    return n if isinstance(n, Lattice) else n.unit_ball()


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


def smith_normal_form(A: Matrix):
    """(U, d, V) with U A V diagonal of valuations d, U and V unimodular."""
    return linalg.smith(A)


@dataclass
class TorsionModule:
    outer: Lattice
    inner: Lattice

    def __post_init__(self):
        if self.outer.dim != self.inner.dim:
            raise LatticeError("dimension mismatch")
        if not contains(self.outer, self.inner):
            raise LatticeError("inner lattice is not contained in the outer one")


def content(T: TorsionModule) -> Fraction:
    """Sum of the Smith diagonal valuations of the transition matrix."""
    trans = linalg.solve(T.outer.basis, T.inner.basis)
    _, d, _ = linalg.smith(trans)
    return sum(d, Fraction(0))


def relative_volume(N1: Norm, N2: Norm) -> Fraction:
    """vol(||.||_1, ||.||_2) = v(det B_2) - v(det B_1) for unit-ball bases B_i."""
    B1, B2 = _ball(N1), _ball(N2)
    if B1.dim != B2.dim:
        raise LatticeError("dimension mismatch")
    return B2.det_valuation() - B1.det_valuation()


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
