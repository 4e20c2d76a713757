"""Exact linear algebra over K_M and its valuation ring.

Matrices are plain lists of lists of FieldElement.  The valuation ring of
K_M is a discrete valuation ring, so minimal-valuation pivoting makes
elimination and Smith reduction exact and canonical.
"""

from __future__ import annotations

from typing import List, Tuple

from .errors import BerkvolError
from .field import INF, FieldContext, FieldElement

Matrix = List[List[FieldElement]]


class SingularMatrixError(BerkvolError):
    pass


def identity(ctx: FieldContext, n: int) -> Matrix:
    return [[ctx.one() if i == j else ctx.zero() for j in range(n)] for i in range(n)]


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = A[i][0] * B[0][j]
            for t in range(1, k):
                acc = acc + A[i][t] * B[t][j]
            row.append(acc)
        out.append(row)
    return out


def _pivot(W: Matrix, k: int, cols: int) -> Tuple:
    """(v, i, j): the least valuation v in W[k:, k:cols] and the first entry
    (i, j), row by row, that has it; v is INF when that block is zero."""
    return min((W[i][j].valuation(), i, j) for i in range(k, len(W)) for j in range(k, cols))


def det_valuation(A: Matrix):
    """Valuation of det(A); INF if A is singular.

    Row elimination with minimal-valuation pivots; row operations do not
    change the determinant and swaps only flip its sign.
    """
    n = len(A)
    W = [row[:] for row in A]
    total = 0
    for k in range(n):
        piv_v, piv, _ = _pivot(W, k, k + 1)
        if piv_v == INF:
            return INF
        W[k], W[piv] = W[piv], W[k]
        total += piv_v
        inv = W[k][k].inverse()
        for i in range(k + 1, n):
            if not W[i][k].is_zero():
                f = W[i][k] * inv
                W[i] = [x - f * y for x, y in zip(W[i], W[k])]
    return total


def smith(A: Matrix) -> Tuple[Matrix, list, Matrix]:
    """Smith reduction over the valuation ring of K_M.

    For an n x m matrix of full row rank (n <= m), returns (U, d, V) with
    U A V = [D | 0], U and V unimodular over the valuation ring, and
    d = [v(D_11), ..., v(D_nn)] nondecreasing.  Pivots are always entries
    of minimal valuation, so every elimination multiplier is integral.
    """
    n = len(A)
    m = len(A[0])
    if n > m:
        raise SingularMatrixError("smith() expects nrows <= ncols")
    ctx = A[0][0].ctx
    B = [row[:] for row in A]
    U = identity(ctx, n)
    V = identity(ctx, m)
    d = []
    for k in range(n):
        v, i, j = _pivot(B, k, m)
        if v == INF:
            raise SingularMatrixError("matrix does not have full row rank")
        if i != k:
            B[k], B[i] = B[i], B[k]
            U[k], U[i] = U[i], U[k]
        if j != k:
            for row in B:
                row[k], row[j] = row[j], row[k]
            for row in V:
                row[k], row[j] = row[j], row[k]
        d.append(v)
        inv = B[k][k].inverse()
        for r in range(k + 1, n):
            if not B[r][k].is_zero():
                f = B[r][k] * inv
                B[r] = [x - f * y for x, y in zip(B[r], B[k])]
                U[r] = [x - f * y for x, y in zip(U[r], U[k])]
        for c in range(k + 1, m):
            if not B[k][c].is_zero():
                f = B[k][c] * inv
                for row in B:
                    row[c] = row[c] - f * row[k]
                for row in V:
                    row[c] = row[c] - f * row[k]
    return U, d, V
