"""Small exact simplex solver over the rationals.

Solves max c.x subject to A x <= b, x >= 0 with b >= 0, which is all the
envelope and equilibrium problems need (the origin is always feasible
there).  Bland's rule guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .errors import BerkvolError


class UnboundedError(BerkvolError):
    pass


def maximize(
    c: List[Fraction], A: List[List[Fraction]], b: List[Fraction]
) -> Tuple[Fraction, List[Fraction]]:
    m = len(A)
    n = len(c)
    if any(bi < 0 for bi in b):
        raise ValueError("this solver requires b >= 0")
    # Tableau rows: m constraint rows [A | I | b], then the objective row.
    T = [
        [Fraction(x) for x in A[i]]
        + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    obj = [-Fraction(x) for x in c] + [Fraction(0)] * (m + 1)
    basis = list(range(n, n + m))

    while True:
        # Bland: entering variable = lowest index with negative reduced cost.
        enter = next((j for j in range(n + m) if obj[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if T[i][enter] > 0:
                ratio = T[i][-1] / T[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise UnboundedError("objective is unbounded")
        piv = T[leave][enter]
        T[leave] = [x / piv for x in T[leave]]
        for i in range(m):
            if i != leave and T[i][enter] != 0:
                f = T[i][enter]
                T[i] = [x - f * y for x, y in zip(T[i], T[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, T[leave])]
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = T[i][-1]
    return obj[-1], x
