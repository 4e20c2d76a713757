"""The Z_p slice integral of a unit-ball determinant: a test oracle.

Before the tree recursion over root counts, sections.unit_ball_valuation
integrated v_p det B_t over Z_p slices B_t, each by integer elimination
modulo a power of p.  The three functions below are that path, kept
verbatim so that the tests can hold the recursion against a third,
independent computation beside the K_M lattices.
"""

import math
from fractions import Fraction
from typing import List, Optional

from berkvol.metrics import Metric
from berkvol.sections import SectionError, _vertex_weights
from berkvol.tree import PLFunction


def _taylor_shift(a: Fraction, N: int, mod: int) -> List[List[int]]:
    """Rows of T_a mod `mod`: (T_a s)_j = sum_{i>=j} C(i, j) a^(i-j) s_i.

    Built by Pascal's rule T[j][i] = T[j-1][i-1] + a T[j][i-1]; the
    denominator of a is a p-adic unit, so it is inverted mod `mod`.
    """
    a_mod = a.numerator * pow(a.denominator, -1, mod) % mod
    rows = [[1] + [0] * (N - 1)]
    for i in range(1, N):
        rows[0][i] = rows[0][i - 1] * a_mod % mod
    for j in range(1, N):
        prev = rows[-1]
        row = [0] * N
        row[j] = 1
        for i in range(j + 1, N):
            row[i] = (prev[i - 1] + a_mod * row[i - 1]) % mod
        rows.append(row)
    return rows


def _slice_valuation(p: int, centers: List[Fraction], exps: List[List[int]]) -> int:
    """v_p det of B = {s in Q_p^N : v_p((T_x s)_j) >= exps[x][j] for all x, j}.

    B is dual to the row module of the rows p^-e (T_x)_j.  Scaled by p^E,
    E = max e, those rows are integral and span a module R with
    v_p det B = N E - v_p det R.  Each vertex block alone spans a module
    with elementary divisors {E - e_{x,j}}, so R contains p^(K-1) Z_p^N
    for K = 1 + min_x max_j (E - e_{x,j}): echelon form modulo p^K, with
    a pivot of minimal valuation in each column, is exact.
    """
    N = len(exps[0])
    E = max(max(es) for es in exps)
    K = 1 + min(E - min(es) for es in exps)
    mod = p**K
    rows = []
    for a, es in zip(centers, exps):
        for row, e in zip(_taylor_shift(a, N, mod), es):
            if E - e < K:  # otherwise the scaled row is 0 mod p^K
                scale = p ** (E - e)
                rows.append([scale * c % mod for c in row])
    pivots = 0
    for c in range(N):
        best, best_v = -1, K
        for r, row in enumerate(rows):
            x = row[c]
            if x:
                v = 0
                while x % p == 0:
                    x //= p
                    v += 1
                if v < best_v:
                    best, best_v = r, v
                    if v == 0:
                        break
        if best < 0:
            raise SectionError("slice module lost rank modulo p^K")
        piv = rows.pop(best)
        unit_inv = pow(piv[c] // p**best_v, -1, mod)
        kept = []
        for row in rows:
            if row[c]:
                f = (row[c] // p**best_v) * unit_inv % mod
                row = [(x - f * y) % mod for x, y in zip(row, piv)]
            if any(row[c + 1:]):
                kept.append(row)
        rows = kept
        pivots += best_v
    return N * E - pivots


def _slice_integral(
    phi: Metric, m: int, extra: Optional[PLFunction] = None
) -> Fraction:
    """v(det U) from Z_p slices, valid on every tree.

    Over any K_M = Q_p(p^(1/M)) that makes the weights rational with
    denominator dividing M, U is the sum of the slices pi^k B_{k/M},
    where B_t is the Z_p-lattice of v_p((T_x s)_j) >= ceil(-w_{x,j} - t).
    Hence v(det U) = integral over t in [0, 1) of v_p det B_t, a step
    function that only jumps at the fractional parts of the -w_{x,j}.
    """
    verts = phi.tree.vertices
    weights = [_vertex_weights(phi, m, x, extra) for x in verts]
    cuts = sorted({Fraction(0)} | {-w - math.floor(-w) for ws in weights for w in ws})
    centers = [x.center for x in verts]
    total = Fraction(0)
    for t, t_next in zip(cuts, cuts[1:] + [Fraction(1)]):
        exps = [[math.ceil(-w - t) for w in ws] for ws in weights]
        total += (t_next - t) * _slice_valuation(phi.p, centers, exps)
    return total
