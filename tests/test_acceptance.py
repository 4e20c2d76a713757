"""End-to-end acceptance checks.

Each test prints a single PASS line so the run doubles as a report.
Every identity, the asymptotic ones included, is asserted with tolerance
zero: limits and derivatives of volumes are exact rationals.
"""

import math
import random
from fractions import Fraction

from berkvol import linalg
from berkvol.experiments import (
    diff_experiment,
    dirac_experiment,
    fekete_experiment,
    orthogonality_experiment,
    sandwich_check,
)
from berkvol.field import FieldContext, padic_valuation
from berkvol.lattices import Lattice, TorsionModule, content
from berkvol.metrics import (
    Metric,
    energy,
    envelope,
    integrate_against,
    is_psh,
    ma_measure,
    trivial_metric,
)
from berkvol.sections import required_ramification, sup_norm_lattice, vol_m
from berkvol.tree import PLFunction, TreePoint, build_tree, gauss_point
from berkvol.volumes import check_vol_equals_energy, rr_content, rr_slope_experiment, vol_limit

from conftest import random_pl_metric, random_psh_chain_metric, random_psh_metric


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


def slope_metric(p, d, slope, depth=1):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(depth))
    tree = build_tree(p, [g0, x])
    return Metric(d, PLFunction(tree, {g0: Fraction(0), x: slope * depth}))


def tent_function(p, height=Fraction(1)):
    g0 = gauss_point(p)
    x = TreePoint(p, Fraction(0), Fraction(1))
    tree = build_tree(p, [g0, x])
    return PLFunction(tree, {g0: Fraction(0), x: height})


def test_acceptance_01_content_matches_row_reduction_oracle():
    rng = random.Random(2026)

    def unimodular(ctx, n):
        A = linalg.identity(ctx, n)
        if n < 2:
            return A
        for _ in range(2 * n):
            i, j = rng.sample(range(n), 2)
            c = ctx.from_rational(Fraction(rng.randint(-2, 2)))
            for k in range(n):
                A[i][k] = A[i][k] + c * A[j][k]
        return A

    checked = 0
    # diagonal sanity cases first
    for M in (1, 2, 3, 6):
        ctx = FieldContext(2, M)
        exps = [0, 1, 3, 2]
        D = linalg.identity(ctx, 4)
        for i, e in enumerate(exps):
            D[i][i] = ctx.pi_power(e)
        T = TorsionModule(Lattice(ctx, linalg.identity(ctx, 4)), Lattice(ctx, D))
        assert content(T) == Fraction(sum(exps), M)
        checked += 1
    while checked < 210:
        p = rng.choice([2, 3, 5])
        M = rng.randint(1, 6)
        n = rng.randint(1, 12)
        ctx = FieldContext(p, M)
        D = linalg.identity(ctx, n)
        for i in range(n):
            D[i][i] = ctx.pi_power(rng.randint(0, 3))
        outer = Lattice(ctx, linalg.mat_mul(unimodular(ctx, n), D))
        rel = linalg.mat_mul(unimodular(ctx, n), D)
        inner = Lattice(ctx, linalg.mat_mul(outer.basis, rel))
        got = content(TorsionModule(outer, inner))
        oracle = inner.det_valuation() - outer.det_valuation()
        assert got == oracle
        checked += 1
    report("acceptance 1", f"content == row-reduction oracle on {checked} instances")


def test_acceptance_02_norm_level_identities():
    p = 2
    checked = 0
    for d in (1, 2):
        phi1 = slope_metric(p, d, Fraction(-1, 2))
        phi2 = slope_metric(p, d, Fraction(-1))
        phi3 = trivial_metric(p, d)
        c = Fraction(3, 4)
        for m in range(1, 21):
            v12 = vol_m(phi1, phi2, m)
            v23 = vol_m(phi2, phi3, m)
            v13 = vol_m(phi1, phi3, m)
            # cocycle, exactly
            assert v13 == v12 + v23
            # monotonicity: phi1 >= phi2 pointwise
            assert v12 >= 0
            # Lipschitz in the sup distance
            sup = Fraction(1, 2)
            assert abs(v12) <= m * (m * d + 1) * sup
            assert vol_m(phi1.shift(c), phi1, m) == m * c * (m * d + 1)
            checked += 4
    # base-change invariance: the K_M lattices at M0 and at 2 M0 give vol_m
    for d in (1, 2):
        phi = slope_metric(p, d, Fraction(-1, 2))
        psi = trivial_metric(p, d)
        for m in range(1, 9):
            M0 = math.lcm(required_ramification(phi, m), required_ramification(psi, m))
            for M in (M0, 2 * M0):
                ctx = FieldContext(p, M)
                over_km = (
                    sup_norm_lattice(psi, m, ctx).det_valuation()
                    - sup_norm_lattice(phi, m, ctx).det_valuation()
                )
                assert vol_m(phi, psi, m) == over_km
                checked += 1
    report("acceptance 2", f"{checked} exact identities at m <= 20 (K_M at m <= 8), d <= 2")


def test_acceptance_03_scaling_closed_form():
    rng = random.Random(3)
    for d in (1, 2):
        phi = random_psh_chain_metric(2, d, rng)
        c = Fraction(5, 4)
        for m in range(1, 21):
            assert vol_m(phi.shift(c), phi, m) == m * c * (m * d + 1)
        assert vol_limit(phi.shift(c), phi) == c * d
    report("acceptance 3", "vol_m(phi+c, phi) = m c (m d + 1) and vol = c d, exactly")


def test_acceptance_04_ma_total_mass():
    rng = random.Random(4)
    for i in range(50):
        d = rng.choice([1, 2, 3])
        p = rng.choice([2, 3, 5])
        phi = random_psh_metric(p, d, rng) if i % 2 else random_pl_metric(p, d, rng)
        assert ma_measure(phi).total_mass() == d
    report("acceptance 4", "total Monge-Ampere mass equals d on 50 random metrics")


def test_acceptance_05_energy_derivative():
    rng = random.Random(5)
    psi = trivial_metric(2, 1)
    for _ in range(12):
        phi = random_psh_metric(2, 1, rng)
        phip = random_psh_metric(2, 1, rng)

        def mix(t):
            g = phi.g.scale(1 - t) + phip.g.scale(t)
            return Metric(1, g)

        e0 = energy(mix(Fraction(0)), psi)
        eh = energy(mix(Fraction(1, 2)), psi)
        e1 = energy(mix(Fraction(1)), psi)
        # energy is quadratic along the segment; three exact values pin b
        deriv = 4 * eh - 3 * e0 - e1
        target = ma_measure(phi).integrate(phip.g - phi.g)
        assert deriv == target
    report("acceptance 5", "d/dt E((1-t)phi + t phi') at 0 equals the MA pairing, exactly")


def test_acceptance_06_orthogonality_corpus():
    rng = random.Random(6)
    count = 0
    tent = Metric(1, tent_function(2))
    assert orthogonality_experiment(tent) == 0
    count += 1
    while count < 32:
        phi = random_pl_metric(rng.choice([2, 3]), rng.choice([1, 2]), rng)
        if is_psh(phi):
            continue
        assert orthogonality_experiment(phi) == 0
        count += 1
    report("acceptance 6", f"envelope residual 0 on {count} non-psh metrics")


def test_acceptance_07_vol_equals_energy():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    rep = check_vol_equals_energy(phi, trivial_metric(2, 1), range(8, 41, 2))
    assert rep.energy == Fraction(-1, 8)
    assert rep.limit == rep.energy
    report("acceptance 7", f"vol = {rep.limit} equals E = -1/8")


def test_acceptance_08_differentiability():
    phi = slope_metric(2, 1, Fraction(-1, 2))
    f = tent_function(2)
    ts = [Fraction(1, 8), Fraction(1, 16)]
    rep = diff_experiment(phi, f, ts, range(16, 65, 16))
    assert rep.target == Fraction(1, 2)
    assert rep.right_derivative == rep.left_derivative == rep.target
    report("acceptance 8", "both one-sided derivatives equal the pairing 1/2")


def test_acceptance_09_sandwich_corpus():
    rng = random.Random(9)
    for i in range(20):
        phi = random_psh_chain_metric(2, 1, rng)
        psi1 = random_psh_chain_metric(2, 1, rng)
        psi2 = random_psh_chain_metric(2, 1, rng)
        rep = sandwich_check(phi, psi1, psi2)
        assert rep.holds(), (i, rep.lower, rep.middle, rep.upper)
    report("acceptance 9", "sandwich bound holds on 20 random psh triples")


def test_acceptance_10_dirac_solutions():
    p = 2
    for d in (1, 2):
        phi = trivial_metric(p, d)
        for x in (gauss_point(p), TreePoint(p, Fraction(0), Fraction(1))):
            rep = dirac_experiment(x, phi)
            assert rep.measure.masses == {x: Fraction(d)}
    report("acceptance 10", "MA(equilibrium) = d * delta_x for both test points, d = 1, 2")


def test_acceptance_11_riemann_roch_slope():
    p = 2
    # constant divisor function: exact dimension count and exact slope
    g0 = gauss_point(p)
    base = build_tree(p, [g0])
    for k in (1, 2):
        phiD = PLFunction(base, {g0: Fraction(k)})
        for m in range(1, 11):
            assert rr_content(phiD, trivial_metric(p, 1), m) == k * (m + 1)
        for d in (1, 2):
            rep = rr_slope_experiment(phiD, trivial_metric(p, d), range(2, 21, 2))
            assert rep.slope == k * d
    # tent divisor against a curved ample metric
    phiA = slope_metric(p, 1, Fraction(-1, 2))
    rep = rr_slope_experiment(tent_function(p), phiA, range(4, 41, 4))
    target = ma_measure(phiA).integrate(tent_function(p))
    assert rep.target == target == Fraction(1, 2)
    assert rep.slope == rep.target
    report("acceptance 11", f"h0 = k(m+1) exact; tent slope {rep.slope} equals {rep.target}")


def test_acceptance_12_fekete():
    phi5 = trivial_metric(5, 1)
    pool5 = [Fraction(k) for k in range(5)]
    for m in (1, 2, 3):
        rep = fekete_experiment(phi5, m, pool5)
        assert rep.best_valuation == 0
        assert rep.n_optima == math.comb(5, m + 1)
        cfg = rep.best_config
        for i in range(len(cfg)):
            for j in range(i + 1, len(cfg)):
                assert padic_valuation(cfg[i] - cfg[j], 5) == 0
        assert rep.empirical.masses == {gauss_point(5): Fraction(1)}
    rep2 = fekete_experiment(trivial_metric(2, 1), 2, [Fraction(k) for k in range(4)])
    assert rep2.best_valuation > 0
    report(
        "acceptance 12",
        f"p=5 optima have unit differences; p=2 pigeonhole valuation {rep2.best_valuation}",
    )
