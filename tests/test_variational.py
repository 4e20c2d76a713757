"""The variational principle behind the paper's Monge-Ampere solutions.

For a measure mu of mass d and its potential phi_mu, with MA(phi_mu) = mu,
F_mu(phi) = vol(L, phi, phi_triv) - int phi dmu is largest at phi_mu over all
continuous metrics, psh or not, and its one-sided derivatives at phi_mu
vanish: the derivative of the volume is int f dmu.  The atoms of mu lie
anywhere in the closed unit disc, and phi_mu is ma_solution of mu on the
tree they span.  Everything is exact; the draws are seeded.
"""

import random
from fractions import Fraction

from berkvol.metrics import envelope, ma_solution, trivial_metric
from berkvol.tree import build_tree
from berkvol.volumes import right_derivative, vol_limit

from conftest import random_measure, random_pl_metric, random_psh_metric

DRAWS = 100
COMPETITORS = 5


def functional(mu, phi):
    """F_mu(phi), with phi_triv the trivial metric of phi's degree."""
    return vol_limit(phi, trivial_metric(phi.p, phi.d)) - mu.integrate(phi.g)


def draws(seed):
    """(rng, phi_mu, mu): a random measure of mass d and its potential."""
    rng = random.Random(seed)
    for _ in range(DRAWS):
        p, d = rng.choice([2, 3, 5]), rng.randint(1, 3)
        mu = random_measure(p, d, rng)
        yield rng, ma_solution(build_tree(p, mu.masses), mu, d), mu


def competitors(rng, phi_mu):
    """Psh and non-psh metrics on fresh trees, shifted by k/3."""
    for i in range(COMPETITORS):
        draw = random_psh_metric if i % 2 else random_pl_metric
        yield draw(phi_mu.p, phi_mu.d, rng).shift(Fraction(rng.randint(-6, 6), 3))


def test_phi_mu_maximizes_the_functional():
    for rng, phi_mu, mu in draws(9):
        best = functional(mu, phi_mu)
        for phi in competitors(rng, phi_mu):
            assert functional(mu, phi) <= best


def test_the_envelope_does_not_lower_the_functional():
    # vol is the same for phi and P(phi), and P(phi) <= phi against mu >= 0
    for rng, phi_mu, mu in draws(10):
        for phi in competitors(rng, phi_mu):
            assert functional(mu, envelope(phi)) >= functional(mu, phi)


def test_the_functional_ignores_constants():
    for rng, phi_mu, mu in draws(11):
        for phi in competitors(rng, phi_mu):
            c = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7]))
            assert functional(mu, phi.shift(c)) == functional(mu, phi)


def test_phi_mu_is_stationary_from_both_sides():
    # d/dt vol(phi_mu + t f) at 0 is int f dmu from the right, and from the
    # left as minus the right derivative along -f
    for rng, phi_mu, mu in draws(12):
        for _ in range(COMPETITORS):
            f = random_pl_metric(phi_mu.p, phi_mu.d, rng).g
            assert right_derivative(phi_mu, f) == mu.integrate(f)
            assert -right_derivative(phi_mu, f.scale(-1)) == mu.integrate(f)
