from fractions import Fraction

import pytest

from dhtr.cutjoin import DHTable
from dhtr.pruning import PruningKernel, PruningTransform, p_series, x_of_z_series
from dhtr.series import Series
from dhtr.tables import load_golden
from dhtr.weightpoly import WeightPolynomial


@pytest.fixture(scope="module")
def table5():
    return DHTable(5)


@pytest.fixture(scope="module")
def transform5(table5):
    return PruningTransform(table5)


def test_kernel_diagonal_and_triangularity():
    kernel = PruningKernel(3)
    for k in range(1, 6):
        assert kernel.c(k, k) == kernel.ring.one
        assert kernel.chat(k, k) == kernel.ring.one
    assert kernel.c(2, 3).is_zero()      # nu > mu
    assert kernel.chat(2, 3).is_zero()   # mu > nu
    with pytest.raises(ValueError):
        kernel.c(2, 0)


def test_kernel_small_values():
    kernel = PruningKernel(3)
    q1 = WeightPolynomial.q(1, 3)
    q2 = WeightPolynomial.q(2, 3)
    s = WeightPolynomial.s(3)
    # C(2,1) = (1/2)[z] exp(2sP) = s q1
    assert kernel.c(2, 1) == q1 * s
    # C(3,1) = (1/3)[z^2] exp(3sP) = s q2 + (3/2) s^2 q1^2
    assert kernel.c(3, 1) == q2 * s + (q1 * q1 * s * s).scale(Fraction(3, 2))
    # Chat(2,1) = (1/2)[z](1 - szP')exp(-sP) = -s q1
    assert kernel.chat(2, 1) == (q1 * s).scale(-1)


def test_kernels_match_series_expansions():
    # the closed-form kernels against series arithmetic:
    # Chat(nu, mu) = [z^nu] x(z)^mu and C(mu, nu) = (nu/mu)[z^(mu-nu)] exp(mu s P)
    size = 10
    for d_max in range(1, 5):
        kernel = PruningKernel(d_max)
        xz = x_of_z_series(d_max, size + 1)
        p = p_series(kernel.ring, size)
        s = WeightPolynomial.s(d_max)
        x_mu = Series.constant(kernel.ring, "z", kernel.ring.one, size + 1)
        for mu in range(1, size + 1):
            x_mu = x_mu * xz
            exp_mu = p.scale(s.scale(mu)).exp()
            for nu in range(1, size + 1):
                assert kernel.chat(nu, mu) == x_mu.coefficient(nu), (d_max, nu, mu)
                expected = (exp_mu.coefficient(mu - nu).scale(Fraction(nu, mu))
                            if nu <= mu else kernel.ring.zero)
                assert kernel.c(mu, nu) == expected, (d_max, mu, nu)


def test_kernel_matrix_inverse_pair():
    kernel = PruningKernel(4)
    size = 8
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            acc = kernel.ring.zero
            for k in range(1, size + 1):
                acc = acc + kernel.c(i, k) * kernel.chat(k, j)
            expected = kernel.ring.one if i == j else kernel.ring.zero
            assert acc == expected, (i, j)


def test_ph_rejects_0_1(transform5):
    with pytest.raises(ValueError):
        transform5.ph(0, (3,))


def test_ph_examples(transform5):
    # all-ones indices coincide with DH
    assert transform5.ph(0, (1, 1)) == transform5.table.dh(0, (1, 1))
    ph11_3 = transform5.ph(1, (3,))
    assert ph11_3.at_s_one() == {
        (0, 0, 1, 0, 0): Fraction(1),
        (1, 1, 0, 0, 0): Fraction(1),
        (3, 0, 0, 0, 0): Fraction(5, 24),
    }
    ph04 = transform5.ph(0, (1, 1, 1, 1))
    assert ph04.at_s_one() == {
        (0, 0, 0, 1, 0): Fraction(16),
        (1, 0, 1, 0, 0): Fraction(27),
        (0, 2, 0, 0, 0): Fraction(12),
        (2, 1, 0, 0, 0): Fraction(24),
        (4, 0, 0, 0, 0): Fraction(4),
    }


def test_every_golden_row_b(transform5):
    for row in load_golden("B"):
        assert transform5.ph(row.g, row.mu).at_s_one() == row.coeffs, (row.g, row.mu)


def test_round_trip(transform5):
    for g, mu in [(0, (1, 1)), (0, (2, 1)), (1, (3,)), (1, (2, 2)), (2, (2,)), (0, (3, 2))]:
        assert transform5.dh_from_ph(g, mu) == transform5.table.dh(g, mu), (g, mu)


def test_x_of_z_series():
    xz = x_of_z_series(2, 4)
    s = WeightPolynomial.s(2)
    q1 = WeightPolynomial.q(1, 2)
    assert xz.coefficient(1) == WeightPolynomial.one(2)
    assert xz.coefficient(2) == (q1 * s).scale(-1)


def test_version_two_z_expansion(transform5):
    # the z-expansion of the free energies reproduces the pruned values
    for g, nu in [(0, (2, 1)), (0, (1, 1, 1)), (1, (2,)), (1, (2, 1)), (2, (2,)), (0, (3, 2))]:
        assert transform5.z_expansion_coefficient(g, nu) == transform5.ph(g, nu), (g, nu)
