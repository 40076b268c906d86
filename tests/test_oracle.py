from fractions import Fraction

import pytest

from dhtr.cutjoin import DHTable, partitions_of
from dhtr.oracle import (
    DEGREE_CAP,
    DegreeCapError,
    FactorizationOracle,
    OracleValidationError,
    cycle_type,
    dfs_count,
    orbit_partition,
    rho_from_mu,
    transitive_count,
)
from dhtr.weightpoly import WeightPolynomial


def test_partitions_of():
    assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert list(partitions_of(4, max_part=2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_perm_helpers():
    rho = rho_from_mu((3, 2))
    assert rho == (1, 2, 0, 4, 3)
    assert cycle_type(rho) == (3, 2)
    assert orbit_partition(rho) == (0, 0, 0, 1, 1)


def test_dfs_equals_dp_small():
    # the character-formula counter against the reference enumerator, for
    # every (lam, mu) at d <= 4 and every m, off-parity ones included
    for d in (1, 2, 3, 4):
        for mu in partitions_of(d):
            rho = rho_from_mu(mu)
            for lam in partitions_of(d):
                for m in range(0, 6):
                    assert dfs_count(d, lam, rho, m) == transitive_count(lam, mu, m), (
                        d, lam, m, mu,
                    )


def test_degree_one_cover():
    oracle = FactorizationOracle(1)
    assert oracle.oracle_dh(0, (1,)) == WeightPolynomial.q(1, 1)


def test_mu_two_by_hand():
    # lambda=(2): m=0, one tuple; lambda=(1,1): m=1, one tuple; both / 2
    oracle = FactorizationOracle(2)
    poly = oracle.oracle_dh(0, (2,))
    s = WeightPolynomial.s(2)
    q1, q2 = WeightPolynomial.q(1, 2), WeightPolynomial.q(2, 2)
    assert poly == q2 / 2 + (q1 * q1 * s) / 2


def test_one_one_one_matches_table():
    oracle = FactorizationOracle(3)
    poly = oracle.oracle_dh(0, (1, 1, 1))
    assert poly.at_s_one() == {
        (0, 0, 1): Fraction(3),
        (1, 1, 0): Fraction(4),
        (3, 0, 0): Fraction(1),
    }


def test_genus_one_two():
    oracle = FactorizationOracle(2)
    poly = oracle.oracle_dh(1, (2,))
    assert poly.at_s_one() == {(0, 1): Fraction(1, 4), (2, 0): Fraction(1, 12)}


def test_conjugation_invariance_of_counts():
    # relabelling the points must not change counts: rerun with a shuffled
    # permutation of the same labelled cycle structure
    cases = [
        (4, rho_from_mu((2, 2)), (2, 3, 0, 1)),   # (01)(23) vs (02)(13)
        (3, rho_from_mu((2, 1)), (0, 2, 1)),      # (01) vs (12)
        (4, rho_from_mu((3, 1)), (0, 2, 3, 1)),   # (012) vs (123)
    ]
    for d, rho, rho2 in cases:
        assert cycle_type(rho2) == cycle_type(rho) and rho2 != rho
        for lam in partitions_of(d):
            for m in range(0, 4):
                assert dfs_count(d, lam, rho, m) == dfs_count(d, lam, rho2, m)


def test_parity_obstruction():
    # product of m transpositions has sign (-1)^m; mismatched m counts
    # nothing
    mu = (3,)                          # even permutation
    for lam in partitions_of(3):
        m_good = 2 * 0 - 2 + 1 + len(lam)
        for m in (m_good + 1, m_good + 3):
            if m >= 0:
                assert transitive_count(lam, mu, m) == 0


def test_compare_against_recursion():
    for g, mu in [(0, (2,)), (0, (2, 2)), (1, (3,)), (2, (2,))]:
        d = sum(mu)
        oracle = FactorizationOracle(d)
        report = oracle.compare(g, mu, DHTable(d))
        assert report.equal, (g, mu, report.diffs)


def test_degree_cap():
    oracle = FactorizationOracle(2)
    with pytest.raises(DegreeCapError, match=f"cap {DEGREE_CAP}"):
        oracle.counts(0, (2,) * (DEGREE_CAP // 2) + (1,))


def test_fail_closed_normalization(monkeypatch):
    oracle = FactorizationOracle(2)
    monkeypatch.setattr(
        FactorizationOracle,
        "tuple_weight",
        staticmethod(lambda count, m, mu: Fraction(count)),  # drop the 1/m! prod mu
    )
    # could not compute (an ArithmeticError, exit 3), not a usage error
    with pytest.raises(OracleValidationError, match="normalization failed"):
        oracle.compare(0, (2,))


def test_degree_six_boundary():
    # degree six: one two-part and one three-part instance
    oracle = FactorizationOracle(6)
    assert oracle.compare(0, (3, 3), DHTable(6)).equal
    assert oracle.compare(1, (2, 2, 2), DHTable(6)).equal


def test_dfs_equals_dp_degree_five_spot():
    # one moderate degree-5 case ties the reference enumerator to the
    # character-formula counter
    rho = rho_from_mu((3, 2))
    for lam in [(3, 2), (2, 2, 1)]:
        m = 2 * 0 - 2 + 2 + len(lam)
        assert dfs_count(5, lam, rho, m) == transitive_count(lam, (3, 2), m)


def test_degree_twelve_and_sixteen():
    # past the reach of tuple enumeration: the values the TR checks consume
    oracle = FactorizationOracle(2)
    for g, mu in [(0, (4, 4, 4, 4)), (1, (5, 4, 3)), (2, (4, 4, 4)),
                  (2, (4, 4, 4, 4)), (1, (6, 5, 5))]:
        report = oracle.compare(g, mu, DHTable(2))
        assert report.equal, (g, mu, report.diffs)
