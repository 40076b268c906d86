import random
from fractions import Fraction

import pytest

from dhtr import cutjoin
from dhtr.cutjoin import DHTable, ResourceLimitError, canonical_mu, partitions_of
from dhtr.tables import load_golden
from dhtr.weightpoly import WeightPolynomial


@pytest.fixture(scope="module")
def table5():
    return DHTable(5)


def test_golden_rows_small(table5):
    # spot rows worked through by hand from the recursion
    assert table5.dh(0, (1,)) == WeightPolynomial.q(1, 5)
    dh2 = table5.dh(0, (2,))
    assert dh2.at_s_one() == {
        (0, 1, 0, 0, 0): Fraction(1, 2),
        (2, 0, 0, 0, 0): Fraction(1, 2),
    }
    dh11 = table5.dh(0, (1, 1))
    assert dh11.at_s_one() == {
        (0, 1, 0, 0, 0): Fraction(1),
        (2, 0, 0, 0, 0): Fraction(1, 2),
    }
    dh12 = table5.dh(1, (2,))
    assert dh12.at_s_one() == {
        (0, 1, 0, 0, 0): Fraction(1, 4),
        (2, 0, 0, 0, 0): Fraction(1, 12),
    }
    dh221 = table5.dh(2, (2, 1))
    assert dh221.at_s_one() == {
        (0, 0, 1, 0, 0): Fraction(27, 40),
        (1, 1, 0, 0, 0): Fraction(91, 180),
        (3, 0, 0, 0, 0): Fraction(13, 180),
    }


def test_every_golden_row(table5):
    for row in load_golden("A"):
        assert table5.dh(row.g, row.mu).at_s_one() == row.coeffs, (row.g, row.mu)


def test_golden_rows_are_parsed_once_and_read_only():
    rows = load_golden("A")
    assert load_golden("A") is rows and isinstance(rows, tuple)
    key = next(iter(rows[0].coeffs))
    with pytest.raises(TypeError):
        rows[0].coeffs[key] = Fraction(0)
    with pytest.raises(AttributeError):
        rows[0].g = 9


def test_symmetry_under_permutation(table5):
    rng = random.Random(7)
    for mu in [(1, 2), (3, 1, 2), (2, 2, 1), (1, 1, 3)]:
        shuffled = list(mu)
        rng.shuffle(shuffled)
        assert table5.dh(0, mu) == table5.dh(0, tuple(shuffled))
        assert table5.dh(1, mu) == table5.dh(1, tuple(shuffled))


def test_homogeneity_and_positivity(table5):
    cases = [(0, (3, 2)), (1, (2, 1, 1)), (2, (4,)), (3, (3,))]
    for g, mu in cases:
        value = table5.dh(g, mu)
        n = len(mu)
        assert value.terms, (g, mu)
        for qexps, m, coeff in value.monomials():
            weight = sum((i + 1) * e for i, e in enumerate(qexps))
            length = sum(qexps)
            assert weight == sum(mu)
            assert m == 2 * g - 2 + n + length
            assert coeff > 0


def test_s_zero_base_cases(table5):
    # only (0,1) survives at s = 0
    assert table5.dh(0, (3,)).s_coefficient(0) == WeightPolynomial.q(3, 5) / 3
    for g, mu in [(0, (1, 1)), (1, (2,)), (0, (2, 1)), (2, (3,))]:
        assert table5.dh(g, mu).s_coefficient(0).is_zero()
    # base truncation: a single point of ramification above d_max gives 0 at s^0
    small = DHTable(2)
    assert small.dh(0, (3,)).s_coefficient(0).is_zero()
    assert not small.dh(0, (3,)).is_zero()


def test_d_stability():
    # enlarging d_max beyond sum(mu) never changes the polynomial
    small = DHTable(3)
    wide = DHTable(5)
    for g, mu in [(0, (2, 1)), (1, (3,)), (1, (1, 1)), (2, (2,)), (0, (1, 1, 1))]:
        assert sum(mu) <= 3
        assert small.dh(g, mu).embed(5) == wide.dh(g, mu)


def test_euler_consistency():
    # m = 0 monomials are killed by the operator, higher ones scaled by m;
    # every key the integer recursion built is re-derived in rationals
    table = DHTable(3)
    for total in range(1, 7):
        for mu in partitions_of(total):
            for g in range(3):
                table.dh(g, mu)
    keys = list(table._counts)
    assert len(keys) == 3 * 29  # g <= 2 times the 29 partitions of 1..6
    for g, mu in keys:
        assert table.euler_consistency(g, mu), (g, mu)


def test_odd_doubled_sum_is_an_error(monkeypatch):
    # the doubled right side is halved exactly, never floored: one term of
    # weight 1 times N(0, (1,)) = 1 leaves an odd sum
    monkeypatch.setattr(cutjoin, "_terms", lambda g, mu: iter(
        [] if mu == (1,) else [(False, 1, 1, 0, ((0, (1,)),))]))
    with pytest.raises(ArithmeticError, match="odd doubled"):
        DHTable(2).dh(0, (2,))


def test_specialize_examples(table5):
    dh3 = table5.dh(0, (3,))
    assert dh3.specialize([1, 0, 0, 0, 0], 1) == Fraction(1, 2)
    assert dh3.specialize([0, 0, 1, 0, 0], 1) == Fraction(1, 3)


def test_canonicalization_and_caps():
    assert canonical_mu([1, 3, 2]) == (3, 2, 1)
    with pytest.raises(ValueError):
        canonical_mu(())
    with pytest.raises(ValueError):
        canonical_mu((0, 1))
    table = DHTable(2)
    with pytest.raises(ResourceLimitError):
        table.dh(0, (61,))
    with pytest.raises(ResourceLimitError):
        table.dh(17, (2,))


def test_stored_counts_bound(monkeypatch):
    reference = DHTable(3)
    reference.dh(1, (3, 2))
    stored = sum(map(len, reference._counts.values()))
    monkeypatch.setattr(cutjoin, "MAX_COUNTS", stored)
    table = DHTable(3)
    assert table.dh(1, (3, 2)) == reference.dh(1, (3, 2))  # exactly at the bound
    assert table._stored == stored
    with pytest.raises(ResourceLimitError, match=f"more than {stored} tuple counts"):
        table.dh(1, (3, 3))
    assert table.dh(1, (2, 3)) == reference.dh(1, (3, 2))  # a stored key is still read
    assert table._stored == stored


def test_memo_reuse(table5):
    first = table5.dh(1, (2, 1))
    again = table5.dh(1, (1, 2))
    assert first is again


def test_concurrent_builds_are_idempotent():
    import sys
    import threading

    table = DHTable(3)
    results = []

    def worker():
        results.append(table.dh(2, (3,)))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 8
    assert all(r == results[0] for r in results)
    # every stored key is counted once against the bound
    assert table._stored == sum(map(len, table._counts.values()))
    # reads return the single stored object
    assert table.dh(2, (3,)) is table.dh(2, (3,))


from hypothesis import given, settings, strategies as st


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2),
       st.lists(st.integers(1, 4), min_size=1, max_size=3))
def test_symmetry_homogeneity_positivity_random(g, mu):
    table = DHTable(4)
    value = table.dh(g, tuple(mu))
    assert value == table.dh(g, tuple(reversed(mu)))
    n = len(mu)
    for qexps, m, coeff in value.monomials():
        assert coeff > 0
        assert m == 2 * g - 2 + n + sum(qexps)
        assert sum((i + 1) * e for i, e in enumerate(qexps)) == sum(mu)
