from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dhtr.weightpoly import WeightPolynomial, parse_rational, format_rational

D = 3


def wp_strategy(d_max=D, max_terms=4):
    key = st.tuples(*([st.integers(0, 3)] * (d_max + 1)))
    coeff = st.fractions(min_value=-40, max_value=40, max_denominator=12)
    return st.dictionaries(key, coeff, max_size=max_terms).map(
        lambda terms: WeightPolynomial(d_max, terms)
    )


def test_parse_and_format_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert format_rational(Fraction(10, 4)) == "5/2"
    with pytest.raises(ValueError):
        parse_rational("0.5")


def test_generators_and_multiplication():
    q1 = WeightPolynomial.q(1, D)
    q2 = WeightPolynomial.q(2, D)
    s = WeightPolynomial.s(D)
    p = (q1 + q2) * s
    assert p.terms == {
        (1, 0, 0, 1): Fraction(1),
        (0, 1, 0, 1): Fraction(1),
    }
    assert (q1 - q1).is_zero()
    assert not (q1 * q1).is_zero()


def test_zero_coefficients_never_stored():
    q1 = WeightPolynomial.q(1, D)
    p = q1 + q1.scale(-1)
    assert p.terms == {}
    p2 = WeightPolynomial(D, {(1, 0, 0, 0): Fraction(0)})
    assert p2.terms == {}


@settings(max_examples=60, deadline=None)
@given(wp_strategy(), wp_strategy(), wp_strategy())
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def test_power_and_scale():
    q1 = WeightPolynomial.q(1, D)
    s = WeightPolynomial.s(D)
    p = (q1 + s) ** 2
    assert p == q1 * q1 + (q1 * s).scale(2) + s * s
    assert p / 2 == p.scale(Fraction(1, 2))


def test_specialize_exact():
    # q1^2 s + 2 q2 at q=(3, 1/2, 0), s=1/3 -> 9/3 + 1 = 4
    p = WeightPolynomial.monomial((2, 0, 0), 1, 1, D) + WeightPolynomial.monomial(
        (0, 1, 0), 0, 2, D
    )
    value = p.specialize([Fraction(3), Fraction(1, 2), Fraction(0)], Fraction(1, 3))
    assert value == Fraction(4)


def test_s_grading_helpers():
    p = WeightPolynomial.monomial((1, 0, 0), 2, Fraction(3, 2), D)
    assert p.s_coefficient(2) == WeightPolynomial.monomial((1, 0, 0), 0, Fraction(3, 2), D)
    assert p.s_coefficient(3).is_zero()
    shifted = p.mul_s_power(1)
    assert shifted.s_coefficient(3) == p.s_coefficient(2)
    assert shifted.s_coefficient(2).is_zero()


def test_at_s_one_merges_grades():
    p = WeightPolynomial.monomial((1, 0, 0), 0, 1, D) + WeightPolynomial.monomial(
        (1, 0, 0), 2, 1, D
    )
    assert p.at_s_one() == {(1, 0, 0): Fraction(2)}


def test_embed_widens_exponent_space():
    p = WeightPolynomial.monomial((1, 1), 3, Fraction(5, 7), 2)
    wide = p.embed(4)
    assert wide.terms == {(1, 1, 0, 0, 3): Fraction(5, 7)}
    with pytest.raises(ValueError):
        wide.embed(2)


def test_json_round_trip():
    p = WeightPolynomial.monomial((0, 2, 1), 4, Fraction(-3, 5), D) + WeightPolynomial.q(1, D)
    data = p.to_json()
    assert all(set(entry) == {"coeff", "q", "s"} for entry in data)
    assert WeightPolynomial.from_json(data, D) == p


def test_pretty_partition_order():
    # q2 + (1/2) q1^2 should print the larger partition first
    p = WeightPolynomial.q(2, 2) + (WeightPolynomial.q(1, 2) ** 2).scale(Fraction(1, 2))
    assert p.pretty(show_s=False) == "q2 + 1/2 q1^2"


def test_partition_monomial():
    p = WeightPolynomial.q_partition([2, 1, 1], 3, coeff=Fraction(3), s_exponent=2)
    assert p.terms == {(2, 1, 0, 2): Fraction(3)}


def test_mixed_dmax_rejected():
    with pytest.raises(ValueError):
        WeightPolynomial.q(1, 2) + WeightPolynomial.q(1, 3)
