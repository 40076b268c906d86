import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath.libmp import from_man_exp, round_nearest

from dhtr import cli, series as series_module
from dhtr.curve import CurveSpec, SpectralCurve
from dhtr.series import (
    AlgebraError,
    ComplexRing,
    Poly,
    RationalRing,
    RingMismatchError,
    Series,
    TruncationError,
)
from dhtr.toprec import RecursionEngine
from dhtr.weightpoly import WeightPolynomial, WeightPolyRing
from nested_series import SeriesRing

QQ = RationalRing()


def qseries(coeffs, order=None, lo=0):
    order = order if order is not None else lo + len(coeffs)
    return Series.from_coeffs(QQ, "z", coeffs, order, lo=lo)


def reversion_by_substitution(f, order):
    """Independent order-by-order solve of f(g(x)) = x, for tests only."""
    ring = f.ring
    g_coeffs = [ring.zero, ring.invert(f.coefficient(1))]
    for n in range(2, order):
        g = Series(ring, f.var, 0, g_coeffs + [ring.zero], n + 1)
        delta = f.truncate(n + 1).compose(g) - Series.identity(ring, f.var, n + 1)
        # coefficient of x^n of f(g) is linear in the unknown with slope c1
        g_coeffs.append(-delta.coefficient(n) * ring.invert(f.coefficient(1)))
    return Series(ring, f.var, 0, g_coeffs, order)


# ----------------------------------------------------------------------
# multiplication / addition / inverse


def test_mul_difference_of_squares():
    one_plus = qseries([1, 1, 0, 0])
    one_minus = qseries([1, -1, 0, 0])
    prod = one_plus * one_minus
    assert [prod.coefficient(k) for k in range(4)] == [1, 0, -1, 0]


def test_div_geometric_series():
    one = qseries([1, 0, 0, 0])
    denom = qseries([1, -1, 0, 0])
    quot = one * denom.inverse()
    assert [quot.coefficient(k) for k in range(4)] == [1, 1, 1, 1]


def test_laurent_product():
    a = qseries([1, 1], lo=-1)  # z^-1 + 1
    b = qseries([1, -1], lo=-1)  # z^-1 - 1
    prod = a * b
    assert prod.lo == -2
    assert prod.coefficient(-2) == 1
    assert prod.coefficient(-1) == 0
    # z^-2 - 1: the constant term sits at the edge of the trusted window
    assert prod.order == 0


def test_min_order_rule_documented():
    a = qseries([1, 2, 3], order=3)
    b = qseries([1, 1, 1, 1, 1], order=5)
    assert (a + b).order == 3
    assert (a * b).order == 3  # both lowest exponents are 0
    shifted = a.shift(2)
    assert (shifted * b).order == 5  # 2 + min(3 + 5 - 2, ...) bookkeeping


def test_ring_and_variable_mismatch():
    a = qseries([1, 2])
    b = Series.from_coeffs(QQ, "w", [1, 2], 2)
    with pytest.raises(RingMismatchError):
        a + b
    ring = WeightPolyRing(2)
    c = Series.constant(ring, "z", ring.one, 2)
    with pytest.raises(RingMismatchError):
        a * c


def test_division_by_zero_leading_coefficient():
    a = qseries([1, 1])
    with pytest.raises(AlgebraError):
        Series.zero(QQ, "z", 2).inverse()
    # the inverse of a series with exactly-zero head is a Laurent series
    b = qseries([0, 1])
    quot = a * b.inverse()
    assert quot.lo == -1 and quot.coefficient(-1) == 1


# ----------------------------------------------------------------------
# exp / log


def test_exp_zero():
    z = Series.zero(QQ, "z", 4)
    e = z.exp()
    assert [e.coefficient(k) for k in range(4)] == [1, 0, 0, 0]


def test_exp_of_sz_taylor():
    ring = WeightPolyRing(1)
    s = WeightPolynomial.s(1)
    f = Series.from_coeffs(ring, "z", [ring.zero, s], 4)
    e = f.exp()
    assert e.coefficient(0) == ring.one
    assert e.coefficient(1) == s
    assert e.coefficient(2) == (s * s) / 2
    assert e.coefficient(3) == (s * s * s) / 6


def test_exp_2sP_coefficient():
    # [z^2] exp(2 s P(z)) with P = q1 z + q2 z^2 equals 2 s q2 + 2 s^2 q1^2,
    # by multiplying out 1 + 2sP + (2sP)^2/2 through order 2.
    ring = WeightPolyRing(2)
    q1, q2, s = WeightPolynomial.q(1, 2), WeightPolynomial.q(2, 2), WeightPolynomial.s(2)
    P = Series.from_coeffs(ring, "z", [ring.zero, q1, q2], 3)
    e = P.scale(s).scale(2).exp()
    expected = (q2 * s).scale(2) + (q1 * q1 * s * s).scale(2)
    assert e.coefficient(2) == expected


def test_exp_rejects_constant_term():
    f = qseries([1, 1])
    with pytest.raises(AlgebraError):
        f.exp()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=1, max_size=5))
def test_exp_times_exp_of_negation_is_one(tail):
    # exp(f) exp(-f) = 1 for zero-constant f
    f = qseries([0] + tail)
    g = f.exp()
    assert g * (-f).exp() == qseries([1], order=f.order)


# ----------------------------------------------------------------------
# reversion


def test_reversion_identity():
    f = Series.identity(QQ, "z", 6)
    g = f.reversion()
    assert [g.coefficient(k) for k in range(6)] == [0, 1, 0, 0, 0, 0]


def test_reversion_catalan():
    # x = z - z^2 inverts to the Catalan generating series
    # z = x + x^2 + 2x^3 + 5x^4 + O(x^5); cross-checked against the
    # independent substitution oracle.
    f = qseries([0, 1, -1, 0, 0])
    g = f.reversion()
    assert [g.coefficient(k) for k in range(5)] == [0, 1, 1, 2, 5]
    oracle = reversion_by_substitution(f, 5)
    assert [oracle.coefficient(k) for k in range(5)] == [0, 1, 1, 2, 5]


def test_reversion_tree_function():
    # x = z exp(-s z): [x^mu] z(x) = mu^(mu-1) s^(mu-1) / mu!
    ring = WeightPolyRing(1)
    s = WeightPolynomial.s(1)
    order = 7
    z = Series.identity(ring, "z", order)
    f = z * z.scale(s).scale(-1).exp()
    g = f.reversion()
    from math import factorial

    for mu in range(1, order):
        expected = WeightPolynomial.monomial(
            (0,), mu - 1, Fraction(mu ** (mu - 1), factorial(mu)), 1
        )
        assert g.coefficient(mu) == expected


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-7, max_value=7, max_denominator=5), min_size=0, max_size=4))
def test_reversion_round_trip(tail):
    f = qseries([0, 1] + tail)
    g = f.reversion()
    back = f.compose(g)
    for k in range(back.order):
        assert back.coefficient(k) == (1 if k == 1 else 0)


def test_reversion_rejects_zero_linear_part():
    f = qseries([0, 0, 1, 1])
    with pytest.raises(AlgebraError):
        f.reversion()


def test_numeric_reversion_matches_exact_at_order_24():
    # Lagrange inversion over mpc at 256 bits against the same inversion
    # over Q, on a rational series with mixed signs and denominators
    rng = random.Random(24)
    coeffs = [0, Fraction(3, 2)] + [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                     for _ in range(22)]
    exact = qseries(coeffs).reversion()
    ring = ComplexRing(256)
    with mpmath.workprec(256):
        g = Series.from_coeffs(ring, "z", coeffs, 24).reversion()
        want = [ring.from_rational(exact.coefficient(k)) for k in range(24)]
        top = max(abs(c) for c in want)
        assert (g.lo, g.order) == (0, 24)
        for k in range(24):
            assert abs(g.coefficient(k) - want[k]) <= top * mpmath.mpf(2) ** -240, k


def test_reversion_is_one_inverse_and_n_minus_2_products(monkeypatch):
    calls = {"mul": 0, "inverse": 0}
    mul, inverse = Series.__mul__, Series.inverse

    def counting_mul(a, b):
        calls["mul"] += 1
        return mul(a, b)

    def counting_inverse(a):
        calls["inverse"] += 1
        return inverse(a)

    monkeypatch.setattr(Series, "__mul__", counting_mul)
    monkeypatch.setattr(Series, "inverse", counting_inverse)
    ring = ComplexRing(256)
    with mpmath.workprec(256):
        for order in (2, 3, 12):
            calls.update(mul=0, inverse=0)
            Series.from_coeffs(ring, "z", [0, 2, 1, Fraction(-1, 3)], order).reversion()
            assert calls == {"mul": order - 2, "inverse": 1}, order


# ----------------------------------------------------------------------
# residue and calculus


def test_residue_reads_minus_one():
    # the residue is coefficient(-1): an exact zero below the window, and
    # an error when u^-1 lies past it
    assert qseries([1], lo=-1).coefficient(-1) == 1
    assert qseries([3, 1, 1]).coefficient(-1) == 0
    u = qseries([5, 7, 0, 0], lo=-2)  # u^-2 (5 + 7u)
    assert u.coefficient(-1) == 7
    with pytest.raises(TruncationError):
        u.truncate(-1).coefficient(-1)
    with pytest.raises(TruncationError):
        qseries([5], lo=-2).coefficient(-1)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=1, max_size=6),
    st.integers(-3, 1),
)
def test_residue_of_derivative_vanishes(coeffs, lo):
    # the residue of a derivative is 0 wherever u^-1 lies in its window;
    # past the window it is unknown and reading it raises
    d = qseries(coeffs, lo=lo).derivative()
    if d.order > -1:
        assert d.coefficient(-1) == 0
    else:
        with pytest.raises(TruncationError):
            d.coefficient(-1)


def test_derivative_windows():
    # a power series drops the exact zero its constant term maps to
    d = qseries([3, 2, 5]).derivative()
    assert (d.lo, d.order, d.coeffs) == (0, 2, [2, 10])
    # a Laurent series, or one starting above exponent 0, moves lo down one
    d = qseries([3, 0, 2], lo=-4).derivative()
    assert (d.lo, d.order, d.coeffs) == (-5, -2, [-12, 0, -4])
    d = qseries([1, 1], lo=2).derivative()
    assert (d.lo, d.order, d.coeffs) == (1, 3, [2, 3])
    # narrow windows stay valid: a lone constant, and no coefficient at all
    d = qseries([7]).derivative()
    assert (d.lo, d.order, d.coeffs) == (0, 0, [])
    d = Series.zero(QQ, "z", 0).derivative()
    assert (d.lo, d.order, d.coeffs) == (-1, -1, [])


# ----------------------------------------------------------------------
# composition, numeric ring, nesting


def test_compose_polynomial_case():
    f = qseries([0, 0, 1, 1])  # z^2 + z^3
    g = qseries([0, 1, 1, 0])  # z + z^2
    h = f.compose(g)
    # (z + z^2)^2 + (z + z^2)^3 = z^2 + 2z^3 + ...
    assert h.coefficient(2) == 1
    assert h.coefficient(3) == 3


def test_compose_laurent_outer():
    f = qseries([1], lo=-2, order=2)  # z^-2
    g = qseries([0, 1, 1, 0, 0])  # z + z^2
    h = f.compose(g)
    assert h.coefficient(-2) == 1
    assert h.coefficient(-1) == -2


def naive_compose(f_coeffs, f_lo, g_coeffs):
    """sum_k f_k g^k over dense exact polynomials (g from exponent 0), for
    tests only."""
    out = {}
    power = [Fraction(1)]
    for e in range(f_lo + len(f_coeffs)):
        if e >= f_lo:
            for i, c in enumerate(power):
                out[i] = out.get(i, 0) + f_coeffs[e - f_lo] * c
        nxt = [Fraction(0)] * (len(power) + len(g_coeffs) - 1)
        for i, a in enumerate(power):
            for j, b in enumerate(g_coeffs):
                nxt[i + j] += a * b
        power = nxt
    return out


fractions_ = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.lists(fractions_, min_size=1, max_size=7), st.integers(0, 2),
       st.sampled_from([1, 2]), st.booleans(),
       st.lists(fractions_, min_size=1, max_size=6),
       st.lists(fractions_, min_size=1, max_size=3),
       st.lists(fractions_, min_size=1, max_size=3))
# outer with a zero u^1 coefficient, as x(a+u) has at a branch point
@example([1, 0, 1, 1, 1], 0, 1, True, [1, 2, 3], [1], [1])
# outer constant term added to an accumulator starting at exponent 2
@example([Fraction(-3, 2), 0, 2, 1], 0, 2, True, [1, -1], [2], [1])
@example([Fraction(-3, 2), 0, 2, 1], 0, 2, False, [1, -1], [2], [1])
def test_compose_matches_power_sum(f_coeffs, f_lo, val, zero_head, g_tail,
                                   f_extra, g_extra):
    # inner of valuation `val`, stored with or without its zero head; the
    # trusted window must not depend on the unknown tails of either series
    g_tail = [Fraction(1) + abs(g_tail[0])] + g_tail[1:]
    g_lo = 0 if zero_head else val
    g = Series(QQ, "z", g_lo, [Fraction(0)] * (val - g_lo) + g_tail, val + len(g_tail))
    f = qseries(f_coeffs, lo=f_lo)
    h = f.compose(g)
    window = min(g.order, f.order * val)
    # a stored zero head keeps the window the full-width product gives
    assert h.order == window if zero_head else h.order >= window
    ref = naive_compose(f_coeffs + f_extra, f_lo,
                        [Fraction(0)] * val + g_tail + g_extra)
    for e in range(h.order):
        assert h.coefficient(e) == ref.get(e, 0), e


@pytest.mark.parametrize("zero_head", [True, False])
def test_compose_nested_ring_matches_power_sum(zero_head):
    # coefficients are series in t; the outer constant term is stored
    # wider than the ring's window and must come out cut to it, as a sum
    # through Series.__add__ gives
    ring = SeriesRing(QQ, "t", 3)

    def t_series(values, order=3):
        return Series.from_coeffs(QQ, "t", values, order)

    f = Series(ring, "z", 0, [t_series([2, 1, 0, 5], order=4), t_series([]),
                              t_series([1, -1]), t_series([0, 3])], 4)
    tail = [t_series([1, 2]), t_series([-1]), t_series([0, 0, 1])]
    g_lo = 0 if zero_head else 1
    g = Series(ring, "z", g_lo, [ring.zero] * (1 - g_lo) + tail, 4)
    h = f.compose(g)
    ref = Series.zero(ring, "z", g.order)
    power = Series.constant(ring, "z", ring.one, g.order)
    for c in f.coeffs:
        ref = ref + power.scale(c)
        power = power * g
    assert (h.lo, h.order) == (0, 4)
    for e in range(h.order):
        got, want = h.coefficient(e), ref.coefficient(e)
        assert (got.lo, got.order) == (want.lo, want.order) == (0, 3), e
        assert got == want, e


def test_numeric_ring_against_exact():
    ring = ComplexRing(128)
    with mpmath.workprec(128):
        f = Series.from_coeffs(ring, "z", [0, 1, Fraction(-1)], 8)
        g = f.reversion()
        exact = qseries([0, 1, -1, 0, 0, 0, 0, 0]).reversion()
        for k in range(8):
            assert abs(g.coefficient(k) - ring.from_rational(exact.coefficient(k))) < mpmath.mpf(2) ** -100


# ----------------------------------------------------------------------
# ComplexRing products: exact convolution, rounded once per part


def _exact(x) -> Fraction:
    """The mpf x as the rational man * 2**exp."""
    sign, man, exp, _ = x._mpf_
    value = Fraction(-man if sign else man)
    return value * 2 ** exp if exp >= 0 else value / 2 ** -exp


def _rounded_product(a, b, n):
    """Raw parts of the first n coefficients of a*b: the exact rational
    convolution, each part then rounded to nearest by mpmath."""
    ea = [(_exact(mpmath.re(c)), _exact(mpmath.im(c))) for c in a]
    eb = [(_exact(mpmath.re(c)), _exact(mpmath.im(c))) for c in b]
    out = []
    for k in range(n):
        re = im = Fraction(0)
        for i in range(max(0, k - len(eb) + 1), min(k + 1, len(ea))):
            (ar, ai), (br, bi) = ea[i], eb[k - i]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
        out.append(tuple(mpmath.fdiv(q.numerator, q.denominator)._mpf_
                         for q in (re, im)))
    return out


def _coefficient(prec):
    """Raw (man, exp) parts of an mpc, or of an mpf when the flag is set:
    full-width mantissas, exponents spread over 400 bits, exact zeros."""
    part = st.one_of(st.just((0, 0)), st.tuples(
        st.integers(-(2 ** prec - 1), 2 ** prec - 1), st.integers(-200, 200)))
    return st.tuples(part, part, st.booleans())


def _make(raw):
    """The coefficient of raw parts; exact when the mantissas fit the
    working precision."""
    (m1, e1), (m2, e2), real = raw
    if real:
        return mpmath.ldexp(m1, e1)
    return mpmath.mpc(mpmath.ldexp(m1, e1), mpmath.ldexp(m2, e2))


def _series(ring, lo, coeffs, var="u"):
    return Series(ring, var, lo, coeffs, lo + len(coeffs))


def _convolve(ring, a, b, n):
    """The first n coefficients of the product of the mpc lists a and b."""
    fixed = series_module._fixed_point
    return ring.convolve_fixed(fixed(a), fixed(b), n)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([256, 512]), st.data())
def test_complex_product_correctly_rounded(prec, data):
    draw = data.draw
    raws = [draw(st.lists(_coefficient(prec), max_size=10)) for _ in "ab"]
    zeros = [draw(st.booleans()) for _ in "ab"]
    los = [draw(st.integers(-3, 2)) for _ in "ab"]
    n = draw(st.integers(0, 12))
    ring = ComplexRing(prec)
    with mpmath.workprec(prec):
        a, b = (_series(ring, lo, [mpmath.mpc(0)] * len(raw) if zero
                        else [_make(r) for r in raw])
                for lo, raw, zero in zip(los, raws, zeros))
        prod = a * b
        direct = _convolve(ring, a.coeffs, b.coeffs, n)
        want = _rounded_product(a.coeffs, b.coeffs, max(n, len(prod.coeffs)))
    order = min(a.lo + b.order, b.lo + a.order)
    assert (prod.lo, prod.order) == (min(a.lo + b.lo, order), order)
    assert [c._mpc_ for c in prod.coeffs] == want[: len(prod.coeffs)]
    assert [c._mpc_ for c in direct] == want[:n]


def test_complex_product_wide_spread_laurent():
    # magnitudes 2**-300 .. 2**300, exact zeros inside the windows, a
    # Laurent window, unequal lengths, n below both lengths, and the whole
    # product of the two lists
    prec = 256
    ring = ComplexRing(prec)
    with mpmath.workprec(prec):
        a = [mpmath.mpc(mpmath.ldexp(3 ** 160, e), mpmath.ldexp(-(5 ** 100), -e))
             for e in (-300, 0, 300)] + [mpmath.mpc(0), mpmath.mpf(1) / 3]
        b = [mpmath.mpc(0), mpmath.mpc(mpmath.ldexp(7 ** 90, 250), 1),
             mpmath.mpc(0, mpmath.ldexp(-1, -299)), mpmath.mpc(1) / 7,
             mpmath.mpc(0), mpmath.mpc(mpmath.mpf(2) / 3, mpmath.mpf(-5) / 9),
             mpmath.mpc(1)]
        prod = _series(ring, -2, a) * _series(ring, 1, b)
        short = _convolve(ring, a, b, 3)
        full = _convolve(ring, a, b, len(a) + len(b) - 1)
        want = _rounded_product(a, b, len(a) + len(b) - 1)
    assert (prod.lo, prod.order) == (-1, 4)
    assert [c._mpc_ for c in prod.coeffs] == want[:len(a)]
    assert [c._mpc_ for c in short] == want[:3]
    assert [c._mpc_ for c in full] == want


@pytest.mark.parametrize("prec", [256, 512])
@pytest.mark.parametrize("alternating", [False, True])
def test_complex_product_slot_width_worst_case(prec, alternating):
    # every part at full mantissa on one exponent: the slots of
    # (Ar+Ai)(Br+Bi) reach the size the slot width is chosen for
    n = 33
    top = 2 ** prec - 1
    with mpmath.workprec(prec):
        coeffs = [_make(((s * top, -prec), (s * top, -prec), False))
                  for s in ((-1) ** k if alternating else 1 for k in range(n))]
        assert all(c.real._mpf_[3] == c.imag._mpf_[3] == prec for c in coeffs)
        prod = _series(ComplexRing(prec), 0, coeffs) * _series(ComplexRing(prec), 0, coeffs)
        want = _rounded_product(coeffs, coeffs, n)
    assert [c._mpc_ for c in prod.coeffs] == want


def _mantissas(prec, rng):
    """Unsigned mantissas for the rounding helper: zero, bit lengths below,
    at and above prec, exact ties with an even and an odd kept part, ties
    broken by a sticky bit, and all-ones values that carry into a new bit."""
    out = [0, 1, 2, 3, (1 << prec) - 1, 1 << prec, (1 << prec) + 1]
    for bits in (1, 2, 63, prec - 1, prec, prec + 1, prec + 2, prec + 61, 2 * prec + 7):
        out += [rng.getrandbits(bits) | (1 << (bits - 1)) for _ in range(25)]
    for drop in (1, 2, 3, 17, 64, 301):
        for _ in range(10):
            even = (1 << (prec - 1)) | (rng.getrandbits(prec - 1) & ~1)
            for kept in (even, even | 1, (1 << prec) - 1):
                tie = (kept << drop) | (1 << (drop - 1))
                out += [tie, tie - 1, tie + 1]  # tie, just below, sticky above
    out += [(1 << (prec + extra)) - 1 for extra in (1, 2, 7, 64)]
    return out


@pytest.mark.parametrize("prec", [256, 288, 512, 544])
def test_rounded_matches_from_man_exp(prec):
    rng = random.Random(prec)
    for v in _mantissas(prec, rng):
        for signed in (v, -v):
            for e in (-700, -prec, 0, 5):
                want = from_man_exp(signed, e, prec, round_nearest)
                assert series_module._rounded(signed, e, prec) == want, (signed, e)


def test_product_with_memoized_operands_matches_fresh_convolution(monkeypatch):
    # a series keeps its fixed-point form after its first product; later
    # products, also narrower ones that read a prefix of that form, keep
    # the bits of a convolution of fresh copies of the lists
    rng = random.Random(3)
    ring = ComplexRing(256)

    def coeffs(n):
        return [mpmath.mpc(rng.uniform(-1, 1), rng.uniform(-1, 1)) * mpmath.mpf(2) ** rng.randint(-40, 40)
                for _ in range(n)]

    with mpmath.workprec(256):
        a, b, c = _series(ring, 0, coeffs(9)), _series(ring, 1, coeffs(6)), _series(ring, -2, coeffs(12))
        for x, y in ((a, b), (b, c), (a, c)):
            x * y
        conversions = []
        fixed_point = series_module._fixed_point
        monkeypatch.setattr(series_module, "_fixed_point",
                            lambda values: conversions.append(1) or fixed_point(values))
        products = [(x, y, x * y) for x, y in ((a, b), (c, b), (b, c), (a, c), (c, a), (a, a))]
        assert not conversions
        for x, y, p in products:
            want = _convolve(ring, list(x.coeffs), list(y.coeffs), len(p.coeffs))
            assert [z._mpc_ for z in p.coeffs] == [z._mpc_ for z in want]
    assert min(len(c.coeffs), len(a.coeffs)) > len((b * c).coeffs)


def test_compose_shares_the_powers_of_its_inner(monkeypatch):
    # compositions with one inner build each power of it once, as products
    # by the inner itself; a frame build composes omega_{0,1}, sigma and x
    # with sigma and builds no power of sigma twice
    products = []
    mul = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    ring = ComplexRing(256)
    with mpmath.workprec(256):
        outer = Series.from_coeffs(ring, "z", list(range(1, 11)), 10)
        inner = Series.from_coeffs(ring, "u", [0] + [Fraction(1, k) for k in range(1, 10)], 10)
        first = outer.compose(inner)
        assert [b is inner for _, b in products] == [True] * 8  # inner**2 .. inner**9
        again, other = outer.compose(inner), outer.scale(3).truncate(7).compose(inner)
        assert len(products) == 8
        assert [c._mpc_ for c in again.coeffs] == [c._mpc_ for c in first.coeffs]
        assert (other.lo, other.order) == (0, 7)
        square = inner.pow_int(2)
    # a new working precision starts a new chain
    with mpmath.workprec(512):
        wide = inner.pow_int(2)
        assert wide is not square and len(products) == 9
        assert [c._mpc_ for c in wide.coeffs] == [c._mpc_ for c in mul(inner, inner).coeffs]
    products.clear()
    curve = SpectralCurve(CurveSpec.make(2, [1, 1], Fraction(1, 10), precision=256))
    curve.frames(9)
    for frame in curve._frames:
        left = [a for a, b in products if b is frame.sigma]
        assert left and len({id(a) for a in left}) == len(left), frame.index
        assert len(left) == len(frame.sigma._powers[1]) - 1, frame.index


def _power_sum_parts(f, g, h):
    """Raw parts of the coefficients of h = f.compose(g), f with lo >= 0:
    the exact sum of f's coefficients times those of g.pow_int(k), each
    part rounded once."""
    out = []
    for e in range(h.lo, h.order):
        re = im = Fraction(0)
        for k in range(f.lo, f.order):
            c = f.coefficient(k)
            if not c:
                continue
            x = (1 if e == 0 else 0) if k == 0 else g.pow_int(k).coefficient(e)
            (cr, ci), (xr, xi) = _complex_exact(mpmath.mpc(c)), _complex_exact(mpmath.mpc(x))
            re, im = re + cr * xr - ci * xi, im + cr * xi + ci * xr
        out.append((_rounded_fraction(re), _rounded_fraction(im)))
    return out


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([64, 256]), st.data())
def test_compose_power_sum_rounded_once(prec, data):
    # each coefficient of a numeric composition is the exact sum of the
    # outer coefficients times the coefficients of the same pow_int powers
    # of the inner, rounded once.  A Laurent outer is that sum for the
    # outer times var**-lo, times inner.pow_int(lo).  c z - c z^2 of an
    # inner u + u^2 + .. cancels to an exact 0 at u^2, and a nan outer
    # coefficient raises
    draw = data.draw
    # pseudo-random mantissas of full width, on one scale, make products
    # and sums round; _coefficient adds wide exponent spreads and exact zeros
    mantissa = st.integers(0, 2 ** 32).map(
        lambda seed: random.Random(seed).getrandbits(prec - 1) | 2 ** (prec - 1))
    part = st.tuples(mantissa, st.sampled_from([1, -1])).map(lambda t: (t[0] * t[1], -prec))
    full = st.tuples(part, part, st.just(False))
    coefficient = st.one_of(full, _coefficient(prec)).map(_make)
    ring = ComplexRing(prec)
    with mpmath.workprec(prec):
        val, zero_head = draw(st.integers(1, 2)), draw(st.booleans())
        tail = draw(st.lists(coefficient, min_size=2, max_size=6))
        tail[0] = tail[0] or mpmath.mpc(1)
        g_lo = 0 if zero_head else val
        g = Series(ring, "u", g_lo, [ring.zero] * (val - g_lo) + tail, val + len(tail))
        f_lo = draw(st.integers(-2, 2))
        f_coeffs = draw(st.lists(st.just(ring.zero) | coefficient, min_size=3, max_size=7))
        f = _series(ring, f_lo, f_coeffs, var="zeta")
        h = f.compose(g)
        stripped = f.strip_leading(ring.is_zero)
        if stripped.lo < 0:
            s = stripped.shift(-stripped.lo).compose(g)
            want = (s * g.pow_int(stripped.lo)).truncate(stripped.order * val)
            assert (h.lo, h.order) == (want.lo, want.order)
            assert [c._mpc_ for c in h.coeffs] == [c._mpc_ for c in want.coeffs]
            f, h = stripped.shift(-stripped.lo), s
        assert [c._mpc_ for c in h.coeffs] == _power_sum_parts(f, g, h)
        c = f_coeffs[-1] or mpmath.mpc(1)
        f = _series(ring, 0, [ring.zero, c, -c], "zeta")
        g = Series(ring, "u", 0, [ring.zero, ring.one, ring.one] + tail, 3 + len(tail))
        h = f.compose(g)
        assert h.coefficient(2)._mpc_ == mpmath.mpc(0)._mpc_
        assert [c._mpc_ for c in h.coeffs] == _power_sum_parts(f, g, h)
        k = draw(st.integers(0, len(f_coeffs) - 1))
        broken = _series(ring, f_lo, f_coeffs[:k] + [mpmath.mpc("nan")] + f_coeffs[k + 1:], "zeta")
        with pytest.raises(ArithmeticError, match="non-finite.*zeta"):
            broken.compose(g)


@pytest.mark.parametrize("coeffs, lo", [([2, 1, -1, 3], -2), ([1, Fraction(1, 2), 0, -1, 5], 0),
                                        ([0, 3, 1, Fraction(-2, 3)], 0), ([1, -1, 2], 2)])
def test_pow_int_matches_naive_products(coeffs, lo):
    # a base at lo = -2, at 0 with a unit constant and with a stored zero
    # head, and at 2; negative exponents power the inverse.  base**k has
    # the window [k lo, k lo + order - lo) and is the naive product of k
    # copies; base**0 is 1 on [0, max(order - lo, 1)).  The negative
    # powers are those of one inverse kept on the base
    base = qseries(coeffs, lo=lo)
    for k in range(-3, 7):
        power = base.pow_int(k)
        if k == 0:
            n = max(base.order - base.lo, 1)
            assert (power.lo, power.order, power.coeffs) == (0, n, [1] + [0] * (n - 1))
            continue
        b = base if k > 0 else base.inverse()
        n = b.order - b.lo
        want = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(abs(k)):
            want = [sum(want[i] * b.coeffs[j - i] for i in range(j + 1)) for j in range(n)]
        assert (power.lo, power.order) == (abs(k) * b.lo, abs(k) * b.lo + n), k
        assert power.coeffs == want, k
    assert base.pow_int(5) is base.pow_int(5) and base.pow_int(1) is base
    assert base.pow_int(-3) is base.pow_int(-1).pow_int(3)  # one kept inverse


@pytest.mark.parametrize("bad", [mpmath.mpc("nan"), mpmath.mpc(1, mpmath.inf),
                                 mpmath.mpc(-mpmath.inf, 0), mpmath.mpf("nan")])
def test_complex_product_rejects_non_finite(bad):
    ring = ComplexRing(256)
    finite = Series(ring, "zeta", 0, [mpmath.mpc(1), mpmath.mpc(2, 3)], 2)
    broken = Series(ring, "zeta", 0, [mpmath.mpc(1), bad], 2)
    for left, right in ((finite, broken), (broken, finite)):
        with pytest.raises(ArithmeticError, match="non-finite.*zeta"):
            left * right


# ----------------------------------------------------------------------
# _to_mpc: an exact sum of products, rounded once per part


def _rounded_fraction(q):
    """The raw mpf tuple of the rational q rounded to nearest at the
    working precision."""
    return mpmath.fdiv(q.numerator, q.denominator)._mpf_


def _rounded_sum(pairs, divisor=1):
    """Raw parts of sum x[k] * y[k] over the pairs of mpc lists, divided
    by the divisor: exact rationals, each part then rounded by mpmath."""
    re = im = Fraction(0)
    for xs, ys in pairs:
        for x, y in zip(xs, ys):
            (xr, xi), (yr, yi) = ((_exact(mpmath.re(v)), _exact(mpmath.im(v))) for v in (x, y))
            re += xr * yr - xi * yi
            im += xr * yi + xi * yr
    return _rounded_fraction(re / divisor), _rounded_fraction(im / divisor)


def _dot(pairs, divisor=1):
    """sum x[k] * y[k] over the pairs of mpc lists, divided by the divisor:
    one exact `_fixed_sum` of each x[k] times the one-slot list y[k], each
    sum stopping at the shorter list, rounded once by `_to_mpc`."""
    fixed = series_module._fixed_point
    terms = [((fx[0][0], fx[1][0], fx[2]), fixed([y]))
             for xs, ys in pairs for x, y in zip(xs, ys) for fx in [fixed([x])] if fx]
    re, im, e = series_module._fixed_sum(terms)
    return series_module._to_mpc(sum(re), sum(im), e, divisor)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([64, 256]), st.data())
def test_to_mpc_rounds_exact_sum_once(prec, data):
    # full-width mantissas with exponents over 400 bits, exact zeros, real
    # and complex values, lists of unequal lengths, a divisor that is 1, a
    # power of two or neither; with `cancel` every pair comes back negated,
    # so the exact sum is zero and the result must be an exact zero
    draw = data.draw
    raws = [(draw(st.lists(_coefficient(prec), max_size=8)),
             draw(st.lists(_coefficient(prec), max_size=8)))
            for _ in range(draw(st.integers(1, 3)))]
    divisor = draw(st.one_of(st.just(1), st.sampled_from([2, 3, 10, 2 ** 70 + 1]),
                             st.integers(1, 10 ** 6)))
    cancel = draw(st.booleans())
    with mpmath.workprec(prec):
        pairs = [([_make(r) for r in xs], [_make(r) for r in ys]) for xs, ys in raws]
        if cancel:
            pairs += [(xs, [-y for y in ys]) for xs, ys in pairs]
        got = _dot(pairs, divisor)
        want = _rounded_sum(pairs, divisor)
    assert got._mpc_ == want
    if cancel:
        assert got._mpc_ == mpmath.mpc(0)._mpc_


def test_to_mpc_wide_spread_and_cancellation():
    # terms from 2**-600 to 2**600 in one sum, a divisor with a remainder,
    # a sum whose large terms cancel exactly, leaving the 2**-600 term, one
    # that cancels to zero, and the empty sum
    with mpmath.workprec(256):
        big = mpmath.mpc(mpmath.ldexp(3 ** 150, 300), mpmath.ldexp(-(5 ** 100), 2))
        tiny = mpmath.mpc(mpmath.ldexp(7 ** 80, -600), mpmath.ldexp(1, -300))
        third = mpmath.mpc(1) / 3
        cases = [([([big, tiny, third], [tiny, big, mpmath.mpc(0, 1)])], 7),
                 ([([big, tiny], [third, third]), ([big], [-third])], 1),
                 ([([big, tiny], [third, tiny]), ([big, tiny], [-third, -tiny])], 3)]
        for pairs, divisor in cases:
            got = _dot(pairs, divisor)
            assert got._mpc_ == _rounded_sum(pairs, divisor)
        assert _dot(cases[1][0])._mpc_ == (tiny * third)._mpc_
        assert _dot(cases[2][0], 3)._mpc_ == mpmath.mpc(0)._mpc_
        assert _dot([])._mpc_ == series_module._to_mpc(0, 0, 0)._mpc_ == mpmath.mpc(0)._mpc_


def _complex_exact(c):
    return _exact(mpmath.re(c)), _exact(mpmath.im(c))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([64, 256]), st.data())
def test_fixed_sum_exact_then_rounded_once(prec, data):
    # sum x * v over scalars x and lists v of unequal lengths (a shorter
    # list counts as zero-padded), exact against Fraction sums of the same
    # rounded inputs; the result is fed back once as a list, as the TR
    # contraction does, and each slot rounds once with _rounded.  With
    # `cancel` every term comes back negated, so every slot is exactly 0
    draw = data.draw
    fixed = series_module._fixed_point
    cancel = draw(st.booleans())
    with mpmath.workprec(prec):
        terms = [(_make(draw(_coefficient(prec))),
                  [_make(r) for r in draw(st.lists(_coefficient(prec), min_size=1, max_size=7))])
                 for _ in range(draw(st.integers(1, 4)))]
        if cancel:
            terms += [(-x, v) for x, v in terms]
        outer = _make(draw(_coefficient(prec)))
        length = max(len(v) for _, v in terms)
        want = []
        for k in range(length):
            re = im = Fraction(0)
            for x, v in terms:
                if k < len(v):
                    (xr, xi), (vr, vi) = _complex_exact(x), _complex_exact(v[k])
                    re, im = re + xr * vr - xi * vi, im + xr * vi + xi * vr
            want.append((re, im))
        # an all-zero list is None, and counts as zero
        inputs = [((fx[0][0], fx[1][0], fx[2]), fv)
                  for fx, fv in ((fixed([x]), fixed(v)) for x, v in terms) if fx]
        got = re, im, e = series_module._fixed_sum(inputs)
        assert len(re) == len(im) == max((len(fv[0]) for _, fv in inputs if fv), default=0)
        scale = Fraction(2) ** e
        padded = list(zip(re, im)) + [(0, 0)] * (length - len(re))
        assert [(r * scale, i * scale) for r, i in padded] == want
        for (r, i), (wr, wi) in zip(zip(re, im), want):
            assert (series_module._rounded(r, e, prec), series_module._rounded(i, e, prec)) \
                == (_rounded_fraction(wr), _rounded_fraction(wi))
        if cancel:
            assert not any(re) and not any(im)
        fo = fixed([outer])
        if fo:
            (ore, oim, oe) = series_module._fixed_sum([((fo[0][0], fo[1][0], fo[2]), got)])
            (xr, xi), oscale = _complex_exact(outer), Fraction(2) ** oe
            assert [(r * oscale, i * oscale) for r, i in zip(ore, oim)] == [
                (xr * wr - xi * wi, xr * wi + xi * wr) for wr, wi in want[:len(re)]]
    assert series_module._fixed_sum([]) == ([], [], 0)


def _fraction_recurrence(op, f):
    """The coefficients of 1/f (lo = 0) or of exp(f) from the list f of
    Fractions, by the schoolbook recurrence in Fractions: the reference
    that runs no package code."""
    n = len(f)
    if op == "inverse":
        out = [1 / f[0]]
        for m in range(1, n):
            out.append(-sum(f[k] * out[m - k] for k in range(1, m + 1)) / f[0])
        return out
    out = [Fraction(1)]
    for m in range(1, n):
        out.append(sum(k * f[k] * out[m - k] for k in range(1, m + 1)) / m)
    return out


@pytest.mark.parametrize("prec", [64, 256])
@pytest.mark.parametrize("op", ["inverse", "exp"])
def test_numeric_recurrences_against_exact(op, prec):
    # rational inputs, a Fraction recurrence as reference.  Bound per
    # coefficient: |numeric_k - exact_k| <= 2**-(prec-10) times the largest
    # |exact_j|, j <= k.  Rounding errors of earlier coefficients feed later
    # ones; on these inputs the worst is about 85 units of 2**-prec of that
    # scale (inverse), and the schoolbook loops, each product and sum
    # rounded, meet the bound too (worst about 47).
    ring = ComplexRing(prec)
    worst = Fraction(0)
    for seed in range(20):
        rng = random.Random(seed)
        values = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(24)]
        values[0] = {"inverse": Fraction(rng.randint(1, 9), rng.randint(1, 9)),
                     "exp": Fraction(0)}[op]
        exact = _fraction_recurrence(op, values)
        with mpmath.workprec(prec):
            numeric = getattr(Series.from_coeffs(ring, "z", values, 24), op)()
        assert (numeric.lo, numeric.order) == (0, 24)
        scale = Fraction(0)
        for k in range(24):
            want, got = exact[k], numeric.coefficient(k)
            scale = max(scale, abs(want))
            error = abs(_exact(got.real) - want) + abs(_exact(got.imag))
            worst = max(worst, error / scale * 2 ** prec)
    assert worst <= 2 ** 10, float(worst)


def _complex_product(x, y):
    (xr, xi), (yr, yi) = x, y
    return xr * yr - xi * yi, xr * yi + xi * yr


@pytest.mark.parametrize("prec", [64, 256])
@pytest.mark.parametrize("op", ["inverse", "exp"])
def test_numeric_recurrences_round_each_coefficient_once(op, prec):
    # each c_m of the numeric inverse and exp is the exact sum of
    # a_k c_(m-k), 0 < k <= m, over the already-rounded c_0 .. c_(m-1),
    # divided by d_m and rounded once per part: a_k = -c_k / c_0 with 1/c_0
    # rounded first and d_m = 1 for the inverse, a_k = k f_k and d_m = m
    # for exp.  Inputs are full-width real and complex values with exponent
    # spreads, exact zeros and, for the inverse, a Laurent lo and a stored
    # zero head
    ring = ComplexRing(prec)
    with mpmath.workprec(prec):
        for seed in range(12):
            rng = random.Random(seed)
            n = rng.randint(1, 14)
            raws = [((rng.randint(-(2 ** prec - 1), 2 ** prec - 1), rng.randint(-70, 70)),
                     (rng.randint(-(2 ** prec - 1), 2 ** prec - 1), rng.randint(-70, 70)),
                     rng.random() < 0.3) for _ in range(n)]
            coeffs = [ring.zero if rng.random() < 0.2 else _make(r) for r in raws]
            if op == "inverse":
                coeffs[0] = coeffs[0] or mpmath.mpc(1, -3)
                lo, head = rng.randint(-3, 3), rng.randint(0, 2)
                f = _series(ring, lo, [ring.zero] * head + coeffs, var="zeta")
            else:
                coeffs[0] = ring.zero
                f = _series(ring, 0, coeffs, var="zeta")
            c = getattr(f, op)()
            parts = [_complex_exact(mpmath.mpc(x)) for x in coeffs]
            if op == "inverse":
                assert (c.lo, c.order) == (-lo - head, -lo - head + n)
                assert mpmath.mpc(c.coeffs[0])._mpc_ == mpmath.mpc(1 / coeffs[0])._mpc_
                inv0 = _complex_exact(mpmath.mpc(c.coeffs[0]))
                a = [_complex_product((-x, -y), inv0) for x, y in parts[1:]]
                divisor = [1] * n
            else:
                assert (c.lo, c.order) == (0, n) and c.coeffs[0]._mpc_ == ring.one._mpc_
                a = [(k * x, k * y) for k, (x, y) in enumerate(parts[1:], 1)]
                divisor = range(n)
            out = [_complex_exact(mpmath.mpc(x)) for x in c.coeffs]
            for m in range(1, n):
                terms = [_complex_product(a[k - 1], out[m - k]) for k in range(1, m + 1)]
                re, im = sum(t[0] for t in terms), sum(t[1] for t in terms)
                want = (_rounded_fraction(re / divisor[m]), _rounded_fraction(im / divisor[m]))
                assert c.coeffs[m]._mpc_ == want, (seed, m)


fraction_lists = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                          min_size=0, max_size=6)


@settings(max_examples=40, deadline=None)
@given(st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
       fraction_lists, st.integers(-3, 3), st.booleans())
def test_series_times_its_inverse_is_one(head, tail, lo, weighted):
    # over RationalRing and over WeightPolyRing (a unit head, a tail of
    # weight polynomials), with a Laurent lo: f * f.inverse() is exactly 1
    # on the window [0, order - lo)
    if weighted:
        ring = WeightPolyRing(2)
        q1, s = WeightPolynomial.q(1, 2), WeightPolynomial.s(2)
        gens = [q1, s, q1 * s, q1 * q1 - s]
        coeffs = [ring.from_rational(head)] + [gens[k % 4].scale(c) for k, c in enumerate(tail)]
    else:
        ring, coeffs = QQ, [head] + tail
    f = Series(ring, "z", lo, coeffs, lo + len(coeffs))
    product = f * f.inverse()
    assert (product.lo, product.order) == (0, len(coeffs))
    assert product == Series.constant(ring, "z", ring.one, len(coeffs))


@pytest.mark.parametrize("bad", [mpmath.mpc("nan"), mpmath.mpc(1, mpmath.inf)])
def test_exact_sums_reject_non_finite(bad, monkeypatch, capsys):
    # as products do: the recurrences raise, and so does a TR step whose
    # lower form holds a non-finite coefficient, so tr-verify exits 3 and
    # never reports a verdict
    ring = ComplexRing(256)
    one = mpmath.mpc(1)
    with pytest.raises(ArithmeticError, match="non-finite"):
        series_module._fixed_point([one, bad])
    for head, call in ((one, Series.inverse), (mpmath.mpc(0), Series.exp)):
        with pytest.raises(ArithmeticError, match="non-finite.*zeta"):
            call(Series(ring, "zeta", 0, [head, bad], 2))

    engine = RecursionEngine(SpectralCurve(CurveSpec.make(2, [1, 1], Fraction(1, 10))))
    lower = engine.form(0, 3)
    lower.coeffs[next(iter(lower.coeffs))] = bad
    with pytest.raises(ArithmeticError, match="non-finite"):
        engine.form(0, 4)

    trim = RecursionEngine._trim

    def poisoned(self, form):
        trim(self, form)
        if (form.g, form.n) == (0, 3):
            form.coeffs[next(iter(form.coeffs))] = bad

    monkeypatch.setattr(RecursionEngine, "_trim", poisoned)
    assert cli.main(["tr-verify", "--g", "0", "--n", "4", "--mu-max", "1"]) == 3
    out, err = capsys.readouterr()
    assert "FAIL" not in out and "PASS" not in out
    assert err.startswith("error: non-finite")


def test_nested_series_ring():
    inner_ring = RationalRing()
    ring = SeriesRing(inner_ring, "w", 3)
    w = Series.identity(inner_ring, "w", 3)
    f = Series.from_coeffs(ring, "z", [ring.one, w], 3)  # 1 + w z
    g = f * f
    assert g.coefficient(0) == ring.one
    assert g.coefficient(1) == w.scale(2)
    assert g.coefficient(2) == w * w


def test_poly_shifted_series():
    p = Poly(QQ, [Fraction(1), Fraction(0), Fraction(1)])  # 1 + z^2
    s = p.shifted_series(Fraction(2), "u", 4)
    # (2+u)^2 + 1 = 5 + 4u + u^2
    assert [s.coefficient(k) for k in range(4)] == [5, 4, 1, 0]
    assert p(Fraction(2)) == 5


def test_truncation_error_raised():
    f = qseries([1, 2], order=2)
    with pytest.raises(AlgebraError):
        f.coefficient(5)
