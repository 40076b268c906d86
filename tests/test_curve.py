from fractions import Fraction
from math import factorial

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from dhtr import curve as curve_module
from dhtr.curve import (
    CurveSpec,
    DegenerateCurveError,
    PhiBasis,
    SpectralCurve,
    f01_check,
    f02_check,
    invert_x_exact,
    two_point_coefficients,
    w_poly,
)
from dhtr.cutjoin import DHTable, canonical_mu
from dhtr.pruning import PruningKernel, p_series
from dhtr.series import RationalRing, Series, TruncationError
from dhtr.weightpoly import WeightPolynomial, WeightPolyRing


def curve(d, q, s, prec=192):
    return SpectralCurve(CurveSpec.make(d, q, s, precision=prec))


def test_curvespec_validation():
    with pytest.raises(ValueError):
        CurveSpec.make(2, [1, 0], 1)       # q_d = 0
    with pytest.raises(ValueError):
        CurveSpec.make(1, [1], 0)          # s = 0
    with pytest.raises(ValueError):
        CurveSpec.make(1, [1], 1, precision=32)


def test_branch_points_linear():
    c = curve(1, [1], 1)
    (a,) = c.branch_points()
    assert abs(a - 1) < mpmath.mpf(2) ** -180


def test_branch_points_quadratic():
    # s z P'(z) - 1 = 2z^2 + z - 1 for d=2, q=(1,1), s=1: roots -1 and 1/2
    c = curve(2, [1, 1], 1)
    roots = c.branch_points()
    assert abs(roots[0] + 1) < 1e-50
    assert abs(roots[1] - Fraction(1, 2)) < 1e-50


def test_default_instance_roots():
    c = curve(2, [1, 1], Fraction(1, 10), prec=256)
    roots = c.branch_points()
    assert abs(roots[0] + Fraction(5, 2)) < 1e-70
    assert abs(roots[1] - 2) < 1e-70


def test_degenerate_curve_rejected():
    # double roots of w = 1 - s z P'(z): (1 - z)^2 at q = (2, -1/2), s = 1,
    # and (1 - z/20)^2 at q = (1, -1/80), s = 1/10, the benchmark grid's
    # degenerate candidate, which pick_curve skips only on this error
    for q, s in [([2, Fraction(-1, 2)], 1), ([1, Fraction(-1, 80)], Fraction(1, 10))]:
        for prec in (192, 512):
            with pytest.raises(DegenerateCurveError):
                curve(2, q, s, prec).branch_points()


def test_newton_stops_on_zero_slope(monkeypatch):
    # w = 1 - z/10 - z^2/5 has w'(-1/4) = 0 exactly, bits included; a seed
    # there must end in the polish check, not in a division by zero
    monkeypatch.setattr(curve_module, "_seeds", lambda w: [-0.25, 2.0])
    c = curve(2, [1, 1], Fraction(1, 10), prec=256)
    with pytest.raises(ArithmeticError, match="failed to polish") as err:
        c.branch_points()
    assert err.type is ArithmeticError


def test_non_finite_seed_fails_closed(monkeypatch):
    # a NaN would pass both the separation and the residual comparisons
    monkeypatch.setattr(curve_module, "_seeds", lambda w: [float("nan"), 2.0])
    c = curve(2, [1, 1], Fraction(1, 10), prec=256)
    with pytest.raises(ArithmeticError, match="not finite"):
        c.branch_points()


def _root_bits(c):
    return [r._mpc_ for r in c.branch_points()]


@pytest.mark.parametrize("d,q,s,n_real", [
    (3, [Fraction(1, 8), 1, 9], Fraction(-1, 5), 1),
    (4, [1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)], Fraction(1, 10), 2),
])
def test_root_structure_and_seed_independence(monkeypatch, d, q, s, n_real):
    c = curve(d, q, s, prec=256)
    roots = c.branch_points()
    with mpmath.workprec(256):
        # real roots carry no imaginary noise at all; the rest are far off
        assert sum(r.imag == 0 for r in roots) == n_real
        assert all(r.imag == 0 or abs(r.imag) > 0.1 for r in roots)
        assert all(r.imag == 0 or r.conjugate() in roots for r in roots)
        for r in roots:
            assert abs(r * s * c.P.derivative()(r) - 1) < mpmath.mpf(2) ** -240
    seeds = curve_module._seeds
    for sign in (1, -1):
        def perturbed(w, sign=sign):
            return [z * (1 + sign * 1e-10 * (1 + 1j)) for z in seeds(w)]
        monkeypatch.setattr(curve_module, "_seeds", perturbed)
        assert _root_bits(curve(d, q, s, prec=256)) == _root_bits(c)


def test_recursion_on_d3_curve_with_real_root():
    from dhtr.toprec import RecursionEngine

    c = curve(3, [Fraction(1, 8), 1, 9], Fraction(-1, 5), prec=256)
    assert RecursionEngine(c).verify_conjecture(1, 1, 3).ok


def test_involution_lambert_curve():
    # x = z e^{-z}, a = 1: sigma(1+u) = 1 - u + (2/3)u^2 - (4/9)u^3 + ...
    c = curve(1, [1], 1)
    frame = c.frames(8)[0]
    with mpmath.workprec(192):
        tol = mpmath.mpf(2) ** -150
        assert abs(frame.sigma.coefficient(1) + 1) < tol
        assert abs(frame.sigma.coefficient(2) - mpmath.mpf(2) / 3) < tol
        assert abs(frame.sigma.coefficient(3) + mpmath.mpf(4) / 9) < tol


def test_involution_defining_properties():
    c = curve(2, [1, 1], Fraction(1, 10))
    for frame in c.frames(10):
        assert abs(frame.sigma.coefficient(0)) == 0
        # sigma o sigma = id and x o sigma = x hold by construction; the
        # frame constructor validates them, so reaching here means both
        # residuals were below 2^{-prec/2}
        assert frame.sigma.order >= 10


def _sqrt_unit(r):
    """The square root h of a series r over Q with constant term 1, from
    h * h = r: h_m = (r_m - sum_{0<k<m} h_k h_(m-k)) / 2."""
    h = [Fraction(1)]
    for m in range(1, r.order):
        h.append((r.coefficient(m) - sum(h[k] * h[m - k] for k in range(1, m))) / 2)
    return Series(r.ring, r.var, 0, h, r.order)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                min_size=1, max_size=13))
@example([2, -3, -4, 4, 0, 0])  # (1 + u - 2u^2)^2
def test_involution_is_the_reversion_of_minus_t(tail):
    # sigma = E(u^2 r) - u, from the even part of the inverse of
    # t = u sqrt(r), is exactly t^-1(-t) over Q, window included
    r = Series.from_coeffs(RationalRing(), "u", [1] + tail, len(tail) + 1)
    h = _sqrt_unit(r)
    assert h * h == r
    if tail == [2, -3, -4, 4, 0, 0]:
        assert [h.coefficient(k) for k in range(7)] == [1, 1, -2, 0, 0, 0, 0]
    t = Series.identity(r.ring, "u", r.order + 1) * h
    want = t.reversion().compose(-t)
    got = curve_module._involution(r)
    assert (got.lo, got.order) == (want.lo, want.order) == (0, r.order)
    assert got == want


def test_frame_build_needs_no_square_root_or_reversion(monkeypatch):
    # one frames(13) on the acceptance curve: sigma comes from one inverse
    # of the x ratio and one composition, with no reversion, no square
    # root, and at most 58 series products
    def forbidden(*args):
        raise AssertionError("a frame build took a square root or a reversion")

    products = []
    mul = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(Series, "reversion", forbidden)
    monkeypatch.setattr(mpmath, "sqrt", forbidden)
    assert not hasattr(Series, "sqrt_unit")
    curve(2, [1, 1], Fraction(1, 10), prec=256).frames(13)
    assert len(products) <= 58


def _bits(series):
    return series.lo, series.order, [c._mpc_ for c in series.coeffs]


def test_frames_views_match_fresh_build():
    wide = curve(2, [1, 1], Fraction(1, 10), prec=256)
    wide.frames(28)
    fresh = curve(2, [1, 1], Fraction(1, 10), prec=256).frames(12)
    for view, ref in zip(wide.frames(12), fresh, strict=True):
        assert view.a._mpc_ == ref.a._mpc_
        for name in ("sigma", "sigma_prime", "kernel"):
            assert _bits(getattr(view, name)) == _bits(getattr(ref, name)), name


def test_invert_x_views_match_fresh_build(monkeypatch):
    # z(x) is built once per order above all earlier ones; smaller orders
    # are truncated views with the bits of a fresh build
    for d, q in [(2, [1, 1]), (2, [2, Fraction(1, 2)]),
                 (3, [Fraction(11, 3), Fraction(2, 3), Fraction(-1, 9)])]:
        for prec in (256, 512):
            wide = curve(d, q, Fraction(1, 10), prec=prec)
            wide.invert_x_numeric(17)
            for order in (4, 5, 6, 9):
                fresh = curve(d, q, Fraction(1, 10), prec=prec).invert_x_numeric(order)
                assert _bits(wide.invert_x_numeric(order)) == _bits(fresh), (d, prec, order)
    built = []
    x_of_z = curve_module.x_of_z
    monkeypatch.setattr(curve_module, "x_of_z", lambda p, s: built.append(p.order) or x_of_z(p, s))
    c = curve(2, [1, 1], Fraction(1, 10))
    for order in (4, 6, 5, 5, 5, 9):
        assert c.invert_x_numeric(order).order == order + 1
    assert built == [5, 7, 10]  # builds at orders 4, 6 and 9


def test_sigma_prime_starts_at_exponent_zero():
    # sigma is a power series, so its derivative carries no zero head
    for d, q in [(1, [1]), (2, [1, 1]), (3, [1, 1, 1])]:
        c = curve(d, q, Fraction(1, 10))
        for order in (6, 12):
            for bp in c.frames(order):
                assert (bp.sigma.lo, bp.sigma.order) == (0, order), (d, order)
                assert (bp.sigma_prime.lo, bp.sigma_prime.order) == (0, order - 1), (d, order)


def test_frames_built_once_per_largest_order(monkeypatch):
    c = curve(2, [1, 1], Fraction(1, 10))
    built = []
    frame = c._frame

    def counted(index, a, order):
        built.append(order)
        return frame(index, a, order)

    monkeypatch.setattr(c, "_frame", counted)
    for order in (10, 6, 8, 10):
        c.frames(order)
    assert built == [10, 10]           # one build, one frame per branch point
    c.frames(12)
    assert built == [10, 10, 12, 12]   # a larger order replaces the build
    for order in (0, 3):
        with pytest.raises(ValueError, match="at least 4"):
            c.frames(order)


def test_x_inversion_numeric_tree_function():
    # d=1, q=1: [x^mu] z(x) = mu^{mu-1} s^{mu-1} / mu!
    c = curve(1, [1], Fraction(1, 3))
    zx = c.invert_x_numeric(7)
    with mpmath.workprec(192):
        s = mpmath.mpf(1) / 3
        for mu in range(1, 8):
            expected = mpmath.mpf(mu) ** (mu - 1) * s ** (mu - 1) / factorial(mu)
            assert abs(zx.coefficient(mu) - expected) < 1e-45


def test_x_inversion_exact():
    zx = invert_x_exact(2, 4)
    s = WeightPolynomial.s(2)
    q1 = WeightPolynomial.q(1, 2)
    assert zx.coefficient(1) == WeightPolynomial.one(2)
    assert zx.coefficient(2) == q1 * s
    # past the old cap of order 12: [x^mu] z = A_mu^1, the partition sum
    zx = invert_x_exact(2, 16)
    assert zx.order == 17
    assert all(zx.coefficient(mu) == PruningKernel(2).c(mu, 1) for mu in range(13, 17))


def test_a_mu_trivial_and_small():
    assert PruningKernel(2).c(3, 3) == WeightPolynomial.one(2)
    assert PruningKernel(2).c(1, 2).is_zero()
    # A_3^1 = s q2 + (3/2) s^2 q1^2 for d >= 2
    q1, q2, s = (WeightPolynomial.q(1, 2), WeightPolynomial.q(2, 2),
                 WeightPolynomial.s(2))
    assert PruningKernel(2).c(3, 1) == q2 * s + (q1 * q1 * s * s).scale(Fraction(3, 2))


def test_a_mu_single_weight_closed_form():
    # d = 1: A_mu^1 = mu^(mu-2) s^(mu-1) / (mu-1)!
    for mu in range(1, 9):
        expected = WeightPolynomial.monomial(
            (mu - 1,), mu - 1, Fraction(mu ** max(mu - 2, 0), factorial(mu - 1)), 1
        )
        assert PruningKernel(1).c(mu, 1) == expected


def test_a_mu_against_lagrange_inversion():
    # partition sum == [x^mu] z(x)^i from the exact reversion, mu <= 8, d <= 3
    for d_max in (1, 2, 3):
        zx = invert_x_exact(d_max, 8)
        power = zx
        for i in range(1, d_max + 1):
            if i > 1:
                power = (power * zx).truncate(9)
            for mu in range(1, 9):
                assert power.coefficient(mu) == PruningKernel(d_max).c(mu, i), (d_max, i, mu)


def test_phi_basis_windows_and_poles():
    # the acceptance curve q = (1, 1), s = 1/10
    order = 14
    q, s = [Fraction(1), Fraction(1)], Fraction(1, 10)
    sym_q = [WeightPolynomial.q(i, 2) for i in (1, 2)]
    sym_s = WeightPolynomial.s(2)

    # at the origin every phi_k^i keeps the window and is exact, over Q and
    # over weight polynomials: phi_0^i = i z^i / w and
    # phi_1^i = i z^i (i w - z w') / w^3
    for ring, q_ring, s_ring in ((RationalRing(), q, s), (WeightPolyRing(2), sym_q, sym_s)):
        w = w_poly(ring, q_ring, s_ring)
        basis = PhiBasis(w, order)
        z = Series.identity(ring, "u", order)
        w_series, dw = w.to_series("u", order), w.derivative().to_series("u", order)
        for i in (1, 2):
            assert all(basis.phi(i, k).order == order for k in range(-1, 4)), i
            zi = z.pow_int(i)
            assert basis.phi(i, 0) * w_series == zi.scale(i)
            assert (basis.phi(i, 1) * w_series.pow_int(3)
                    == zi * (w_series.scale(i * i) - (z * dw).scale(i)))
    # phi_0^1 = z / w = z + s q1 z^2 + (2 s q2 + s^2 q1^2) z^3 + ...
    phi0 = PhiBasis(w_poly(WeightPolyRing(2), sym_q, sym_s), 4).phi(1, 0)
    q1, q2 = sym_q
    assert [phi0.coefficient(e) for e in (1, 2, 3)] == [
        WeightPolynomial.one(2), q1 * sym_s, (q2 * sym_s).scale(2) + q1 * q1 * sym_s * sym_s]

    acceptance = curve(2, q, s, prec=256)
    with mpmath.workprec(acceptance.prec):
        tol = mpmath.mpf(2) ** (-acceptance.prec // 2)
        # at a regular point the window shrinks by one per step
        a = mpmath.mpc("0.29", "0.18")
        basis = PhiBasis(acceptance.W, order, a)
        for i in (1, 2):
            assert [(basis.phi(i, k).lo, basis.phi(i, k).order) for k in range(-1, 4)] == [
                (0, order - k - 1) for k in range(-1, 4)]
            value = i * a ** i / acceptance.W(a)
            assert abs(basis.phi(i, 0).coefficient(0) - value) < tol * abs(value)
    # at a branch point it shrinks by two per step, and phi_k^i starts at
    # u^-(2k+1) with the leading coefficient of the local expansion:
    # i a^i / w'(a) at k = 0, times -(2k+1) a / w'(a) per step.  The
    # acceptance curve's roots 2 and -5/2 make w(a) exactly 0; the second
    # curve's are irrational, so w(a) is rounding noise to be dropped.
    for c in (acceptance, curve(3, [1, Fraction(1, 2), 2], Fraction(-1, 5), prec=256)):
        with mpmath.workprec(c.prec):
            tol = mpmath.mpf(2) ** (-c.prec // 2)
            for a in c.branch_points():
                basis = PhiBasis(c.W, order, a, c.negligible())
                dw = c.W.derivative()(a)
                for i in range(1, c.spec.d + 1):
                    lead = i * a ** i / dw
                    for k in range(4):
                        phi = basis.phi(i, k)
                        assert (phi.lo, phi.order) == (-(2 * k + 1), order - 2 * k - 2), (i, k)
                        assert abs(phi.coefficient(phi.lo) - lead) < tol * abs(lead), (i, k)
                        lead *= -(2 * k + 1) * a / dw


def test_phi_sigma_symmetrization_analytic():
    # phi_k^i(z) + phi_k^i(sigma(z)) must be analytic at each branch point
    c = curve(2, [1, 1], Fraction(1, 10), prec=256)
    order = 14
    with mpmath.workprec(c.prec):
        tol = mpmath.mpf(10) ** (-c.prec // 4)
        for frame in c.frames(order):
            basis = PhiBasis(c.W, order, frame.a, c.negligible())
            for i in (1, 2):
                for k in (0, 1, 2):
                    local = basis.phi(i, k)
                    sym = local + local.compose(frame.sigma)
                    scale = max(abs(co) for co in local.coeffs)
                    for e in range(sym.lo, 0):
                        assert abs(sym.coefficient(e)) < tol * scale, (i, k, e)


def test_f01_identity_exact():
    report = f01_check(2, 10)
    assert report.ok, report.detail


def test_f02_identity_exact():
    report = f02_check(2, 6)
    assert report.ok, report.detail


def test_f02_check_catches_one_changed_value(monkeypatch):
    # DH_{0,2}(3, 2) off by one part in 10^30; the loop runs mu1 fastest,
    # so (3, 2) is met before (2, 3)
    dh = DHTable.dh

    def changed(self, g, mu):
        value = dh(self, g, mu)
        if (g, canonical_mu(mu)) == (0, (3, 2)):
            value = value.scale(1 + Fraction(1, 10 ** 30))
        return value

    monkeypatch.setattr(DHTable, "dh", changed)
    report = f02_check(2, 4)
    assert not report.ok
    assert report.detail == "first mismatch at (mu1, mu2) = (3, 2)"


def test_two_point_coefficients_window():
    # [x^m] z^-k reads z through x^(m+k+1): mu_max = 4 needs the window 10
    zx = invert_x_exact(2, 9)
    assert zx.order == 10
    coeffs = two_point_coefficients(zx, 4)
    table = DHTable(2)
    assert all(coeffs[m, n] == table.dh(0, (m, n)) for (m, n) in coeffs)
    with pytest.raises(TruncationError):
        two_point_coefficients(zx.truncate(9), 4)


def test_two_point_lagrange_closed_form():
    # Lagrange inversion of the Grunsky coefficients, with no series kernel:
    # DH_{0,2}(m, n) = (1/(mn)) sum_{k=1}^{n} k [z^(n-k)] e^(n s P) [z^(m+k)] e^(m s P)
    top = 7
    for d in (1, 2, 3):
        table = DHTable(d)
        ring = WeightPolyRing(d)
        sp = p_series(ring, 2 * top + 1).scale(WeightPolynomial.s(d))
        e = {t: sp.scale(t).exp() for t in range(1, top + 1)}
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                total = ring.zero
                for k in range(1, n + 1):
                    total = total + (e[n].coefficient(n - k)
                                     * e[m].coefficient(m + k)).scale(k)
                assert total.scale(Fraction(1, m * n)) == table.dh(0, (m, n)), (d, m, n)


def test_numeric_inversion_round_trip():
    # x(z(x)) = x to the full window
    c = curve(2, [1, 1], Fraction(1, 10), prec=192)
    zx = c.invert_x_numeric(9)
    with mpmath.workprec(192):
        ring = c.ring
        from dhtr.series import Poly, Series
        p = Poly(ring, [ring.zero] + c.q).to_series("x", zx.order)
        back = zx * p.compose(zx).scale(-c.s).exp()
        for k in range(back.order):
            want = 1 if k == 1 else 0
            assert abs(back.coefficient(k) - want) < mpmath.mpf(2) ** -150
