from fractions import Fraction
from itertools import permutations, product
from math import prod

import mpmath
import pytest

from dhtr.curve import CurveSpec, PhiBasis, SpectralCurve, invert_x_exact, phi_fit, w_poly
from dhtr.cutjoin import DHTable, canonical_mu
from dhtr.pruning import PruningTransform
from dhtr.series import RationalRing, Series, TruncationError
from dhtr.toprec import CorrelationForm, RecursionEngine, _Chart
from dhtr.weightpoly import WeightPolynomial, WeightPolyRing
from nested_series import SeriesRing


@pytest.fixture(scope="module")
def engine():
    curve = SpectralCurve(CurveSpec.make(2, [1, 1], Fraction(1, 10), precision=256))
    return RecursionEngine(curve)


def test_omega03_pole_structure(engine):
    form = engine.form(0, 3)
    # double poles at each branch point, same index in all three slots
    for idx in form.coeffs:
        (i1, k1), (i2, k2), (i3, k3) = idx
        assert i1 == i2 == i3
        assert k1 == k2 == k3 == 1
    assert form.asymmetry < 1e-60


def test_omega03_matches_closed_form(engine):
    import random

    rng = random.Random(11)
    with mpmath.workprec(engine.prec):
        roots = engine.curve.branch_points()
        tol = mpmath.mpf(10) ** (-engine.prec // 4)
        for _ in range(20):
            pts = [mpmath.mpc(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
                   for _ in range(3)]
            if min(abs(p - a) for p in pts for a in roots) < 0.3:
                continue
            lhs = engine.form(0, 3).evaluate(pts, roots)
            rhs = engine.omega03_closed(pts)
            assert abs(lhs - rhs) / abs(rhs) < tol


def test_omega03_symmetric_in_arguments(engine):
    with mpmath.workprec(engine.prec):
        pts = [mpmath.mpc("0.2", "0.3"), mpmath.mpc("-0.5", "0.1"), mpmath.mpc("0.4", "-0.2")]
        vals = {engine.omega03_closed([pts[i], pts[j], pts[k]])
                for (i, j, k) in [(0, 1, 2), (1, 0, 2), (2, 1, 0)]}
        base = engine.omega03_closed(pts)
        assert all(abs(v - base) < abs(base) * 1e-70 for v in vals)


def test_omega03_triple_derivative_of_cyclic_form(engine):
    """d1 d2 d3 of the cyclic closed form of F_{0,3}, via first-order jets
    in three nested variables, equals the assembled triple-point form."""
    with mpmath.workprec(engine.prec):
        curve = engine.curve
        ring0 = engine.ring
        r1 = SeriesRing(ring0, "u1", 2)
        r2 = SeriesRing(r1, "u2", 2)

        def jet3(const, slot):
            # p + u_slot as a nested series over (u3 over u2 over u1)
            c0 = Series.constant(ring0, "u1", const, 2)
            one0 = Series.constant(ring0, "u1", ring0.one, 2)
            zero0 = r1.zero
            if slot == 1:
                lvl1 = Series(ring0, "u1", 0, [const, ring0.one], 2)
                lvl2 = Series(r1, "u2", 0, [lvl1, zero0], 2)
            elif slot == 2:
                lvl2 = Series(r1, "u2", 0, [c0, one0], 2)
            else:
                lvl2 = Series(r1, "u2", 0, [c0, zero0], 2)
            zero1 = r2.zero
            one1 = Series(r1, "u2", 0, [one0, zero0], 2)
            if slot == 3:
                return Series(r2, "u3", 0, [lvl2, one1], 2)
            return Series(r2, "u3", 0, [lvl2, zero1], 2)

        def lift(value):
            return Series.constant(r2, "u3",
                                   Series.constant(r1, "u2",
                                                   Series.constant(ring0, "u1", value, 2), 2), 2)

        pts = [mpmath.mpc("0.25", "0.15"), mpmath.mpc("-0.35", "0.3"),
               mpmath.mpc("0.1", "-0.55")]
        z = [jet3(pts[i], i + 1) for i in range(3)]
        s = lift(curve.s)

        def wval(zj):
            # 1 - s z P'(z) on jets via Horner
            acc = lift(curve.W.coeffs[-1])
            for c in reversed(curve.W.coeffs[:-1]):
                acc = acc * zj + lift(c)
            return acc

        total = -s
        for (i, j, k) in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            num = s * z[j] * z[k]
            den = (z[i] - z[j]) * (z[i] - z[k]) * wval(z[i])
            total = total + num * den.inverse()
        mixed = total.coefficient(1).coefficient(1).coefficient(1)
        expected = engine.form(0, 3).evaluate(pts, curve.branch_points())
        assert abs(mixed - expected) < abs(expected) * mpmath.mpf(10) ** -60


def test_omega11_direct_residue(engine):
    with mpmath.workprec(engine.prec):
        z1 = mpmath.mpc("0.41", "0.17")
        direct = engine.omega11_direct(z1)
        from_basis = engine.form(1, 1).evaluate([z1], engine.curve.branch_points())
        assert abs(direct - from_basis) < abs(from_basis) * mpmath.mpf(10) ** -60
    # one order short, the residue lies past the window: it raises, not 0
    short = RecursionEngine(engine.curve)
    short.window_for = lambda *gn: RecursionEngine.window_for(short, *gn) - 1
    with pytest.raises(TruncationError):
        short.omega11_direct(z1)


def test_f11_closed_form_against_recursion_and_table(engine):
    """F_{1,1} = (s^2/24) sum_i (i q_i phi_1^i - q_i phi_0^i): its derivative
    must equal the one-point genus-one form, and its exact x-expansion must
    reproduce the table."""
    with mpmath.workprec(engine.prec):
        curve = engine.curve
        z0 = mpmath.mpc("0.33", "0.21")
        basis = PhiBasis(curve.W, 4, z0)  # phi_1 known through u^1
        jet = None
        for i in (1, 2):
            phi1 = basis.phi(i, 1)
            phi0 = basis.phi(i, 0)
            term = phi1.scale(i * curve.q[i - 1]) - phi0.scale(curve.q[i - 1])
            jet = term if jet is None else jet + term
        jet = jet.scale(curve.s ** 2 / 24)
        omega = engine.form(1, 1).evaluate([z0], curve.branch_points())
        assert abs(jet.coefficient(1) - omega) < abs(omega) * mpmath.mpf(10) ** -60

    # exact x-expansion at d_max = 2
    d = 2
    table = DHTable(d)
    order = 7
    s = WeightPolynomial.s(d)
    q = [WeightPolynomial.q(i, d) for i in (1, 2)]
    basis = PhiBasis(w_poly(WeightPolyRing(d), q, s), order)
    series = None
    for i in (1, 2):
        phi1 = basis.phi(i, 1)
        phi0 = basis.phi(i, 0)
        q_i = q[i - 1]
        term = phi1.scale(q_i.scale(i)) - phi0.scale(q_i)
        series = term if series is None else series + term
    series = series.scale((s * s) / 24)
    zx = invert_x_exact(d, order - 1)
    f11_x = series.compose(zx)
    for mu in range(1, f11_x.order):
        assert f11_x.coefficient(mu) == table.dh(1, (mu,)), mu


def test_verify_reports(engine):
    rep03 = engine.verify_conjecture(0, 3, 3, tolerance=mpmath.mpf(10) ** -30)
    assert rep03.ok
    rep11 = engine.verify_conjecture(1, 1, 5, tolerance=mpmath.mpf(10) ** -30)
    assert rep11.ok
    # mu = (1,) is an impossible genus-one cover; its expected value is 0
    row1 = [r for r in rep11.rows if r.mu == (1,)][0]
    assert row1.expected == 0 and row1.ok


def test_omega02_origin_check(engine):
    report = engine.omega02_origin_check(4)
    assert report.ok
    assert report.max_residual < mpmath.mpf(10) ** -60


def test_omega02_origin_check_fails_one_changed_value(engine, monkeypatch):
    # DH_{0,2}(3, 2) off by one part in 10^30: both orderings of the pair
    # fail, every other row passes
    dh = DHTable.dh

    def changed(self, g, mu):
        value = dh(self, g, mu)
        if (g, canonical_mu(mu)) == (0, (3, 2)):
            value = value.scale(1 + Fraction(1, 10 ** 30))
        return value

    monkeypatch.setattr(DHTable, "dh", changed)
    report = engine.omega02_origin_check(4)
    assert [row.mu for row in report.rows if not row.ok] == [(3, 2), (2, 3)]
    assert not report.ok


def test_loop_equations(engine):
    for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        report = engine.loop_equation_check(g, n)
        assert report.ok, (g, n, report.worst)


def _phi_fit(g, n, transform=None):
    transform = transform or PruningTransform(DHTable(2))
    return phi_fit(transform, [1, 1], Fraction(1, 10), g, n)


def test_phi_decomposition():
    # F_{1,1} = (s^2/24) sum_i (i q_i phi_1^i - q_i phi_0^i) at q = (1, 1)
    fit11 = _phi_fit(1, 1)
    assert fit11.ok and (fit11.degree_bound, fit11.unknowns, fit11.rank) == (1, 4, 4)
    assert fit11.coefficients == {
        ((1, 0),): Fraction(-1, 2400), ((1, 1),): Fraction(1, 2400),
        ((2, 0),): Fraction(-1, 2400), ((2, 1),): Fraction(1, 1200)}
    for g, n in [(0, 3), (1, 2)]:
        fit = _phi_fit(g, n)
        assert fit.ok and fit.rank == fit.unknowns < fit.equations, (g, n)


def test_phi_fit_matches_recursion(engine):
    # d phi_k = (w/z) phi_{k+1} dz, so the exact coefficients, differentiated
    # slot by slot, must give the TR form's value; phi_k' at z is the u^1
    # coefficient of phi_k expanded at z
    curve = engine.curve
    points = [mpmath.mpc("0.31", "0.12"), mpmath.mpc("-0.22", "0.27"),
              mpmath.mpc("0.17", "-0.35")]
    for g, n in [(1, 1), (0, 3), (1, 2)]:
        fit = _phi_fit(g, n)
        with mpmath.workprec(engine.prec):
            bases = {z: PhiBasis(curve.W, fit.degree_bound + 3, z) for z in points}
            for pts in (points[:n], (points[1:] + points[:1])[:n]):
                total = 0
                for combo, c in fit.coefficients.items():
                    for order in set(permutations(combo)):
                        term = engine.ring.from_rational(c)
                        for (i, k), z in zip(order, pts):
                            term *= bases[z].phi(i, k).coefficient(1)
                        total += term
                omega = engine.form(g, n).evaluate(pts, curve.branch_points())
                assert abs(total - omega) < abs(omega) * mpmath.mpf(10) ** -60, (g, n)


class _ShiftedTransform(PruningTransform):
    """PH with one value moved by 10^-30."""

    def __init__(self, table, at):
        super().__init__(table)
        self.at = at

    def ph(self, g, nu):
        value = super().ph(g, nu)
        if tuple(nu) == self.at:
            value = value + WeightPolynomial.rational(Fraction(1, 10 ** 30), 2)
        return value


def test_phi_fit_rejects_a_shifted_value():
    for (g, n), at in [((1, 1), (3,)), ((0, 3), (2, 1, 1)), ((1, 2), (4, 4))]:
        fit = _phi_fit(g, n, _ShiftedTransform(DHTable(2), at))
        assert not fit.consistent and not fit.ok and not fit.coefficients, (g, n)


def test_conjecture_instances_and_stability(engine):
    for (g, n) in [(0, 4), (1, 2), (2, 1)]:
        report = engine.verify_conjecture(g, n, 4)
        assert report.rows, (g, n)
        assert report.ok, (g, n, report.max_residual)
    stab = engine.stability_report(1, 2)
    assert stab["precision_drift"] < stab["precision_tol"]
    assert stab["truncation_drift"] < stab["precision_tol"]


def test_reach_past_euler_characteristic_three(engine):
    # 2g - 2 + n = 3 at n = 5 and at genus one on the acceptance curve
    for (g, n, mu_max), rows in [((0, 5, 2), 32), ((1, 3, 3), 27)]:
        report = engine.verify_conjecture(g, n, mu_max=mu_max)
        assert len(report.rows) == rows, (g, n)
        assert report.ok, (g, n, report.max_residual)


def test_reach_at_euler_characteristic_four(engine):
    # 2g - 2 + n = 4 on the acceptance curve
    for (g, n), rows in [((2, 2), 9), ((3, 1), 3)]:
        report = engine.verify_conjecture(g, n, mu_max=3)
        assert len(report.rows) == rows, (g, n)
        assert report.ok, (g, n, report.max_residual)


def _exact_parts(x):
    """The exact rational real and imaginary parts of an mpc."""
    def exact(part):
        sign, man, exp, _ = part
        value = Fraction(-man if sign else man)
        return value * 2 ** exp if exp >= 0 else value / 2 ** -exp
    return tuple(exact(part) for part in x._mpc_)


@pytest.mark.parametrize("curve_args, forms", [
    ((2, [1, 1], Fraction(1, 10), 256), [(0, 4), (1, 2), (2, 1)]),
    ((3, [1, 1, 1], Fraction(1, 10), 192), [(0, 3)]),
], ids=["real-branch-points", "complex-branch-points"])
def test_origin_expansion_rounds_exact_sum_once(curve_args, forms):
    # each prediction is the exact rational sum over the coefficients c of
    # c * prod_j v_j / prod(mu), from the same c and the same slot vectors
    # v_j (elements of the origin chart), rounded once per part
    d, q, s, prec = curve_args
    curve = SpectralCurve(CurveSpec.make(d, q, s, precision=prec))
    engine = RecursionEngine(curve)
    mu_max = 4 if d == 2 else 3
    for g, n in forms:
        form = engine.form(g, n)
        predicted = engine.expand_at_origin(form, mu_max)
        assert list(predicted) == list(product(range(1, mu_max + 1), repeat=n))
        with mpmath.workprec(prec):
            chart = _origin_chart(curve.invert_x_numeric(mu_max + 1), curve.branch_points())
            vectors = {}
            for i, k in {idx_j for idx in form.coeffs for idx_j in idx}:
                b = chart.element((i, k + 1))
                vectors[(i, k)] = [_exact_parts(b.coefficient(mu - 1))
                                   for mu in range(1, mu_max + 1)]
            terms = [(_exact_parts(c), idx) for idx, c in form.coeffs.items()]
            assert (d == 3) == any(ci for (_, ci), _ in terms)
            for mu, value in predicted.items():
                re = im = Fraction(0)
                for (cr, ci), idx in terms:
                    for mu_j, idx_j in zip(mu, idx):
                        vr, vi = vectors[idx_j][mu_j - 1]
                        cr, ci = cr * vr - ci * vi, cr * vi + ci * vr
                    re, im = re + cr, im + ci
                want = tuple(mpmath.fdiv(x.numerator, x.denominator * prod(mu))._mpf_
                             for x in (re, im))
                assert value._mpc_ == want, (g, n, mu)
    empty = engine.expand_at_origin(CorrelationForm(0, 3, {}), 2)
    assert empty == {mu: 0 for mu in product((1, 2), repeat=3)}


def test_symmetry_of_forms(engine):
    for (g, n) in [(0, 3), (0, 4), (1, 2)]:
        assert engine.form(g, n).asymmetry < 1e-60, (g, n)


def test_symmetry_check_catches_one_moved_coefficient(engine):
    # check_symmetry compares under (0 1) and the n-cycle only.  (A, A, .., B)
    # is fixed by (0 1), so only the cycle sees it move; the n rotations of
    # (A, B, C, .., C), moved together, are fixed by the cycle, so only (0 1)
    # sees them.  Existing coefficients with a nontrivial orbit are moved too.
    def asymmetry_after_moving(form, indices):
        coeffs = dict(form.coeffs)
        delta = form.scale() * mpmath.mpf("1e-40")
        for idx in indices:
            coeffs[idx] = coeffs.get(idx, mpmath.mpc(0)) + delta
        return CorrelationForm(form.g, form.n, coeffs).check_symmetry()

    with mpmath.workprec(engine.prec):
        for g, n in [(0, 3), (0, 4), (1, 3)]:
            form = engine.form(g, n)
            a, b, c = (0, 1), (0, 2), (0, 3)
            rotated = (a, b) + (c,) * (n - 2)
            moves = [[(a,) * (n - 1) + (b,)],
                     [rotated[j:] + rotated[:j] for j in range(n)]]
            moves += [[idx] for idx in list(form.coeffs)[::7] if len(set(idx)) > 1]
            for indices in moves:
                assert asymmetry_after_moving(form, indices) >= 1e-41, (g, n, indices)


def test_no_simple_poles(engine):
    # stable forms have no residues at the branch points: k = 0 entries
    # are trimmed away as numerically negligible
    for (g, n) in [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]:
        form = engine.form(g, n)
        assert all(k >= 1 for idx in form.coeffs for (_, k) in idx), (g, n)


def test_form_bits_independent_of_request_order():
    # form(2, 1) first builds the frames once at window 14 and serves the
    # lower forms truncated views; the upward order builds at each window
    spec = CurveSpec.make(2, [1, 1], Fraction(1, 10), precision=256)
    top_first = RecursionEngine(SpectralCurve(spec))
    top_first.form(2, 1)
    upward = RecursionEngine(SpectralCurve(spec))
    for g, n in [(0, 3), (1, 1), (1, 2), (2, 1)]:
        upward.form(g, n)
    for g, n in [(0, 3), (1, 1), (1, 2), (2, 1)]:
        a, b = top_first.form(g, n).coeffs, upward.form(g, n).coeffs
        assert a.keys() == b.keys(), (g, n)
        assert all(a[idx]._mpc_ == b[idx]._mpc_ for idx in a), (g, n)


@pytest.mark.parametrize("d,q", [
    (2, [1, 1]),
    (3, [Fraction(11, 3), Fraction(2, 3), Fraction(-1, 9)]),
])
def test_default_window_is_tight_and_exact(d, q):
    # 3 or 8 more orders change no bit; one order less on a form's own
    # step, with its lower forms from their default windows, trips the
    # truncation guard for every form
    spec = CurveSpec.make(d, q, Fraction(1, 10), precision=256)
    default = RecursionEngine(SpectralCurve(spec))
    forms = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 1)]

    def bits(form):
        return {idx: c._mpc_ for idx, c in form.coeffs.items()}, form.asymmetry

    for extra in (3, 8):
        wider = RecursionEngine(SpectralCurve(spec), extra_order=extra)
        for g, n in forms:
            assert bits(default.form(g, n)) == bits(wider.form(g, n)), (extra, g, n)
    for g, n in forms:
        short = RecursionEngine(default.curve)
        short._forms = {key: f for key, f in default._forms.items() if key != (g, n)}
        short.window_for = lambda *gn, e=short: RecursionEngine.window_for(e, *gn) - 1
        with pytest.raises(TruncationError, match=r"window of \(6g\+2n-4\)\+3 = "):
            short.form(g, n)


def test_kernel_denominator_double_zero(engine):
    with mpmath.workprec(engine.prec):
        assert engine.curve.frames(12)[0].kernel.lo == -2


def _z_side(frame, roots, window):
    u = Series.identity(frame.sigma.ring, "u", window)
    return _Chart(u, None, frame.a, roots, frame.index)


def _sigma_side(frame, roots):
    return _Chart(frame.sigma, frame.sigma_prime, frame.a, roots)


def _origin_chart(zx, roots):
    return _Chart(zx, zx.derivative(), zx.ring.zero, roots)


def test_omega02_local_expansion(engine):
    # Cauchy kernel geometric expansion: the omega_{0,2} factor paired with
    # the spectator index (i, k+1) is (k+1) u^k, analytic in u, and a
    # double pole carries no residue
    with mpmath.workprec(engine.prec):
        curve = engine.curve
        chart = _z_side(curve.frames(8)[0], curve.branch_points(), 8)
        series = chart.element((0, -3)).scale(4)
        assert abs(series.coefficient(3) - 4) < 1e-60
        assert series.lo >= 0
        assert series.coefficient(-1) == 0


def _binary_power(series, e):
    """series ** e by square-and-multiply, a reference apart from the
    product chain of Series.pow_int; a negative e powers the inverse."""
    if e < 0:
        return _binary_power(series.inverse(), -e)
    if e == 0:
        return Series.constant(series.ring, series.var, series.ring.one,
                               max(series.order - series.lo, 1))
    result, base = None, series
    while e:
        if e & 1:
            result = base if result is None else result * base
        e >>= 1
        if e:
            base = base * base
    return result


def _binary_power_element(frame, roots, window, j, e, on_sigma):
    """A basis element built by square-and-multiply, as a reference; on the
    sigma side p_j(u) is composed with sigma."""
    ring = frame.sigma.ring
    if j == frame.index:
        base = Series(ring, "u", -1, [ring.one] + [ring.zero] * window, window)
    else:
        base = Series.from_coeffs(ring, "u", [frame.a - roots[j], ring.one], window).inverse()
    if not on_sigma:
        return _binary_power(base, e)
    if j == frame.index:
        power = _binary_power(frame.sigma, -e)
    else:
        power = _binary_power(base.compose(frame.sigma), e)
    return power * frame.sigma_prime


def _assert_close(got, want, bound, where):
    scale = max(abs(c) for c in want.coeffs)
    for k in range(got.lo, min(got.order, want.order)):
        assert abs(got.coefficient(k) - want.coefficient(k)) <= bound * scale, (where, k)


@pytest.mark.parametrize("window", [14, 18])
def test_basis_elements_match_pow_int(engine, window):
    # each element is a product chain towards e = 0; it must stay within
    # 2**-(prec-8) of its scale of a square-and-multiply build, on both
    # sides of every branch point and at the origin
    curve = engine.curve
    with mpmath.workprec(engine.prec):
        roots = curve.branch_points()
        bound = mpmath.mpf(2) ** -(engine.prec - 8)
        for frame in curve.frames(window):
            charts = {False: _z_side(frame, roots, window), True: _sigma_side(frame, roots)}
            for j in range(len(roots)):
                for on_sigma, chart in charts.items():
                    for e in range(-6, 13):
                        got = chart.element((j, e))
                        want = _binary_power_element(frame, roots, window, j, e, on_sigma)
                        assert got.lo == want.lo, (j, e, on_sigma)
                        if j != frame.index or on_sigma:
                            assert got.order == want.order, (j, e, on_sigma)
                        _assert_close(got, want, bound, (j, e, on_sigma))
        zx = curve.invert_x_numeric(window)
        origin = _origin_chart(zx, roots)
        for i, a_i in enumerate(roots):
            shifted = zx - Series.constant(engine.ring, "x", a_i, zx.order)
            for e in range(1, 13):
                got, want = origin.element((i, e)), zx.derivative() * _binary_power(shifted, -e)
                assert (got.lo, got.order) == (want.lo, want.order), (i, e)
                _assert_close(got, want, bound, (i, e))


def test_origin_chart_over_rationals_matches_numeric():
    # the chart is ring-generic: along the exact z(x) at q = (1, 1),
    # s = 1/10, whose branch points are -5/2 and 2, every element matches
    # the numeric chart's to 2**-(prec-8) of its scale
    q, s = [Fraction(1), Fraction(1)], Fraction(1, 10)
    exact = invert_x_exact(2, 5)
    zx = Series(RationalRing(), "x", exact.lo, [c.specialize(q, s) for c in exact.coeffs],
                exact.order)
    exact_chart = _origin_chart(zx, [Fraction(-5, 2), Fraction(2)])
    curve = SpectralCurve(CurveSpec.make(2, q, s, precision=256))
    with mpmath.workprec(256):
        assert [complex(a) for a in curve.branch_points()] == [-2.5, 2]
        numeric = _origin_chart(curve.invert_x_numeric(5), curve.branch_points())
        bound = mpmath.mpf(2) ** -(256 - 8)
        for i in range(2):
            for e in range(1, 12):
                got, want = exact_chart.element((i, e)), numeric.element((i, e))
                assert (got.lo, got.order) == (want.lo, want.order), (i, e)
                got = Series(numeric.local.ring, "x", got.lo,
                             [mpmath.mpc(mpmath.mpf(c.numerator) / c.denominator)
                              for c in got.coeffs], got.order)
                _assert_close(got, want, bound, (i, e))


def test_basis_forms_one_product_per_power(engine, monkeypatch):
    # elements (j, 1..E) with a_j off the chart's own point: E - 1 products
    # on the z side; E on the sigma side and at the origin, where dz is not
    # dt, once the factor (local + a - a_j)^-1 is built
    products = []
    mul = Series.__mul__
    monkeypatch.setattr(Series, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    top = 7
    with mpmath.workprec(engine.prec):
        roots = engine.curve.branch_points()
        zx = engine.curve.invert_x_numeric(14)
        charts = [(_origin_chart(zx, roots), j, top) for j in range(len(roots))]
        for frame in engine.curve.frames(14):
            j = 1 - frame.index
            charts += [(_z_side(frame, roots, 14), j, top - 1),
                       (_sigma_side(frame, roots), j, top)]
        for chart, j, count in charts:
            chart._factor(j, 1)
            products.clear()
            for e in range(1, top + 1):
                chart.element((j, e))
            assert len(products) == count


def test_recursion_on_complex_branch_points():
    # d=3 puts two branch points off the real axis; proven instances must
    # still match the exact table
    curve = SpectralCurve(CurveSpec.make(3, [1, 1, 1], Fraction(1, 10),
                                         precision=192))
    eng = RecursionEngine(curve)
    with mpmath.workprec(192):
        roots = curve.branch_points()
        assert any(abs(mpmath.im(a)) > 0.1 for a in roots)
    tol = mpmath.mpf(10) ** -30
    assert eng.verify_conjecture(0, 3, 2, tolerance=tol).ok
    assert eng.verify_conjecture(1, 1, 3, tolerance=tol).ok


def test_recursion_single_weight_curve():
    # d=1 is the single-weight (classical) specialization
    curve = SpectralCurve(CurveSpec.make(1, [1], Fraction(1, 10), precision=192))
    eng = RecursionEngine(curve)
    tol = mpmath.mpf(10) ** -30
    assert eng.verify_conjecture(0, 3, 3, tolerance=tol).ok
    assert eng.verify_conjecture(1, 1, 4, tolerance=tol).ok
    assert eng.verify_conjecture(0, 4, 3, tolerance=tol).ok


@pytest.mark.parametrize("d,q,s", [
    (2, [Fraction(1, 2), Fraction(1, 3)], Fraction(1, 7)),
    (2, [1, -1], Fraction(1, 10)),          # negative weight
    (3, [2, 0, 1], Fraction(-1, 8)),        # vanishing middle weight, s < 0
])
def test_proven_instances_on_varied_curves(d, q, s):
    curve = SpectralCurve(CurveSpec.make(d, q, s, precision=224))
    eng = RecursionEngine(curve)
    tol = mpmath.mpf(10) ** -30
    assert eng.verify_conjecture(0, 3, 2, tolerance=tol).ok
    assert eng.verify_conjecture(1, 1, 3, tolerance=tol).ok
