"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Tolerances are pinned here, not configured elsewhere."""

import time
from fractions import Fraction

import mpmath
import pytest

from dhtr.curve import (CurveSpec, PhiBasis, SpectralCurve, f01_check, f02_check,
                        invert_x_exact, w_poly)
from dhtr.cutjoin import DHTable, partitions_of
from dhtr.oracle import FactorizationOracle
from dhtr.pruning import PruningKernel, PruningTransform
from dhtr.quantum import WaveFunction, apply_quantum_curve
from dhtr.tables import diff_table
from dhtr.toprec import RecursionEngine
from dhtr.weightpoly import WeightPolynomial, WeightPolyRing

DEFAULT_CURVE = CurveSpec.make(2, [1, 1], Fraction(1, 10), precision=256)


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def shared_engine():
    return RecursionEngine(SpectralCurve(DEFAULT_CURVE))


def test_criterion_1_table_a_exact():
    t0 = time.time()
    diff = diff_table("A")
    elapsed = time.time() - t0
    report("criterion 1: table A regenerated exactly",
           diff.ok and diff.row_count == 45 and elapsed < 60,
           f"{diff.row_count} rows, {elapsed:.1f}s")


def test_criterion_2_table_b_exact():
    t0 = time.time()
    diff = diff_table("B")
    elapsed = time.time() - t0
    report("criterion 2: table B regenerated exactly",
           diff.ok and diff.row_count == 40 and elapsed < 60,
           f"{diff.row_count} rows, {elapsed:.1f}s")


def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    checked = 0
    for total in range(1, 6):
        for mu in partitions_of(total):
            for g in (0, 1):
                d = sum(mu)
                oracle = FactorizationOracle(d)
                result = oracle.compare(g, mu, DHTable(d))
                assert result.equal, (g, mu, result.diffs)
                checked += 1
    for total in range(1, 4):  # genus-two spot checks
        for mu in partitions_of(total):
            d = sum(mu)
            result = FactorizationOracle(d).compare(2, mu, DHTable(d))
            assert result.equal, (2, mu, result.diffs)
            checked += 1
    elapsed = time.time() - t0
    report("criterion 3: oracle equals recursion on every instance",
           elapsed < 600, f"{checked} instances, {elapsed:.1f}s")


def test_criterion_4_proven_tr_instances(shared_engine):
    t0 = time.time()
    tol = mpmath.mpf(10) ** -30
    rep03 = shared_engine.verify_conjecture(0, 3, 3, tolerance=tol)
    rep11 = shared_engine.verify_conjecture(1, 1, 5, tolerance=tol)
    elapsed = time.time() - t0
    report("criterion 4: proven instances (0,3) and (1,1) at 1e-30",
           rep03.ok and rep11.ok and elapsed < 300,
           f"max residuals {mpmath.nstr(rep03.max_residual, 3)}, "
           f"{mpmath.nstr(rep11.max_residual, 3)}, {elapsed:.1f}s")


def test_criterion_5_conjecture_instances(shared_engine):
    t0 = time.time()
    verdicts = []
    stable = True
    for (g, n) in [(0, 4), (1, 2), (2, 1)]:
        rep = shared_engine.verify_conjecture(g, n, 4)
        assert rep.rows, (g, n)
        # the conjecture is proved for this family (Bychkov et al.,
        # arXiv:2012.14723), so a failed verdict here is a defect
        assert rep.ok, ((g, n), mpmath.nstr(rep.max_residual, 3))
        verdicts.append(((g, n), rep.ok, mpmath.nstr(rep.max_residual, 3)))
        stab = shared_engine.stability_report(g, n)
        stable = stable and (stab["precision_drift"] < stab["precision_tol"]
                             and stab["truncation_drift"] < stab["precision_tol"])
    elapsed = time.time() - t0
    # the runs, the conjecture verdicts and the stability invariants must
    # all pass
    report("criterion 5: conjecture instances complete with stable numerics",
           stable, f"verdicts {verdicts}, {elapsed:.1f}s")


def test_criterion_6_quantum_curve_exact():
    t0 = time.time()
    ok = True
    for d in (1, 2):
        wf = WaveFunction(DHTable(d), K=6, L=2)
        result = apply_quantum_curve(wf)
        ok = ok and result.ok and wf.log_matches_direct_sum()
    elapsed = time.time() - t0
    report("criterion 6: quantum-curve residuals exactly zero (d=1,2; K=6, L=2)",
           ok and elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_7_closed_form_identities(shared_engine):
    r01 = f01_check(2, 10)
    r02 = f02_check(2, 10)

    # triple-point closed form against the assembled recursion output
    engine = shared_engine
    with mpmath.workprec(engine.prec):
        pts = [mpmath.mpc("0.23", "0.31"), mpmath.mpc("-0.38", "0.12"),
               mpmath.mpc("0.07", "-0.52")]
        w03 = engine.form(0, 3).evaluate(pts, engine.curve.branch_points())
        closed = engine.omega03_closed(pts)
        ok_w03 = abs(w03 - closed) < abs(closed) * mpmath.mpf(10) ** -60

    # genus-one one-point closed form: derivative matches the recursion
    # output, exact x-expansion matches the table
    with mpmath.workprec(engine.prec):
        curve = engine.curve
        z0 = mpmath.mpc("0.29", "0.18")
        basis = PhiBasis(curve.W, 4, z0)  # phi_1 known through u^1
        jet = None
        for i in (1, 2):
            phi1 = basis.phi(i, 1)
            phi0 = basis.phi(i, 0)
            term = phi1.scale(i * curve.q[i - 1]) - phi0.scale(curve.q[i - 1])
            jet = term if jet is None else jet + term
        jet = jet.scale(curve.s ** 2 / 24)
        w11 = engine.form(1, 1).evaluate([z0], curve.branch_points())
        ok_f11_tr = abs(jet.coefficient(1) - w11) < abs(w11) * mpmath.mpf(10) ** -60

    table = DHTable(2)
    s = WeightPolynomial.s(2)
    q = [WeightPolynomial.q(i, 2) for i in (1, 2)]
    exact_basis = PhiBasis(w_poly(WeightPolyRing(2), q, s), 7)
    series = None
    for i in (1, 2):
        q_i = q[i - 1]
        term = (exact_basis.phi(i, 1).scale(q_i.scale(i))
                - exact_basis.phi(i, 0).scale(q_i))
        series = term if series is None else series + term
    f11_x = series.scale((s * s) / 24).compose(invert_x_exact(2, 6))
    ok_f11_table = all(f11_x.coefficient(mu) == table.dh(1, (mu,))
                       for mu in range(1, f11_x.order))

    report("criterion 7: closed-form identities",
           r01.ok and r02.ok and ok_w03 and ok_f11_tr and ok_f11_table,
           "f01/f02 exact to order 10; triple-point and genus-one forms match")


def test_criterion_8_property_suites(shared_engine):
    # polynomial ring laws (spot; the randomized suite runs in the unit tests)
    a = WeightPolynomial.q(1, 3)
    b = WeightPolynomial.q(2, 3) * WeightPolynomial.s(3)
    c = WeightPolynomial.rational(Fraction(3, 7), 3)
    ok = (a * (b + c) == a * b + a * c) and (a * b == b * a)

    # series reversion round trip
    from dhtr.series import RationalRing, Series
    f = Series.from_coeffs(RationalRing(), "z", [0, 1, 5, -3, 2, 1], 8)
    back = f.compose(f.reversion())
    ok = ok and all(back.coefficient(k) == (1 if k == 1 else 0)
                    for k in range(back.order))

    # symmetry, homogeneity, positivity of the recursion table
    table = DHTable(4)
    for g, mu in [(0, (2, 1)), (1, (1, 3)), (2, (2,))]:
        value = table.dh(g, mu)
        ok = ok and value == table.dh(g, tuple(reversed(mu)))
        for qexps, m, coeff in value.monomials():
            ok = ok and coeff > 0
            ok = ok and m == 2 * g - 2 + len(mu) + sum(qexps)
            ok = ok and sum((i + 1) * e for i, e in enumerate(qexps)) == sum(mu)

    # pruning round trip and kernel inverse pair up to index 8
    kernel = PruningKernel(3)
    for i in range(1, 9):
        for j in range(1, 9):
            acc = kernel.ring.zero
            for k in range(1, 9):
                acc = acc + kernel.c(i, k) * kernel.chat(k, j)
            ok = ok and acc == (kernel.ring.one if i == j else kernel.ring.zero)
    transform = PruningTransform(DHTable(3))
    for g, mu in [(0, (2, 1)), (1, (3,))]:
        ok = ok and transform.dh_from_ph(g, mu) == transform.table.dh(g, mu)

    # involution: sigma o sigma = id and x o sigma = x (frame construction
    # raises if either residual exceeds 2^(-prec/2))
    engine = shared_engine
    frames = engine.curve.frames(12)
    ok = ok and len(frames) == 2

    # partition-sum coefficients against Lagrange inversion, mu <= 8, d <= 3
    for d_max in (1, 2, 3):
        zx = invert_x_exact(d_max, 8)
        power = zx
        for i in range(1, d_max + 1):
            if i > 1:
                power = (power * zx).truncate(9)
            for mu in range(1, 9):
                ok = ok and power.coefficient(mu) == PruningKernel(d_max).c(mu, i)

    # loop equations: phi elements and the (0,3)/(1,1) forms
    with mpmath.workprec(engine.prec):
        tol = mpmath.mpf(10) ** (-engine.prec // 4)
        for frame in frames:
            basis = PhiBasis(engine.curve.W, 12, frame.a, engine.curve.negligible())
            for i in (1, 2):
                for k in (0, 1):
                    local = basis.phi(i, k)
                    sym = local + local.compose(frame.sigma)
                    scale = max(abs(co) for co in local.coeffs)
                    for e in range(sym.lo, 0):
                        ok = ok and abs(sym.coefficient(e)) < tol * scale
    ok = ok and engine.loop_equation_check(0, 3).ok
    ok = ok and engine.loop_equation_check(1, 1).ok

    report("criterion 8: property suites", ok)
