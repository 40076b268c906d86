from itertools import count, product
from math import factorial

import pytest

from dhtr.cutjoin import DHTable
from dhtr.quantum import (
    WaveFunction,
    apply_quantum_curve,
    f01_from_quantum_curve,
    semiclassical_check,
)
from dhtr.series import Series, TruncationError
from dhtr.weightpoly import WeightPolynomial, WeightPolyRing
from nested_series import SeriesRing


@pytest.fixture(scope="module")
def wf2():
    return WaveFunction(DHTable(2), K=6, L=2)


def test_wave_function_base_cells(wf2):
    one = WeightPolynomial.one(2)
    assert wf2.cell(0, 0) == one          # the empty cover
    assert wf2.cell(0, 1).is_zero()
    # x^1 hbar^-1 cell is DH_{0,1}(1) = q_1
    assert wf2.cell(1, -1) == WeightPolynomial.q(1, 2)
    # hbar floor: cells below hbar^-k at x^k cannot occur
    assert all(j >= -k for (k, j) in wf2.cells)


def test_log_cells_graded_by_euler_characteristic(wf2):
    # the hbar^-1 layer of log psi is the (0,1) generating function
    table = wf2.table
    for k in range(1, 7):
        assert wf2.log_cells.get((k, -1)) == table.dh(0, (k,))
    # the hbar^0 layer collects (0,2) with the 1/2! symmetry factor
    expected = table.ring.zero
    for a in range(1, 4):
        expected = expected + table.dh(0, (a, 4 - a)) / 2
    assert wf2.log_cells.get((4, 0)) == expected


def test_log_consistency(wf2):
    assert wf2.log_matches_direct_sum()


def _perturb(wf, k, j, poly):
    """Add poly to the stored cell psi(k, j)."""
    wf.psi.coeffs[k] = wf.psi.coeffs[k] + wf.ring.encode(k, [(j, poly)])


def test_log_check_detects_a_perturbed_cell():
    # q_1 is implicit in the packed cells: the +q_1 of psi(2, 0) is +1 on
    # its slot without q_2, the monomial q_1^2 s^2; a bare q_1 has weight 1
    # and does not fit an x^2 cell
    wf = WaveFunction(DHTable(2), K=4, L=2)
    assert wf.log_matches_direct_sum() and apply_quantum_curve(wf).ok
    with pytest.raises(ValueError, match="does not fit the cell x\\^2 hbar\\^0"):
        _perturb(wf, 2, 0, WeightPolynomial.q(1, 2))
    q1q1s2 = WeightPolynomial.monomial((2, 0), 2, 1, 2)
    before = wf.cell(2, 0)
    _perturb(wf, 2, 0, q1q1s2)
    assert wf.cell(2, 0) == before + q1q1s2
    assert not wf.log_matches_direct_sum()
    report = apply_quantum_curve(wf)
    assert not report.ok and report.residuals


def test_log_check_detects_a_perturbed_q3_slot():
    # a q_3 monomial sits in a slot with a nonzero e_3 digit, so the check
    # only sees it if the slot code decodes right
    wf = WaveFunction(DHTable(3), K=6, L=2)
    assert wf.log_matches_direct_sum() and apply_quantum_curve(wf).ok
    q3s = WeightPolynomial.monomial((0, 0, 1), 1, 1, 3)       # psi(3, 0) has q_3 s
    before = wf.cell(3, 0)
    _perturb(wf, 3, 0, q3s)
    assert wf.cell(3, 0) == before + q3s
    assert not wf.log_matches_direct_sum()
    report = apply_quantum_curve(wf)
    assert not report.ok and report.residuals


def _reference_psi(table, K, L):
    """psi and log psi built from ordered mu as nested Series, x over h
    with the cell x^k hbar^j at h^(j+k), over SeriesRing(WeightPolyRing)."""
    ring, J = WeightPolyRing(table.d_max), L + K
    grid = [[ring.zero] * (J + 1) for _ in range(K + 1)]
    for n in range(1, K + 1):
        for g in count():
            if 2 * g - 2 + n + n > J:
                break
            for mu in product(range(1, K + 1), repeat=n):
                k, h = sum(mu), 2 * g - 2 + n + sum(mu)
                if k <= K and h <= J:
                    grid[k][h] = grid[k][h] + table.dh(g, mu) / factorial(n)
    rows = [Series(ring, "h", 0, row, J + 1) for row in grid]
    log_psi = Series(SeriesRing(ring, "h", J + 1), "x", 0, rows, K + 1)
    return log_psi.exp(), log_psi


def _nested_cells(series):
    return {(k, h - k): c for k, inner in enumerate(series.coeffs)
            for h, c in enumerate(inner.coeffs) if not c.is_zero()}


@pytest.mark.parametrize("d,K,L", [(1, 5, 2), (1, 7, 3), (2, 6, 2), (2, 8, 3),
                                   (3, 5, 1), (3, 7, 2)])
def test_cells_match_nested_series_reference(d, K, L):
    table = DHTable(d)
    wf = WaveFunction(table, K=K, L=L)
    psi, log_psi = _reference_psi(table, K, L)
    assert wf.cells == _nested_cells(psi)
    assert wf.log_cells == _nested_cells(log_psi)
    assert all(wf.cell(k, j) == c for (k, j), c in _nested_cells(psi).items())


def test_cell_window(wf2):
    # the window is k <= K = 6 and j + k <= L + K = 8
    assert not wf2.cell(6, 2).is_zero()
    assert wf2.cell(3, -4).is_zero()           # below the hbar floor
    for k, j in [(6, 3), (0, 9), (7, -7)]:
        with pytest.raises(TruncationError):
            wf2.cell(k, j)


def test_quantum_curve_exact_zero_residuals(wf2):
    report = apply_quantum_curve(wf2)
    assert report.ok
    assert report.checked_cells  # the verdict window is non-empty
    assert all(k <= 6 - 2 and j <= 1 for (k, j) in report.checked_cells)


def test_quantum_curve_d1():
    wf = WaveFunction(DHTable(1), K=6, L=2)
    report = apply_quantum_curve(wf)
    assert report.ok


def test_residual_detects_wrong_table():
    # corrupting one table entry must break the identity (guards against a
    # vacuous verdict window)
    table = DHTable(2)
    wf = WaveFunction(table, K=4, L=2)
    key = (0, (2,))
    good = table.dh(0, (2,))
    table._memo[key] = good + WeightPolynomial.q(1, 2)
    wf_bad = WaveFunction(table, K=4, L=2)
    report = apply_quantum_curve(wf_bad)
    assert not report.ok
    # q_1 has weight 1, so it cannot sit in the x^2 cell: a table defect
    assert list(report.off_grading) == [(2, -1)]
    # a corruption that fits the grading (q_1^2 s in DH_{0,1}(2)) must
    # show as nonzero residuals of Q psi
    table._memo[key] = good + WeightPolynomial.monomial((2, 0), 1, 1, 2)
    report = apply_quantum_curve(WaveFunction(table, K=4, L=2))
    assert not report.off_grading and report.residuals and not report.ok


def test_semiclassical_limit():
    assert semiclassical_check(1, order=10)
    assert semiclassical_check(2, order=10)
    assert semiclassical_check(3, order=8)


def test_f01_rederivation():
    assert f01_from_quantum_curve(1, 8)
    assert f01_from_quantum_curve(2, 8)
