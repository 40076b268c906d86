import pytest

from dhtr.cutjoin import DHTable
from dhtr.quantum import (
    WaveFunction,
    apply_quantum_curve,
    f01_from_quantum_curve,
    semiclassical_check,
)
from dhtr.series import TruncationError
from dhtr.weightpoly import WeightPolynomial


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


def test_log_check_detects_a_perturbed_cell():
    wf = WaveFunction(DHTable(2), K=4, L=1)
    assert wf.log_matches_direct_sum()
    row = wf.psi.coeffs[2]                     # x^2, hbar^j stored at h^(j+2)
    row.coeffs[2] = row.coeffs[2] + WeightPolynomial.q(1, 2)   # psi(2, 0)
    assert not wf.log_matches_direct_sum()


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


def test_semiclassical_limit():
    assert semiclassical_check(1, order=10)
    assert semiclassical_check(2, order=10)
    assert semiclassical_check(3, order=8)


def test_f01_rederivation():
    assert f01_from_quantum_curve(1, 8)
    assert f01_from_quantum_curve(2, 8)
