"""Wave function and quantum curve check, fully exact.

The wave function is the principal specialization p_i = x^i of the
exponential generating function of the recursion table:

    log psi = sum_{g,n,mu} DH_{g,n}(mu) hbar^(2g-2+n) x^(|mu|) / n!.

It is annihilated by the operator

    Q = yhat - sum_k q_k exp(s hbar k (k-1) / 2) xhat^k exp(s k yhat),

with yhat = hbar x d/dx acting on monomials as yhat x^m = hbar m x^m.  All
coefficients live in the exact weight-polynomial ring, so the residual of
Q psi is a polynomial identity: every retained cell must be the exact zero.

Truncation bookkeeping: the hbar degree j of a cell x^k hbar^j is never
below -k, since every hbar^-1 comes with at least one power of x.  Cells are
therefore graded by j + k, which for a log cell is 2g - 2 + n + |mu| >= 0.
log psi is one Series in x, to x^K, whose coefficients are power series in
h, to h^(L+K); the cell x^k hbar^j sits at x^k h^(j+k).  Products add this
grading and it is never negative, so psi = exp(log psi) is exact on the
whole window and only table entries with 2g - 2 + n + |mu| <= L + K are
read.  A cell past the window raises TruncationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count
from math import factorial

from .cutjoin import DHTable
from .pruning import p_series, x_of_z_series
from .series import Series, SeriesRing
from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["WaveFunction", "QuantumCurveReport", "apply_quantum_curve",
           "semiclassical_check", "f01_from_quantum_curve"]

Cell = tuple[int, int]  # (x degree, hbar degree)


def _cells(series: Series) -> dict[Cell, WeightPolynomial]:
    """The nonzero coefficients of a nested series in x over h, keyed
    (x degree k, hbar degree j) with h^(j+k) the inner exponent."""
    return {(k, jk - k): c
            for k, inner in enumerate(series.coeffs, series.lo)
            for jk, c in enumerate(inner.coeffs, inner.lo) if not c.is_zero()}


class WaveFunction:
    """Exact psi and log psi on the window k <= K, j + k <= L + K, where k
    is the x-degree and j the hbar-degree; `psi` and `log_psi` are nested
    Series (x over h^(j+k)), `cells` and `log_cells` their nonzero cells."""

    def __init__(self, table: DHTable, K: int, L: int):
        if K < 1 or L < 0:
            raise ValueError("need K >= 1 and L >= 0")
        self.table = table
        self.d_max = table.d_max
        self.K = K
        self.L = L
        self.J = L + K
        self.log_psi = self._build_log()
        self.psi = self.log_psi.exp()

    # ------------------------------------------------------------------

    def _coverage(self):
        """(g, mu) with |mu| <= K and 2g - 2 + n + |mu| <= J: every table
        entry that reaches a cell of the window."""
        for n in range(1, self.K + 1):
            for g in count():
                cap = min(self.K, self.J - (2 * g - 2 + n))
                if cap < n:
                    break
                # ordered mu with |mu| <= cap: the gaps between n
                # increasing partial sums, in lexicographic order
                for sums in combinations(range(1, cap + 1), n):
                    yield g, tuple(b - a for a, b in zip((0,) + sums, sums))

    def _build_log(self) -> Series:
        ring = self.table.ring
        grid = [[ring.zero] * (self.J + 1) for _ in range(self.K + 1)]
        for g, mu in self._coverage():
            value = self.table.dh(g, mu)
            if not value.is_zero():
                n, k = len(mu), sum(mu)
                grid[k][2 * g - 2 + n + k] += value / factorial(n)
        rows = [Series(ring, "h", 0, row, self.J + 1) for row in grid]
        return Series(SeriesRing(ring, "h", self.J + 1), "x", 0, rows, self.K + 1)

    # ------------------------------------------------------------------

    @property
    def cells(self) -> dict[Cell, WeightPolynomial]:
        return _cells(self.psi)

    @property
    def log_cells(self) -> dict[Cell, WeightPolynomial]:
        return _cells(self.log_psi)

    def cell(self, k: int, j: int) -> WeightPolynomial:
        """psi at x^k hbar^j: zero for j + k < 0, TruncationError past the
        window."""
        return self.psi.coefficient(k).coefficient(j + k)

    def log_matches_direct_sum(self) -> bool:
        """Invariant: log of the stored series equals the direct sum on the
        whole window (and the hbar grading of each log cell is pinned to
        2g - 2 + n by construction)."""
        # log via the alternating series sum_p (-1)^(p+1) G^p / p, G = psi - 1;
        # every cell of G has x-degree >= 1, so K terms reach x^K
        ring, order = self.psi.ring, self.K + 1
        g_series = self.psi - Series.constant(ring, "x", ring.one, order)
        acc = Series.zero(ring, "x", order)
        term = Series.constant(ring, "x", ring.one, order)
        for p in range(1, self.K + 1):
            term = term * g_series
            acc = acc + term.scale(Fraction(1 if p % 2 else -1, p))
        return acc == self.log_psi


@dataclass
class QuantumCurveReport:
    d: int
    K: int
    L: int
    residuals: dict[Cell, WeightPolynomial]
    checked_cells: list[Cell]

    @property
    def ok(self) -> bool:
        return not self.residuals


def apply_quantum_curve(wf: WaveFunction) -> QuantumCurveReport:
    """Residual cells of Q psi for x-degree <= K - d and hbar-degree <= L-1;
    every one must be the exact zero polynomial.  A cell (m, j) can be
    nonzero only for m >= 1 and j >= 1 - m, so the check needs
    K - d >= max(1, 2 - L): below that every checked cell is zero whatever
    the table."""
    d = wf.d_max
    if wf.K <= d:
        raise ValueError(f"the quantum-curve check needs K > d (got K={wf.K}, "
                         f"d={d}): every cell it would check is zero for any table")
    if wf.K - d < 2 - wf.L:
        raise ValueError(f"the quantum-curve check at L={wf.L} needs K > d + 1 "
                         f"(got K={wf.K}, d={d}): every cell it would check is "
                         f"zero for any table")
    k_cap = wf.K - d
    j_cap = wf.L - 1
    residuals: dict[Cell, WeightPolynomial] = {}
    checked: list[Cell] = []

    # yhat psi: (m, j) <- m * psi[m, j-1]
    for m in range(0, k_cap + 1):
        for j in range(-m, j_cap + 1):
            total = wf.cell(m, j - 1).scale(m)
            for k in range(1, min(m, d) + 1):
                qk = WeightPolynomial.q(k, d)
                # exp(s hbar k(k-1)/2) xhat^k exp(s k yhat) takes the cell
                # (mu, j_src) of psi, mu = m - k, to hbar^(j_src + b) with
                # weight sum_{t+r=b} (s k mu)^t/t! (s k(k-1)/2)^r/r!, which is
                # (s rate)^b / b! with rate = k mu + k(k-1)/2
                mu = m - k
                rate = Fraction(k * (2 * mu + k - 1), 2)
                for j_src in range(-mu, j + 1):
                    src = wf.cell(mu, j_src)
                    if src.is_zero():
                        continue
                    b = j - j_src
                    piece = src.mul_s_power(b).scale(rate ** b / factorial(b))
                    total = total - qk * piece
            checked.append((m, j))
            if not total.is_zero():
                residuals[(m, j)] = total
    return QuantumCurveReport(d, wf.K, wf.L, residuals, checked)


def semiclassical_check(d: int, order: int = 10) -> bool:
    """Replace operators by commuting variables and hbar by 0: the relation
    y = P(x exp(s y)) must hold identically under x = z exp(-s P(z)),
    y = P(z), as exact series in z."""
    p = p_series(WeightPolyRing(d), order)
    arg = x_of_z_series(d, order) * p.scale(WeightPolynomial.s(d)).exp()  # x exp(s y)
    rhs = p.compose(arg)                # P(x exp(s y))
    return rhs == p.truncate(rhs.order)


def f01_from_quantum_curve(d: int, order: int) -> bool:
    """The hbar^(-1) layer of Q psi = 0: with G(x) = x d/dx F_{0,1}(x),
    the scalar relation G = sum_k q_k x^k exp(s k G) holds exactly."""
    table = DHTable(d)
    ring = table.ring
    s = WeightPolynomial.s(d)
    n = order + 1
    coeffs = [ring.zero] + [table.dh(0, (mu,)).scale(mu) for mu in range(1, order + 1)]
    g_series = Series.from_coeffs(ring, "x", coeffs, n)
    total = g_series
    x_pow = Series.constant(ring, "x", ring.one, n)
    x1 = Series.identity(ring, "x", n)
    for k in range(1, d + 1):
        x_pow = (x_pow * x1).truncate(n)
        qk = WeightPolynomial.q(k, d)
        expo = g_series.scale(s).scale(k).exp()
        total = total - (x_pow * expo).scale(qk)
    return total.is_zero()
