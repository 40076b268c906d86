"""Wave function and quantum curve check, fully exact.

The wave function is the principal specialization p_i = x^i of the
exponential generating function of the recursion table:

    log psi = sum_{g,n,mu} DH_{g,n}(mu) hbar^(2g-2+n) x^(|mu|) / n!.

It is annihilated by the operator

    Q = yhat - sum_k q_k exp(s hbar k (k-1) / 2) xhat^k exp(s k yhat),

with yhat = hbar x d/dx acting on monomials as yhat x^m = hbar m x^m.  All
coefficients live in the exact weight-polynomial ring, so the residual of
Q psi is a polynomial identity: every retained cell must be the exact zero.

Truncation bookkeeping: a cell x^k hbar^j of psi mixes log-psi data with
hbar-grading up to j + k - 1 (each hbar^{-1} factor carries at least one
power of x), so the builder populates the recursion table adaptively from
that bound rather than from the display window alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial

from .cutjoin import DHTable
from .pruning import p_series
from .series import Series
from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["WaveFunction", "QuantumCurveReport", "apply_quantum_curve",
           "semiclassical_check", "f01_from_quantum_curve"]

Cell = tuple[int, int]  # (x degree, hbar degree)


class WaveFunction:
    """Exact cells psi[(k, j)] for x-degree k <= K; the hbar window keeps
    j <= L + K - 1 internally so that both the quantum-curve residual cells
    and the log-consistency check are exact."""

    def __init__(self, table: DHTable, K: int, L: int):
        if K < 1 or L < 0:
            raise ValueError("need K >= 1 and L >= 0")
        self.table = table
        self.d_max = table.d_max
        self.K = K
        self.L = L
        self.L_ext = L + K - 1
        self.log_cells = self._build_log()
        self.cells = self._exponentiate(self.log_cells)

    # ------------------------------------------------------------------

    def _coverage(self):
        """(g, n, mu) triples whose monomials can reach a stored cell:
        2g - 2 + n <= L_ext + K - |mu| and |mu| <= K."""
        for n in range(1, self.K + 1):
            g = 0
            while True:
                euler = 2 * g - 2 + n
                if euler > self.L_ext + self.K - n:
                    break
                # ordered mu with |mu| <= cap: the gaps between n
                # increasing partial sums, in lexicographic order
                cap = self.K - max(0, euler - self.L_ext)
                for sums in combinations(range(1, cap + 1), n):
                    yield g, tuple(b - a for a, b in zip((0,) + sums, sums))
                g += 1

    def _build_log(self) -> dict[Cell, WeightPolynomial]:
        cells: dict[Cell, WeightPolynomial] = {}
        for g, mu in self._coverage():
            n = len(mu)
            value = self.table.dh(g, mu)
            if value.is_zero():
                continue
            key = (sum(mu), 2 * g - 2 + n)
            scaled = value / factorial(n)
            cells[key] = cells.get(key, self.table.ring.zero) + scaled
        return {key: value for key, value in cells.items() if not value.is_zero()}

    def _truncated_mul(self, a: dict[Cell, WeightPolynomial],
                       b: dict[Cell, WeightPolynomial]) -> dict[Cell, WeightPolynomial]:
        out: dict[Cell, WeightPolynomial] = {}
        for (k1, j1), c1 in a.items():
            for (k2, j2), c2 in b.items():
                k, j = k1 + k2, j1 + j2
                if k > self.K or j > self.L_ext:
                    continue
                prod = c1 * c2
                if prod.is_zero():
                    continue
                key = (k, j)
                out[key] = out.get(key, self.table.ring.zero) + prod
        return {key: value for key, value in out.items() if not value.is_zero()}

    def _exponentiate(self, logpsi) -> dict[Cell, WeightPolynomial]:
        one = self.table.ring.one
        acc = {(0, 0): one}
        term = {(0, 0): one}
        # every log cell has x-degree >= 1, so the series terminates at K
        for p in range(1, self.K + 1):
            term = self._truncated_mul(term, logpsi)
            term = {key: value / p for key, value in term.items()}
            if not term:
                break
            for key, value in term.items():
                acc[key] = acc.get(key, self.table.ring.zero) + value
        return {key: value for key, value in acc.items() if not value.is_zero()}

    # ------------------------------------------------------------------

    def cell(self, k: int, j: int) -> WeightPolynomial:
        return self.cells.get((k, j), self.table.ring.zero)

    def log_matches_direct_sum(self) -> bool:
        """Invariant: log of the stored series equals the direct sum, cell
        by cell, on the exact window (and the hbar grading of each log cell
        is pinned to 2g - 2 + n by construction)."""
        # log via the alternating series sum_p (-1)^(p+1) G^p / p, G = psi - 1
        g_cells = dict(self.cells)
        g_cells[(0, 0)] = g_cells.get((0, 0), self.table.ring.zero) - self.table.ring.one
        g_cells = {k: v for k, v in g_cells.items() if not v.is_zero()}
        acc: dict[Cell, WeightPolynomial] = {}
        term = {(0, 0): self.table.ring.one}
        for p in range(1, self.K + 1):
            term = self._truncated_mul(term, g_cells)
            sign = Fraction(1 if p % 2 else -1, p)
            for key, value in term.items():
                acc[key] = acc.get(key, self.table.ring.zero) + value.scale(sign)
        acc = {k: v for k, v in acc.items() if not v.is_zero()}
        # compare on the window where both sides are exact: j <= L_ext - (k-1)
        keys = {k for k in (set(acc) | set(self.log_cells))
                if k[1] <= self.L_ext - (k[0] - 1)}
        for key in keys:
            if acc.get(key, self.table.ring.zero) != self.log_cells.get(
                    key, self.table.ring.zero):
                return False
        return True


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
    every one must be the exact zero polynomial."""
    d = wf.d_max
    s = WeightPolynomial.s(d)
    k_cap = wf.K - d
    j_cap = wf.L - 1
    residuals: dict[Cell, WeightPolynomial] = {}
    checked: list[Cell] = []

    # yhat psi: (m, j) <- m * psi[m, j-1]
    for m in range(0, k_cap + 1):
        for j in range(-m, j_cap + 1):
            total = wf.cell(m, j - 1).scale(m)
            for k in range(1, d + 1):
                if m - k < 0:
                    continue
                qk = WeightPolynomial.q(k, d)
                # exp(s hbar k(k-1)/2) * xhat^k * exp(s k yhat) on psi:
                # the cell (m-k, j') contributes through both exponentials
                mu = m - k
                # exp(s k yhat) x^mu = sum_t (s k mu)^t hbar^t / t! x^mu
                for j_src in range(-mu, j + 1):
                    src = wf.cell(mu, j_src)
                    if src.is_zero():
                        continue
                    budget = j - j_src
                    for t in range(0, budget + 1):
                        r = budget - t
                        # hbar^t from exp(s k yhat), hbar^r from the scalar
                        coeff = (Fraction(k * mu, 1) ** t / factorial(t)) * (
                            Fraction(k * (k - 1), 2) ** r / factorial(r))
                        if coeff == 0 and (t or r):
                            continue
                        piece = src * (s ** (t + r)).scale(coeff)
                        total = total - qk * piece
            checked.append((m, j))
            if not total.is_zero():
                residuals[(m, j)] = total
    return QuantumCurveReport(d, wf.K, wf.L, residuals, checked)


def semiclassical_check(d: int, order: int = 10) -> bool:
    """Replace operators by commuting variables and hbar by 0: the relation
    y = P(x exp(s y)) must hold identically under x = z exp(-s P(z)),
    y = P(z), as exact series in z."""
    ring = WeightPolyRing(d)
    s = WeightPolynomial.s(d)
    p = p_series(ring, order)
    x = Series.identity(ring, "z", order) * p.scale(s).scale(-1).exp()
    arg = x * p.scale(s).exp()          # x exp(s y) with y = P(z)
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
