"""Wave function and quantum curve check, fully exact.

The wave function is the principal specialization p_i = x^i of the
exponential generating function of the recursion table:

    log psi = sum_{g,n,mu} DH_{g,n}(mu) hbar^(2g-2+n) x^(|mu|) / n!.

It is annihilated by the operator

    Q = yhat - sum_k q_k exp(s hbar k (k-1) / 2) xhat^k exp(s k yhat),

with yhat = hbar x d/dx acting on monomials as yhat x^m = hbar m x^m.  All
coefficients are exact, so the residual of Q psi is a polynomial identity:
every retained cell must be the exact zero.

Truncation bookkeeping: the hbar degree j of a cell x^k hbar^j is never
below -k, since every hbar^-1 comes with at least one power of x.  Cells are
therefore graded by h = j + k, which for a log cell is 2g - 2 + n + |mu| >= 0.
log psi is one Series in x, to x^K, over the packed ring CellRing: the
x^k coefficient holds every cell x^k hbar^j with 0 <= j + k <= J = L + K.
In such a cell every monomial q_lambda s^m has |lambda| = k and
m = j + len(lambda), so the exponents of q_2..q_d fix the monomial and the
cell stores one rational per exponent vector.  Products add k, h and the
exponents, and h is never negative, so psi = exp(log psi) is exact on the
whole window and only table entries with 2g - 2 + n + |mu| <= J are read.
A cell past the window raises TruncationError; reading a cell decodes it
to a WeightPolynomial.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

from .cutjoin import DHTable, partitions_of
from .pruning import p_series, x_of_z_series
from .series import Series, TruncationError, _pack, _unpack
from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["WaveFunction", "CellRing", "QuantumCurveReport", "apply_quantum_curve",
           "semiclassical_check", "f01_from_quantum_curve"]

Cell = tuple[int, int]  # (x degree, hbar degree)


class CellRow:
    """One x^k coefficient of psi or log psi: integer slots over one
    positive denominator, reduced by gcd.  Immutable."""

    __slots__ = ("num", "den")

    def __init__(self, num: tuple[int, ...], den: int = 1):
        g = gcd(den, *num)
        if g > 1:
            num, den = tuple(v // g for v in num), den // g
        self.num, self.den = num, den

    def __add__(self, other: "CellRow") -> "CellRow":
        if not any(other.num):
            return self
        if not any(self.num):
            return other
        g = gcd(self.den, other.den)
        fa, fb = other.den // g, self.den // g
        return CellRow(tuple(a * fa + b * fb for a, b in zip(self.num, other.num)),
                       self.den * fa)

    def __neg__(self) -> "CellRow":
        return CellRow(tuple(-v for v in self.num), self.den)

    def __sub__(self, other: "CellRow") -> "CellRow":
        return self + (-other)

    def __mul__(self, other: "CellRow") -> "CellRow":
        # Slot t of the product is the sum of a[i] * b[t - i].  The slot
        # index h*S + code adds under products without carries: a factor
        # at x^a has e_i <= a // i, the series product forms x^a * x^b only
        # for a + b <= K, and a // i + b // i <= K // i is below the digit
        # base.  So the product of the packed ints is the packed product,
        # cut at h <= J by keeping the lowest n slots.  As in
        # ComplexRing.convolve_fixed, a slot sums at most n products, each
        # below 2**(bits_a + bits_b), so it is below
        # 2**(bits_a+bits_b+bitlen(n)); one more bit holds the sign.
        a, b = self.num, other.num
        n = len(a)
        w = (max(map(int.bit_length, a)) + max(map(int.bit_length, b))
             + n.bit_length() + 1)
        return CellRow(tuple(_unpack(_pack(a, w) * _pack(b, w), w, n)),
                       self.den * other.den)


class CellRing:
    """Coefficient ring of the x-series psi and log psi; each coefficient
    is a CellRow.  At x^k, slot h*S + code(e_2..e_d) holds the cell
    x^k hbar^(h-k) for 0 <= h <= J: code is the mixed-radix number with
    digit e_i in base K // i + 1, e_2 least significant, and S is the
    number of codes.  The exponents of q_1 and s follow from k, h and the
    code, so they are not stored."""

    def __init__(self, d_max: int, K: int, J: int):
        self.d_max, self.K, self.J = d_max, K, J
        self.bases = [K // i + 1 for i in range(2, d_max + 1)]
        self.S = prod(self.bases)
        self.digits = []                 # code -> (e_2, ..., e_d)
        for code in range(self.S):
            exps = []
            for base in self.bases:
                code, e = divmod(code, base)
                exps.append(e)
            self.digits.append(tuple(exps))
        self.zero = CellRow((0,) * ((J + 1) * self.S))
        self.one = CellRow((1,) + self.zero.num[1:])

    def mul_rational(self, x: CellRow, value) -> CellRow:
        value = Fraction(value)
        return CellRow(tuple(v * value.numerator for v in x.num),
                       x.den * value.denominator)

    def is_zero(self, x: CellRow) -> bool:
        return not any(x.num)

    def __eq__(self, other):
        return (isinstance(other, CellRing)
                and (other.d_max, other.K, other.J) == (self.d_max, self.K, self.J))

    def fits(self, k: int, j: int, poly: WeightPolynomial) -> bool:
        """Whether the cell x^k hbar^j lies in the window and every monomial
        q_lambda s^m of poly has |lambda| = k and m = j + len(lambda), the
        grading that leaves q_1 and s implicit."""
        return (0 <= k <= self.K and 0 <= j + k <= self.J
                and all(sum(i * e for i, e in enumerate(qexps, 1)) == k
                        and m == j + sum(qexps) for qexps, m, _ in poly.monomials()))

    def encode(self, k: int, pieces) -> CellRow:
        """The x^k row holding the sum of the (hbar degree j, polynomial)
        pairs in `pieces`; a polynomial that does not fit its cell raises
        ValueError."""
        slots: dict[int, Fraction] = {}
        for j, poly in pieces:
            if not self.fits(k, j, poly):
                raise ValueError(f"{poly} does not fit the cell x^{k} hbar^{j} "
                                 f"(window k <= {self.K}, j + k <= {self.J})")
            for qexps, m, coeff in poly.monomials():
                code = 0
                for e, base in zip(reversed(qexps[1:]), reversed(self.bases)):
                    code = code * base + e
                slot = (j + k) * self.S + code
                slots[slot] = slots.get(slot, 0) + coeff
        den = lcm(*(c.denominator for c in slots.values()))
        num = list(self.zero.num)
        for slot, c in slots.items():
            num[slot] = c.numerator * (den // c.denominator)
        return CellRow(tuple(num), den)

    def decode(self, k: int, x: CellRow, j: int) -> WeightPolynomial:
        """The cell x^k hbar^j of the x^k row x: zero for j + k < 0,
        TruncationError past the window."""
        h = j + k
        if h > self.J:
            raise TruncationError(
                f"coefficient of h^{h} beyond truncation order {self.J + 1}")
        terms = {}
        if h >= 0:
            for code, v in enumerate(x.num[h * self.S:(h + 1) * self.S]):
                if v:
                    rest = self.digits[code]
                    e1 = k - sum(i * e for i, e in enumerate(rest, 2))
                    terms[(e1,) + rest + (j + e1 + sum(rest),)] = Fraction(v, x.den)
        return WeightPolynomial(self.d_max, terms)


class WaveFunction:
    """Exact psi and log psi on the window k <= K, j + k <= L + K, where k
    is the x-degree and j the hbar-degree; `psi` and `log_psi` are Series
    in x over `ring` (a CellRing), `cells` and `log_cells` their nonzero
    cells.  A table value that does not fit the grading of its log cell
    cannot be stored; it goes to `off_grading`, and the quantum-curve
    report fails on it."""

    def __init__(self, table: DHTable, K: int, L: int):
        if K < 1 or L < 0:
            raise ValueError("need K >= 1 and L >= 0")
        self.table = table
        self.d_max = table.d_max
        self.K = K
        self.L = L
        self.J = L + K
        self.ring = CellRing(self.d_max, K, self.J)
        self.off_grading: dict[Cell, WeightPolynomial] = {}
        self.log_psi = self._build_log()
        self.psi = self.log_psi.exp()

    # ------------------------------------------------------------------

    def _build_log(self) -> Series:
        # log psi sums DH_{g,n}(mu) / n! over ordered mu, so a partition mu
        # with part multiplicities m_i enters once with weight 1 / prod m_i!;
        # only entries with 2g - 2 + n + |mu| <= J reach the window
        pieces = [[] for _ in range(self.K + 1)]
        for k in range(1, self.K + 1):
            for mu in partitions_of(k):
                n = len(mu)
                weight = Fraction(1, prod(map(factorial, Counter(mu).values())))
                for g in range((self.J - (n + k - 2)) // 2 + 1):
                    value = self.table.dh(g, mu)
                    if value.is_zero():
                        continue
                    j, value = 2 * g - 2 + n, value.scale(weight)
                    if self.ring.fits(k, j, value):
                        pieces[k].append((j, value))
                    else:   # a table defect: kept apart and failed by the check
                        self.off_grading[(k, j)] = (
                            self.off_grading.get((k, j), self.table.ring.zero) + value)
        rows = [self.ring.encode(k, cells) for k, cells in enumerate(pieces)]
        return Series(self.ring, "x", 0, rows, self.K + 1)

    def _cells(self, series: Series) -> dict[Cell, WeightPolynomial]:
        out = {}
        for k, row in enumerate(series.coeffs, series.lo):
            for h in range(self.J + 1):
                cell = self.ring.decode(k, row, h - k)
                if not cell.is_zero():
                    out[(k, h - k)] = cell
        return out

    # ------------------------------------------------------------------

    @property
    def cells(self) -> dict[Cell, WeightPolynomial]:
        return self._cells(self.psi)

    @property
    def log_cells(self) -> dict[Cell, WeightPolynomial]:
        return self._cells(self.log_psi)

    def cell(self, k: int, j: int) -> WeightPolynomial:
        """psi at x^k hbar^j: zero for j + k < 0, TruncationError past the
        window."""
        return self.ring.decode(k, self.psi.coefficient(k), j)

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
    residuals: dict[Cell, WeightPolynomial]
    checked_cells: list[Cell]
    off_grading: dict[Cell, WeightPolynomial]

    @property
    def ok(self) -> bool:
        return not self.residuals and not self.off_grading


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
    return QuantumCurveReport(residuals, checked, dict(wf.off_grading))


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
    x1 = Series.identity(ring, "x", n)
    for k in range(1, d + 1):
        qk = WeightPolynomial.q(k, d)
        expo = g_series.scale(s).scale(k).exp()
        total = total - (x1.pow_int(k) * expo).scale(qk)
    return total.is_zero()
