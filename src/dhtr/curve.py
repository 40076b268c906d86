"""Numeric instantiation of the rational curve x = z exp(-s P(z)), y = P(z).

Branch points are the zeros of w(z) = 1 - s z P'(z) (`w_poly`); each is
assumed simple and carries a local frame: the local involution sigma
exchanging the two sheets of x, its derivative and the recursion kernel
1/(omega_{0,1}(u) - omega_{0,1}(sigma(u)) sigma'(u)), where omega_{0,1} is
P(z) (1/z - s P'(z)) dz at z = a + u.  A frame composes omega_{0,1},
sigma and x with sigma, and the three compositions share sigma's powers
(`Series.pow_int`).  A curve builds its frames, and its z(x) at the
origin, once at the largest order requested so far; smaller orders get
truncated views of that build, which equal a fresh build bit for bit.
The module also hosts the x-inversion at the origin (numeric and exact),
the phi basis spanning the space of loop-equation solutions, as series at
one point (`PhiBasis`), and exact series checks of the closed forms for
the (0,1) and (0,2) generating functions.  The two-point coefficients are
read off the powers z(x)^k and z(x)^-k of one-variable series, as
`pow_int` keeps them (`two_point_coefficients`), over any ring.
`phi_fit` checks the polynomial structure of the pruned numbers exactly:
F_{g,n} in z lies in the span of the phi products of bounded degree.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, prod

import mpmath

from .cutjoin import DHTable
from .pruning import PruningTransform, p_series, x_of_z, x_of_z_series
from .series import ComplexRing, Poly, RationalRing, Series
from .weightpoly import WeightPolyRing

__all__ = [
    "CurveSpec", "BranchPointData", "SpectralCurve", "DegenerateCurveError",
    "invert_x_exact", "w_poly", "PhiBasis",
    "PhiFitReport", "phi_fit", "f01_check", "f02_check", "CheckReport",
    "two_point_coefficients",
]


# branch points closer than this, relative to the largest one, coincide
SEPARATION_REL = 1e-6


class DegenerateCurveError(ValueError):
    """Coincident branch points: the simple-branch-point recursion does not
    apply."""


def w_poly(ring, q, s) -> Poly:
    """w(z) = 1 - s z P'(z) over `ring`, for P(z) = sum_i q[i-1] z^i with
    q and s in `ring` (symbolic over weight polynomials)."""
    return Poly(ring, [ring.one] + [-s * ring.mul_rational(q_i, i) for i, q_i in enumerate(q, 1)])


def _seeds(coeffs: list[Fraction]) -> list[complex]:
    """Double-precision roots of sum_k coeffs[k] z^k by Durand-Kerner
    sweeps from the usual start on a circle that holds every root; stops
    when no estimate moves by 1e-12 of itself, or after 500 sweeps."""
    monic = [complex(c / coeffs[-1]) for c in coeffs[:-1]]
    radius = 1 + max(map(abs, monic))
    zs = [radius * (0.4 + 0.9j) ** k for k in range(len(monic))]
    for _ in range(500):
        converged = True
        for i, z in enumerate(zs):
            value = 1
            for c in reversed(monic):
                value = value * z + c
            den = prod(z - other for j, other in enumerate(zs) if j != i)
            if value and den:  # else an exact root, or estimates met on a multiple root
                step = value / den
                zs[i] = z - step
                converged = converged and abs(step) <= 1e-12 * abs(z)
        if converged:
            break
    return zs


def _newton(coeffs: list, z):
    """Newton on the polynomial with `coeffs` (highest degree first) from z,
    at the working precision; stops at an exact zero slope."""
    for _ in range(mpmath.mp.prec.bit_length() + 4):
        value, slope = mpmath.polyval(coeffs, z, derivative=True)
        if not slope:
            break
        z -= value / slope
    return z


def _check_separated(roots) -> None:
    scale = max(abs(r) for r in roots)
    for a, b in combinations(roots, 2):
        if abs(a - b) < SEPARATION_REL * scale:
            raise DegenerateCurveError(
                "coincident branch points; the curve is outside the "
                "simple-branch-point regime"
            )


@dataclass(frozen=True)
class CurveSpec:
    """Numeric curve instance: degree, exact rational weights, and working
    precision in bits."""

    d: int
    q_values: tuple[Fraction, ...]
    s_value: Fraction
    precision: int = 256

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if len(self.q_values) != self.d:
            raise ValueError("q_values must have length d")
        if self.q_values[-1] == 0:
            raise ValueError("q_d must be nonzero (P must have degree exactly d)")
        if self.s_value == 0:
            raise ValueError("s must be nonzero")
        if self.precision < 64:
            raise ValueError("precision must be at least 64 bits")

    @classmethod
    def make(cls, d: int, q_values, s_value, precision: int = 256) -> "CurveSpec":
        return cls(d, tuple(Fraction(v) for v in q_values), Fraction(s_value),
                   precision)


@dataclass
class BranchPointData:
    """Local data at the branch point a; every series is in u = z - a."""

    index: int
    a: object
    sigma: Series               # sigma(a+u) - a, linear coefficient -1
    sigma_prime: Series         # d sigma / du
    kernel: Series              # 1/(omega01(u) - omega01(sigma(u)) sigma'(u)), from u^-2


class SpectralCurve:
    def __init__(self, spec: CurveSpec):
        self.spec = spec
        self.prec = spec.precision
        self.ring = ComplexRing(self.prec)
        with mpmath.workprec(self.prec):
            self.s = self.ring.from_rational(spec.s_value)
            self.q = [self.ring.from_rational(v) for v in spec.q_values]
            # P(z) and w(z) = 1 - s z P'(z) as global polynomials
            self.P = Poly(self.ring, [self.ring.zero] + self.q)
            self.W = w_poly(self.ring, self.q, self.s)
        self._roots = None
        self._frames: list[BranchPointData] = []
        self._frames_order = 0
        self._zx: Series | None = None

    # ------------------------------------------------------------------
    # branch points

    def branch_points(self):
        """Roots of w(z) = 1 - s z P'(z): Durand-Kerner seeds in double
        precision, then Newton at prec + 32 bits on w built from the exact
        rationals, rounded once to prec.  A seed whose imaginary part is at
        most 1e-9 of the largest seed's modulus is snapped onto the real
        axis (a complex pair that close fails the separation test first)
        and polished in real arithmetic, so real roots are exactly real.
        Each complex root is polished in the upper half plane and paired
        with its conjugate.  So the roots are a function of the curve
        alone, not of the seeds."""
        if self._roots is not None:
            return self._roots
        w = w_poly(RationalRing(), self.spec.q_values, self.spec.s_value).coeffs
        seeds = _seeds(w)
        if not all(map(cmath.isfinite, seeds)):
            raise ArithmeticError(f"branch-point seeds are not finite: {seeds}")
        _check_separated(seeds)
        snap = 1e-9 * max(map(abs, seeds))
        reals = [z.real for z in seeds if abs(z.imag) <= snap]
        upper = [z for z in seeds if z.imag > snap]
        if len(reals) + 2 * len(upper) != len(seeds):
            raise ArithmeticError(f"branch-point seeds are not conjugate pairs: {seeds}")
        with mpmath.workprec(self.prec + 32):
            w_at = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(w)]
            polished = ([_newton(w_at, mpmath.mpf(z)) for z in reals]
                        + [_newton(w_at, mpmath.mpc(z)) for z in upper])
        with mpmath.workprec(self.prec):
            roots = [mpmath.mpc(+z) for z in polished]
            roots += [r.conjugate() for r in roots[len(reals):]]
            roots.sort(key=lambda r: (mpmath.re(r), mpmath.im(r)))
            # separation first: Newton converges only linearly on a multiple
            # root, so a residual check would misreport degeneracy
            _check_separated(roots)
            tol = mpmath.mpf(2) ** (-self.prec // 2)
            for r in roots:
                residual = abs(self.W(r))
                if residual > tol:
                    raise ArithmeticError(
                        f"branch point failed to polish: residual {residual}"
                    )
            self._roots = roots
        return self._roots

    # ------------------------------------------------------------------
    # local frames

    def negligible(self, scale=1):
        tol = mpmath.mpf(2) ** (-self.prec // 2) * scale
        return lambda c: abs(c) <= tol

    def frames(self, order: int) -> list[BranchPointData]:
        """Local data at every branch point; series windows cover exponents
        below `order`.  Built and self-checked only for an order above all
        earlier ones, which replaces the stored build; else truncated views.
        The kernel's first term, u^-2, needs order 4."""
        if order < 4:
            raise ValueError(f"frame order must be at least 4, got {order}")
        if order > self._frames_order:
            with mpmath.workprec(self.prec):
                self._frames = [self._frame(i, a, order) for i, a in enumerate(self.branch_points())]
            self._frames_order = order
        cut = self._frames_order - order
        return [BranchPointData(bp.index, bp.a, *(s.truncate(s.order - cut) for s in (
            bp.sigma, bp.sigma_prime, bp.kernel))) for bp in self._frames]

    def _frame(self, index: int, a, order: int) -> BranchPointData:
        ring = self.ring
        n = order + 2
        # x(a+u) = (a+u) exp(-s P(a)) exp(-s (P(a+u) - P(a)))
        p_local = self.P.shifted_series(a, "u", n)
        p_at = p_local.coefficient(0)
        p_tail = p_local - Series.constant(ring, "u", p_at, n)
        a_plus_u = Series.from_coeffs(ring, "u", [a, ring.one], n)
        x_series = (a_plus_u * p_tail.scale(-self.s).exp()).scale(
            mpmath.exp(-self.s * p_at))

        scale = max(abs(c) for c in x_series.coeffs)
        small = self.negligible(scale)
        if not small(x_series.coefficient(1)):
            raise ArithmeticError(f"dx does not vanish at branch point {index}")
        x2 = x_series.coefficient(2)
        if small(x2):
            raise DegenerateCurveError(
                f"vanishing second derivative of x at branch point {index}"
            )

        # involution via the normalized square-root coordinate:
        #   X(u) := x(a+u) - x(a) = x2 u^2 (1 + rho(u)),
        #   t(u) := u sqrt(1 + rho(u)),  sigma := t^{-1}(-t(u)).
        x_shift = Series(ring, "u", 0,
                         [ring.zero, ring.zero] + x_series.coeffs[2:], n)
        ratio = x_shift.shift(-2).strip_leading(ring.is_zero).scale(ring.invert(x2))
        # constant term is exactly 1 mathematically; clamp the half-ulp of
        # division noise so the series square root sees a unit constant
        ratio = Series(ring, "u", 0, [ring.one] + ratio.coeffs[1:], ratio.order)
        t = Series.identity(ring, "u", ratio.order + 1) * ratio.sqrt_unit()
        sigma = t.reversion().compose(-t)
        sigma_prime = sigma.derivative()
        self._check_involution(index, x_series, sigma, scale)

        # omega_{0,1} = P(z) (1/z - s P'(z)) dz locally and at sigma
        pprime = self.P.derivative().shifted_series(a, "u", order)
        omega01 = p_local.truncate(order) * (a_plus_u.inverse() - pprime.scale(self.s))
        omega01_sigma = omega01.compose(sigma) * sigma_prime
        scale01 = max(abs(c) for c in omega01.coeffs)
        dden = (omega01 - omega01_sigma).strip_leading(self.negligible(max(scale01, 1)))
        if dden.lo != 2:
            raise ArithmeticError(
                f"kernel denominator vanishes to order {dden.lo} (expected "
                f"exactly 2) at branch point {index}"
            )
        return BranchPointData(index, a, sigma, sigma_prime, dden.inverse())

    def _check_involution(self, index: int, x_series: Series, sigma: Series, scale) -> None:
        # sigma o sigma = id and x o sigma = x to the available window
        double = sigma.compose(sigma)
        ident = Series.identity(self.ring, "u", double.order)
        err1 = max(abs(c) for c in (double - ident).coeffs)
        comp = x_series.compose(sigma) - x_series
        err2 = max(abs(c) for c in comp.coeffs)
        tol = mpmath.mpf(2) ** (-self.prec // 2) * max(scale, 1)
        if err1 > tol or err2 > tol:
            raise ArithmeticError(
                f"involution failed self-check at branch point {index}: "
                f"sigma o sigma residual {err1}, x o sigma residual {err2}"
            )

    # ------------------------------------------------------------------
    # x-inversion at the origin

    def invert_x_numeric(self, order: int) -> Series:
        """z(x) with x(z(x)) = x, trusted through exponent `order`.  Built
        only for an order above all earlier ones, which replaces the stored
        build; else a truncated view, as for the frames."""
        if order < 1:
            raise ValueError("order must be at least 1")
        if self._zx is None or order >= self._zx.order:
            with mpmath.workprec(self.prec):
                xz = x_of_z(self.P.to_series("x", order + 1), self.s)
                self._zx = xz.reversion()  # already in the x variable
        return self._zx.truncate(order + 1)


def invert_x_exact(d_max: int, order: int) -> Series:
    """z(x) over weight polynomials (q's and s symbolic), trusted through
    exponent `order`: the exact reversion of x(z)."""
    return x_of_z_series(d_max, order + 1).reversion().rename("x")


# ----------------------------------------------------------------------
# the phi basis


class PhiBasis:
    """phi_{-1}^i = z^i and phi_{k+1}^i = (z / w) d/dz phi_k^i, for
    w = `w_poly(...)`, as Laurent series in u = z - a.

    Every phi_k^i with k >= 0 has poles only at the branch points and its
    sigma-symmetrization is analytic there; together these span the space
    of rational functions with that property.

    z = a + u and z / w are expanded once at `a` (the origin by default)
    to the window `order`; at a numeric branch point `negligible` drops
    w's rounded head.  By the product rule phi_k^i keeps `order` at the
    origin, ends at order - k - 1 at a regular point, and spans
    [-(2k+1), order - 2k - 2) at a branch point.
    """

    def __init__(self, w: Poly, order: int, a=None, negligible=None):
        ring = w.ring
        a = ring.zero if a is None else a
        self.z = Series.from_coeffs(ring, "u", [a, ring.one], order)
        w_local = w.shifted_series(a, "u", order).strip_leading(negligible or ring.is_zero)
        self.z_over_w = (self.z * w_local.inverse()).strip_leading(ring.is_zero)
        self._cache: dict[tuple[int, int], Series] = {}

    def phi(self, i: int, k: int) -> Series:
        if i < 1 or k < -1:
            raise ValueError("need i >= 1 and k >= -1")
        key = (i, k)
        if key not in self._cache:
            if k == -1:
                self._cache[key] = self.z.pow_int(i)
            else:
                self._cache[key] = self.z_over_w * self.phi(i, k - 1).derivative()
        return self._cache[key]


@dataclass
class PhiFitReport:
    """The exact fit of F_{g,n} in the symmetrized phi products.

    `coefficients` maps each sorted product ((i_1, k_1), ..., (i_n, k_n))
    to its rational coefficient; it is empty when the system is
    inconsistent."""

    g: int
    n: int
    degree_bound: int
    box: int
    equations: int
    unknowns: int
    rank: int
    consistent: bool
    coefficients: dict

    @property
    def ok(self) -> bool:
        # fail closed: a system with no more equations than its rank is
        # solvable whatever its right side
        return self.consistent and self.equations > self.rank


def phi_fit(transform: PruningTransform, q_values, s_value, g: int, n: int) -> PhiFitReport:
    """Fit F_{g,n}(z_1..z_n) = sum PH_{g,n}(nu) prod z_j^nu_j, at rational
    weights, as a combination of the symmetrized products
    prod_j (phi_{k_j}^{i_j}(z_j) - phi_{k_j}^{i_j}(0)) with
    sum_j k_j <= 3g - 3 + n, by Gaussian elimination over Q.

    There is one equation per canonical nu in the box [1..N]^n; the
    equations read coefficients at exponents nu_j >= 1, so the centring
    constants never enter.  N starts at the smallest box with more
    equations than unknowns and grows while the system is consistent and
    short of full rank; the table's caps end the growth with
    ResourceLimitError."""
    if g < 0 or n < 1:
        raise ValueError(f"forms need g >= 0 and n >= 1, got (g, n) = ({g}, {n})")
    if 2 * g - 2 + n <= 0:
        raise ValueError("stable forms require 2g - 2 + n > 0")
    spec = CurveSpec.make(transform.table.d_max, q_values, s_value)
    q, s = list(spec.q_values), spec.s_value
    w = w_poly(RationalRing(), q, s)
    bound = 3 * g - 3 + n
    labels = [(i, k) for i in range(1, spec.d + 1) for k in range(bound + 1)]
    unknowns = [c for c in combinations_with_replacement(labels, n)
                if sum(k for _, k in c) <= bound]
    orderings = [set(permutations(c)) for c in unknowns]

    box = 1
    while comb(box + n - 1, n) <= len(unknowns):
        box += 1
    pivots: list[tuple[int, list]] = []
    equations, consistent, done = 0, True, 0
    while True:
        basis = PhiBasis(w, box + 1)
        phis = {label: basis.phi(*label) for label in labels}
        for nu in combinations_with_replacement(range(box, 0, -1), n):
            if nu[0] <= done:
                continue
            row = [sum(prod(phis[label].coefficient(e) for label, e in zip(p, nu))
                       for p in ps) for ps in orderings]
            row.append(transform.ph(g, nu).specialize(q, s))
            equations += 1
            consistent = _eliminate(pivots, row) and consistent
        if not consistent or len(pivots) == len(unknowns):
            break
        done, box = box, box + 1

    solution: dict[int, Fraction] = {}
    if consistent:
        for col, row in reversed(pivots):  # full rank: every column a pivot
            solution[col] = row[-1] - sum(row[j] * x for j, x in solution.items())
    coefficients = {unknowns[col]: x for col, x in sorted(solution.items())}
    return PhiFitReport(g, n, bound, box, equations, len(unknowns), len(pivots),
                        consistent, coefficients)


def _eliminate(pivots: list, row: list) -> bool:
    """Reduce `row` (coefficients, then the right side) by the pivot rows
    and keep it as a new pivot row if anything is left of its coefficients.
    Each pivot row is zero at the pivots before it, so reducing in order
    clears them all.  False iff the row reduces to 0 = nonzero."""
    for col, pivot in pivots:
        factor = row[col]
        if factor:
            row = [a - factor * b for a, b in zip(row, pivot)]
    col = next((j for j, a in enumerate(row[:-1]) if a), None)
    if col is None:
        return not row[-1]
    pivots.append((col, [a / row[col] for a in row]))
    return True


# ----------------------------------------------------------------------
# exact closed-form checks for the (0,1) and (0,2) generating functions


@dataclass
class CheckReport:
    ok: bool
    detail: str = ""


def f01_check(d_max: int, order: int) -> CheckReport:
    """x d/dx F_{0,1}(x) = P(z(x)) as exact series: the left side comes from
    the recursion table, the right from exact reversion."""
    if order < 1:
        raise ValueError(f"closed-form checks need order >= 1, got {order}")
    table = DHTable(d_max)
    ring = WeightPolyRing(d_max)
    coeffs = [ring.zero] + [table.dh(0, (mu,)).scale(mu) for mu in range(1, order + 1)]
    lhs = Series.from_coeffs(ring, "x", coeffs, order + 1)
    zx = invert_x_exact(d_max, order + 1)
    rhs = p_series(ring, order + 1).compose(zx).truncate(order + 1)
    ok = lhs == rhs
    return CheckReport(ok, "" if ok else _first_series_diff(lhs, rhs))


def two_point_coefficients(zx: Series, mu_max: int) -> dict[tuple[int, int], object]:
    """[x1^m x2^n] log((z(x1) - z(x2)) / (x1 - x2)) for 1 <= m, n <= mu_max,
    with z = zx(x), over zx's ring: the Grunsky coefficients of z,

        -sum_{k=1}^{n} (1/k) [x^n] z^k [x^m] z^-k,

    from d/dx2 log(z1 - z2) = -sum_k z2^k z2' / z1^(k+1); log(x1 - x2) has
    no mixed coefficients with m >= 1.  [x^m] z^-k reads z through
    x^(m+k+1), so zx needs the window 2 mu_max + 2; a shorter one raises
    TruncationError."""
    up, down = zx.truncate(mu_max + 1), zx.inverse()
    out = {(m, n): zx.ring.zero for n in range(1, mu_max + 1) for m in range(1, mu_max + 1)}
    for k in range(1, mu_max + 1):
        pos, weighted = up.pow_int(k), down.pow_int(k).scale(Fraction(-1, k))
        for n in range(k, mu_max + 1):
            zk = pos.coefficient(n)
            for m in range(1, mu_max + 1):
                out[m, n] = out[m, n] + zk * weighted.coefficient(m)
    return out


def f02_check(d_max: int, order: int) -> CheckReport:
    """The closed form of F_{0,2},

        -log((x_1 - x_2) / (z_1 - z_2)) - s P(z_1) - s P(z_2),

    with z_i = z(x_i), expanded at the origin, must reproduce DH_{0,2}
    coefficient by coefficient, exactly.  s P(z_i) has no mixed
    coefficients, so the expansion is `two_point_coefficients` of the exact
    z(x); both orderings of each pair are read against the symmetric
    table, as the Grunsky form is not symmetric on its face."""
    if order < 1:
        raise ValueError(f"closed-form checks need order >= 1, got {order}")
    table = DHTable(d_max)
    coeffs = two_point_coefficients(invert_x_exact(d_max, 2 * order + 1), order)
    for mu2 in range(1, order + 1):
        for mu1 in range(1, order + 1):
            got = coeffs[mu1, mu2]
            if got != table.dh(0, (mu1, mu2)):
                return CheckReport(False, f"first mismatch at (mu1, mu2) = ({mu1}, {mu2})")
            if not got.s_coefficient(0).is_zero():
                return CheckReport(False, f"nonzero s^0 part at ({mu1}, {mu2})")
    return CheckReport(True)


def _first_series_diff(a: Series, b: Series) -> str:
    for k in range(min(a.order, b.order)):
        if a.coefficient(k) != b.coefficient(k):
            return f"first differing coefficient at exponent {k}"
    return "windows differ"
