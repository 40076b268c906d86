"""Truncated power and Laurent series over pluggable coefficient rings.

One engine serves three coefficient rings: exact rationals, weight
polynomials, and high-precision complex numbers.  The same reversion, exp
and composition code therefore runs both for exact identity checks and for
the numeric recursion on the spectral curve.  A ring element times a
rational is `ring.mul_rational`: weight polynomials scale their
coefficients rather than multiply by a constant.

A series carries an explicit window [lo, order): coefficients for exponents
below lo are exactly zero, coefficients at or above `order` are unknown.
Truncation order is explicit state and every operation propagates it with
the min rule; nothing silently extends precision.

Over the exact rings products, recurrences and sums are the schoolbook
loops.  Over ComplexRing every numeric sum of products is exact in ints
and rounded once, by one step (`_to_mpc`): the real and imaginary part of
each output coefficient, divided by an int where the sum has one, rounded
to nearest at mpmath.mp.prec.  Three exact primitives make the sums: a
Series product is one convolution (ComplexRing.convolve_fixed); `inverse`
and `exp` are one recurrence (`_recurrence`), each coefficient one sum
over the earlier ones; `compose` and the TR step, which contracts before
it rounds, sum scaled fixed lists with `_fixed_sum`.  A Series converts
its coefficients to that exact fixed-point form once, on its first use as
a factor, so a series that enters many products (a power's base, a
kernel, a basis element) is converted once; a recurrence converts each
output once.  A non-finite (inf or nan) coefficient in an input raises
ArithmeticError; for a Series the message names the variable.

The powers of a series are one list kept on it (`pow_int`): each power is
the previous one times the series, and composition, reversion and every
other reader of one series' powers share them; the negative powers are
those of its inverse, kept on it too.  Reversion is Lagrange inversion:
one inverse h and the coefficients of its powers h^n, N - 2 products at
order N.
"""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from itertools import zip_longest
from operator import mul

import mpmath
from mpmath.libmp import fzero

__all__ = [
    "AlgebraError",
    "RingMismatchError",
    "TruncationError",
    "RationalRing",
    "ComplexRing",
    "Series",
    "Poly",
]


class AlgebraError(ValueError):
    """Raised when a series operation violates its preconditions."""


class RingMismatchError(AlgebraError):
    pass


class TruncationError(AlgebraError):
    """Raised when a coefficient beyond the trusted window is requested."""


class RationalRing:
    zero = Fraction(0)
    one = Fraction(1)

    def from_rational(self, value):
        return Fraction(value)

    def mul_rational(self, x, value):
        return x * Fraction(value)

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise ZeroDivisionError("division by zero rational")
        return Fraction(1) / x

    def __eq__(self, other):
        return isinstance(other, RationalRing)

    def __repr__(self):
        return "RationalRing()"


def _fixed_point(coeffs):
    """Real and imaginary parts of mpc (or mpf) coefficients as exact
    signed ints on the smallest exponent of any nonzero part: returns
    (re, im, exp, bits) with |part| < 2**bits, or None if all are zero."""
    parts = [p for c in coeffs
             for p in (getattr(c, "_mpc_", None) or (c._mpf_, fzero))]
    live = [p for p in parts if p[1]]
    if len(live) < len(parts) and any(exp for _, man, exp, _ in parts if not man):
        raise ArithmeticError("non-finite coefficient (inf or nan)")
    if not live:
        return None
    emin = min(exp for _, _, exp, _ in live)
    bits = max(exp + bc for _, _, exp, bc in live) - emin
    ints = [(-man if sign else man) << (exp - emin) if man else 0
            for sign, man, exp, _ in parts]
    return ints[0::2], ints[1::2], emin, bits


def _rounded(v, e, prec, divisor=1):
    """The mpf tuple of the int v times 2**e, divided by the positive int
    divisor, rounded to nearest (ties to even) at prec bits: for divisor 1,
    from_man_exp(v, e, prec, round_nearest) inline."""
    if not v:
        return fzero
    sign = 0
    if v < 0:
        sign, v = 1, -v
    if divisor != 1:
        # at least prec + 2 quotient bits, then one sticky bit that is set
        # when the division leaves a remainder
        shift = max(prec + 2 + divisor.bit_length() - v.bit_length(), 0)
        v, rest = divmod(v << shift, divisor)
        v = v << 1 | (rest != 0)
        e -= shift + 1
    n = v.bit_length() - prec
    if n > 0:
        t = v >> (n - 1)  # the kept bits and the first dropped bit
        if t & 1 and (t & 2 or v & ((1 << (n - 1)) - 1)):
            v = (t >> 1) + 1
        else:
            v = t >> 1
        e += n
    zeros = (v & -v).bit_length() - 1  # trailing zero bits
    v >>= zeros
    return (sign, v, e + zeros, v.bit_length())


def _fixed_sum(terms):
    """The exact sum of x * v over the terms (x, v): x = (re, im, exp) is
    one fixed value, v = (re ints, im ints, exp, ...) a fixed list as
    `_fixed_point` makes it, None for all zeros, and a shorter list counts
    as padded with zeros.  Returns the fixed list (re ints, im ints, exp)
    on the smallest exponent of any term; no terms give ([], [], 0)."""
    terms = [(x, v) for x, v in terms if v and v[0]]
    e = min((x[2] + v[2] for x, v in terms), default=0)
    rows_r, rows_i = [], []
    for (xr, xi, ex), v in terms:
        s = ex + v[2] - e
        rows_r.append([(xr * a - xi * b) << s for a, b in zip(v[0], v[1])])
        rows_i.append([(xr * b + xi * a) << s for a, b in zip(v[0], v[1])])
    return ([sum(col) for col in zip_longest(*rows_r, fillvalue=0)],
            [sum(col) for col in zip_longest(*rows_i, fillvalue=0)], e)


def _to_mpc(re, im, e, divisor=1):
    """The exact value (re + i im) * 2**e, divided by the positive int
    divisor, as an mpc: each part rounded once, to nearest at
    mpmath.mp.prec.  The one step from an exact sum to mpc; a zero part,
    such as the imaginary part over a real curve, costs no call."""
    prec = mpmath.mp.prec
    return mpmath.mp.make_mpc((_rounded(re, e, prec, divisor) if re else fzero,
                               _rounded(im, e, prec, divisor) if im else fzero))


def _recurrence(ring, first, a, n, divisor):
    """The coefficients c_0 = first, c_1, .., c_(n-1) of
    c_m = (sum_{0<k<=m} a_k c_(m-k)) / divisor[m], with a_k = a[k-1]: the
    recurrence of `Series.inverse` (divisor 1) and of `Series.exp`
    (divisor m).  Over ComplexRing `a` is one fixed list (re ints, im ints,
    exp) and each c_m is one exact sum, divided by divisor[m] and rounded
    once; each new coefficient is converted once, and the outputs move to
    a smaller exponent only when a coefficient needs it.  Over the exact
    rings `a` holds ring elements and the sum is the schoolbook loop."""
    out = [first]
    if isinstance(ring, ComplexRing):
        ar, ai, ea = a
        (r,), (i,), e, _ = _fixed_point([first])
        re, im = [r], [i]
        for m in range(1, n):
            xr, xi = re[m - 1::-1], im[m - 1::-1]  # c_(m-1), .., c_0
            c = _to_mpc(sum(map(mul, ar, xr)) - sum(map(mul, ai, xi)),
                        sum(map(mul, ar, xi)) + sum(map(mul, ai, xr)), ea + e, divisor[m])
            out.append(c)
            (r,), (i,), ec, _ = _fixed_point([c]) or ((0,), (0,), e, 0)
            if ec < e:
                re[:] = [v << (e - ec) for v in re]
                im[:] = [v << (e - ec) for v in im]
                e = ec
            re.append(r << (ec - e))
            im.append(i << (ec - e))
        return out
    for m in range(1, n):
        acc = ring.zero
        for x, y in zip(a, out[::-1]):  # a_k c_(m-k), k = 1, .., m
            if not ring.is_zero(x):
                acc = acc + x * y
        out.append(acc if divisor[m] == 1 else ring.mul_rational(acc, Fraction(1, divisor[m])))
    return out


def _pack(values, width):
    """sum(v * 2**(width*k)): one int with a signed slot per value."""
    acc = 0
    for v in reversed(values):
        acc = (acc << width) + v
    return acc


def _unpack(packed, width, n):
    """The lowest n signed slots of `packed`; each slot must lie strictly
    between -2**(width-1) and 2**(width-1)."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    for _ in range(n):
        v = packed & mask
        packed >>= width
        if v >= half:  # a negative slot borrowed one from the slot above
            v -= 1 << width
            packed += 1
        out.append(v)
    return out


class ComplexRing:
    """mpmath complex numbers; callers set the working precision via
    mpmath.workprec around whole computations.

    Every numeric sum of products is exact, from one of three primitives
    (`convolve_fixed`, `_recurrence`, `_fixed_sum`), and rounded once per
    real and imaginary part, to nearest at mpmath.mp.prec, by `_to_mpc`.
    A non-finite input coefficient raises ArithmeticError."""

    def __init__(self, precision: int):
        if precision < 64:
            raise ValueError("precision must be at least 64 bits")
        self.precision = precision
        self.zero = mpmath.mpc(0)
        self.one = mpmath.mpc(1)
        self._rationals = {}  # (value, mpmath.mp.prec) -> from_rational(value)

    def from_rational(self, value):
        value = Fraction(value)
        return mpmath.mpc(mpmath.mpf(value.numerator) / value.denominator)

    def mul_rational(self, x, value):
        # the same few small rationals recur; each is converted once per
        # working precision, with the bits from_rational gives
        key = (value, mpmath.mp.prec)
        c = self._rationals.get(key)
        if c is None:
            c = self._rationals[key] = self.from_rational(value)
        return x * c

    def is_zero(self, x) -> bool:
        return not x

    def invert(self, x):
        if not x:
            raise ZeroDivisionError("division by zero")
        return 1 / x

    def convolve_fixed(self, fa, fb, n):
        """The first n coefficients of the product of two coefficient lists,
        from their `_fixed_point` forms, by Kronecker substitution: each
        list's parts are packed into one big int, so each of the three Gauss
        products Ar*Br, Ai*Bi and (Ar+Ai)*(Br+Bi) is a single int
        multiplication.  Only the first n ints of a form enter, and the
        exact product, hence every rounded bit, does not depend on the
        common exponent or the bit bound the form was made with."""
        if fa is None or fb is None:
            return [self.zero] * n
        (ar, ai, ea, bits_a), (br, bi, eb, bits_b) = fa, fb
        ar, ai, br, bi = ar[:n], ai[:n], br[:n], bi[:n]
        # A slot of (Ar+Ai)(Br+Bi) sums at most min(len) products, each below
        # 2**(bits_a+1) * 2**(bits_b+1) in size, so it is below
        # 2**(bits_a+bits_b+2+bitlen(min(len))); one more bit holds the sign.
        w = bits_a + bits_b + min(len(ar), len(br)).bit_length() + 3
        pa_r, pa_i, pb_r, pb_i = (_pack(v, w) for v in (ar, ai, br, bi))
        p1 = pa_r * pb_r
        p2 = pa_i * pb_i
        re = _unpack(p1 - p2, w, n)
        im = (_unpack((pa_r + pa_i) * (pb_r + pb_i) - p1 - p2, w, n)
              if pa_i or pb_i else [0] * n)
        e = ea + eb
        return [_to_mpc(x, y, e) for x, y in zip(re, im)]

    def __eq__(self, other):
        return isinstance(other, ComplexRing) and other.precision == self.precision

    def __repr__(self):
        return f"ComplexRing({self.precision})"


def _product(ring, a, b, n):
    """The first n coefficients of the product of the coefficient lists a
    and b over an exact ring: the schoolbook sum."""
    out = [ring.zero] * n
    zero = ring.is_zero
    for i, x in enumerate(a[:n]):
        if zero(x):
            continue
        for j, y in enumerate(b[: n - i]):
            if not zero(y):
                out[i + j] = out[i + j] + x * y
    return out


class Series:
    """Truncated Laurent series: sum of coeffs[k] * var**(lo + k) plus an
    unknown tail O(var**order).

    A coefficient list is never mutated after the series is built: over
    ComplexRing its fixed-point form is kept on the series at its first
    use as a factor (`_fixed_form`) and serves every later product, and
    its powers and inverse are kept as `pow_int` makes them (`_powers`)."""

    __slots__ = ("ring", "var", "lo", "coeffs", "order", "_fixed", "_powers")

    def __init__(self, ring, var: str, lo: int, coeffs: list, order: int):
        if order - lo != len(coeffs):
            raise AlgebraError("window length inconsistent with coefficients")
        self.ring = ring
        self.var = var
        self.lo = lo
        self.coeffs = coeffs
        self.order = order

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, ring, var: str, order: int) -> "Series":
        lo = min(0, order)
        return cls(ring, var, lo, [ring.zero] * (order - lo), order)

    @classmethod
    def constant(cls, ring, var: str, value, order: int) -> "Series":
        if order <= 0:
            return cls.zero(ring, var, order)
        return cls(ring, var, 0, [value] + [ring.zero] * (order - 1), order)

    @classmethod
    def identity(cls, ring, var: str, order: int) -> "Series":
        """The series var itself."""
        if order <= 1:
            return cls.zero(ring, var, order)
        return cls(ring, var, 0, [ring.zero, ring.one] + [ring.zero] * (order - 2), order)

    @classmethod
    def from_coeffs(cls, ring, var: str, coeffs: list, order: int, lo: int = 0) -> "Series":
        values = [ring.from_rational(c) if isinstance(c, (int, Fraction)) else c
                  for c in coeffs]
        if len(values) < order - lo:
            values = values + [ring.zero] * (order - lo - len(values))
        return cls(ring, var, lo, values[: order - lo], order)

    # ------------------------------------------------------------------
    # window management

    def _check(self, other: "Series") -> None:
        if self.var != other.var:
            raise RingMismatchError(f"variable mismatch: {self.var} vs {other.var}")
        if self.ring != other.ring:
            raise RingMismatchError("coefficient ring mismatch")

    def coefficient(self, exponent: int):
        if exponent >= self.order:
            raise TruncationError(
                f"coefficient of {self.var}^{exponent} beyond truncation order {self.order}"
            )
        if exponent < self.lo:
            return self.ring.zero
        return self.coeffs[exponent - self.lo]

    def truncate(self, order: int) -> "Series":
        order = min(order, self.order)
        lo = min(self.lo, order)
        return Series(self.ring, self.var, lo, self.coeffs[: order - lo], order)

    def shift(self, k: int) -> "Series":
        """Multiply by var**k."""
        return Series(self.ring, self.var, self.lo + k, list(self.coeffs), self.order + k)

    def rename(self, var: str) -> "Series":
        """Same coefficients under a new variable tag (for reversion, whose
        output is a function of the original series' value)."""
        return Series(self.ring, var, self.lo, list(self.coeffs), self.order)

    def strip_leading(self, negligible) -> "Series":
        """Advance lo past coefficients deemed negligible by the predicate."""
        coeffs = list(self.coeffs)
        lo = self.lo
        while coeffs and negligible(coeffs[0]):
            coeffs.pop(0)
            lo += 1
        return Series(self.ring, self.var, lo, coeffs, self.order)

    def valuation(self) -> int:
        """Exponent of the first coefficient that is not exactly zero."""
        for k, c in enumerate(self.coeffs):
            if not self.ring.is_zero(c):
                return self.lo + k
        return self.order

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        if self.var != other.var or self.ring != other.ring or self.order != other.order:
            return False
        lo = min(self.lo, other.lo)
        for e in range(lo, self.order):
            a = self.coeffs[e - self.lo] if e >= self.lo else self.ring.zero
            b = other.coeffs[e - other.lo] if e >= other.lo else other.ring.zero
            if not self.ring.is_zero(a - b):
                return False
        return True

    __hash__ = None

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other: "Series") -> "Series":
        self._check(other)
        order = min(self.order, other.order)
        lo = min(self.lo, other.lo, order)
        coeffs = [self.ring.zero] * (order - lo)
        for src in (self, other):
            for k, c in enumerate(src.coeffs):
                e = src.lo + k
                if lo <= e < order:
                    coeffs[e - lo] = coeffs[e - lo] + c
        return Series(self.ring, self.var, lo, coeffs, order)

    def __neg__(self) -> "Series":
        return Series(self.ring, self.var, self.lo, [-c for c in self.coeffs], self.order)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __mul__(self, other: "Series") -> "Series":
        self._check(other)
        lo = self.lo + other.lo
        order = min(self.lo + other.order, other.lo + self.order)
        n = max(order - lo, 0)
        with self._naming_errors():
            if isinstance(self.ring, ComplexRing):
                coeffs = self.ring.convolve_fixed(self._fixed_form(), other._fixed_form(), n)
            else:
                coeffs = _product(self.ring, self.coeffs, other.coeffs, n)
        return Series(self.ring, self.var, min(lo, order), coeffs, order)

    @contextmanager
    def _naming_errors(self):
        """An ArithmeticError raised inside (a non-finite coefficient) is
        raised again with this series' variable named."""
        try:
            yield
        except ArithmeticError as exc:
            raise ArithmeticError(f"{exc} in a series in {self.var}") from None

    def _fixed_form(self):
        """_fixed_point of the whole coefficient list, made on first use."""
        try:
            return self._fixed
        except AttributeError:
            self._fixed = _fixed_point(self.coeffs)
            return self._fixed

    def scale(self, value) -> "Series":
        if isinstance(value, (int, Fraction)):
            mul = self.ring.mul_rational
            coeffs = [mul(c, value) for c in self.coeffs]
        else:
            coeffs = [c * value for c in self.coeffs]
        return Series(self.ring, self.var, self.lo, coeffs, self.order)

    def inverse(self) -> "Series":
        """Multiplicative inverse; the lowest not-exactly-zero coefficient
        must be invertible (numeric series with below-noise heads must
        strip_leading with a tolerance first).  The `_recurrence`
        out_m = sum_{0<k<=m} (-c_k / c_0) out_(m-k); over ComplexRing 1/c_0
        is rounded first and each out_m is one exact sum, rounded once."""
        self = self.strip_leading(self.ring.is_zero)
        if not self.coeffs:
            raise AlgebraError("division by series with zero leading coefficient")
        ring, coeffs = self.ring, self.coeffs
        c0_inv = ring.invert(coeffs[0])
        n = len(coeffs)
        with self._naming_errors():
            if isinstance(ring, ComplexRing):
                (ar,), (ai,), ea, _ = _fixed_point([c0_inv])
                cr, ci, ec, _ = _fixed_point(coeffs[1:]) or ([], [], 0, 0)
                # -c0_inv * c_k, exact
                a = ([ai * y - ar * x for x, y in zip(cr, ci)],
                     [-(ar * y + ai * x) for x, y in zip(cr, ci)], ea + ec)
            else:
                a = [-(c * c0_inv) for c in coeffs[1:]]
            out = _recurrence(ring, c0_inv, a, n, [1] * n)
        return Series(ring, self.var, -self.lo, out, -self.lo + n)

    def pow_int(self, exponent: int) -> "Series":
        """self ** exponent; a negative exponent powers the inverse.  The
        powers are one list kept on the series (`_powers`), each the
        previous power times self, so every reader shares one product chain;
        the inverse is kept beside it, so the negative powers are its list.
        A new working precision starts anew.  self ** k has the window
        [k lo, k lo + order - lo), and [0, max(order - lo, 1)) at k = 0."""
        if exponent == 0:
            return Series.constant(self.ring, self.var, self.ring.one,
                                   max(self.order - self.lo, 1))
        prec, powers, inverse = getattr(self, "_powers", (None, None, None))
        if prec != mpmath.mp.prec:
            powers, inverse = [self], None
        if exponent < 0 and inverse is None:
            inverse = self.inverse()
        self._powers = (mpmath.mp.prec, powers, inverse)
        if exponent < 0:
            return inverse.pow_int(-exponent)
        while len(powers) < exponent:
            powers.append(powers[-1] * self)
        return powers[exponent - 1]

    # ------------------------------------------------------------------
    # calculus

    def derivative(self) -> "Series":
        """Termwise derivative.  A power series (lo = 0) keeps lo = 0: the
        constant term's image at exponent -1 is an exact zero and is not
        stored."""
        lo, coeffs = self.lo, self.coeffs
        if lo == 0 and coeffs:
            lo, coeffs = 1, coeffs[1:]
        out = [self.ring.mul_rational(c, lo + k) for k, c in enumerate(coeffs)]
        return Series(self.ring, self.var, lo - 1, out, self.order - 1)

    def exp(self) -> "Series":
        """exp of a series with zero constant term and no negative part:
        the `_recurrence` g_m = (sum_{0<k<=m} k f_k g_(m-k)) / m; over
        ComplexRing each g_m is one exact sum, divided by m, rounded once."""
        if self.lo < 0 and any(not self.ring.is_zero(c) for c in self.coeffs[: -self.lo]):
            raise AlgebraError("exp requires lowest exponent >= 1")
        if self.lo <= 0 and self.order > 0 and not self.ring.is_zero(self.coefficient(0)):
            raise AlgebraError("exp requires zero constant term")
        ring, n = self.ring, self.order
        if n <= 0:
            return Series.zero(ring, self.var, n)
        f = [self.coefficient(k) for k in range(n)]
        with self._naming_errors():
            if isinstance(ring, ComplexRing):
                fr, fi, ef, _ = _fixed_point(f[1:]) or ([], [], 0, 0)
                a = ([k * x for k, x in enumerate(fr, 1)],
                     [k * y for k, y in enumerate(fi, 1)], ef)
            else:
                a = [ring.mul_rational(c, k) for k, c in enumerate(f[1:], 1)]
            g = _recurrence(ring, ring.one, a, n, range(n))
        return Series(ring, self.var, 0, g, n)

    # ------------------------------------------------------------------
    # composition and reversion

    def compose(self, inner: "Series") -> "Series":
        """Substitute `inner` (valuation v >= 1) for this series' variable:
        the power sum of the c_k times inner.pow_int(k), so compositions
        with one inner share its powers.  A Laurent outer (lo < 0) is the
        sum for var**-lo times the outer, times inner.pow_int(lo).

        The window ends where an unknown term enters: the outer's tail at
        v * self.order, or the tail of the lowest power inner**k, k >= 1,
        the sum reads.  Over ComplexRing each coefficient is one exact sum
        of the c_k times the powers' fixed forms, rounded once; a
        non-finite outer coefficient raises ArithmeticError naming this
        series' variable.  The exact rings use the schoolbook sum."""
        if inner.lo < 1 and any(not inner.ring.is_zero(c) for c in inner.coeffs[: 1 - inner.lo]):
            raise AlgebraError("composition requires inner valuation >= 1")
        if self.ring != inner.ring:
            raise RingMismatchError("coefficient ring mismatch in composition")
        self = self.strip_leading(self.ring.is_zero)
        val = max(inner.valuation(), 1)
        top = self.order * val
        if self.lo < 0:
            return (self.shift(-self.lo).compose(inner) * inner.pow_int(self.lo)).truncate(top)
        ring = inner.ring
        order = min(top, inner.order + inner.lo * (max(self.lo, 1) - 1))
        lo = min(self.lo * inner.lo, order)
        n = order - lo
        # (outer index, power, offset of the power's lo in the output)
        terms = [(i, inner.pow_int(k), (k - self.lo) * inner.lo)
                 for i, k in enumerate(range(self.lo, self.order))
                 if k * val < order and not ring.is_zero(self.coeffs[i])]
        if isinstance(ring, ComplexRing):
            with self._naming_errors():
                cr, ci, ec, _ = self._fixed_form() or ([], [], 0, 0)
            with inner._naming_errors():
                forms = [(i, p._fixed_form(), off) for i, p, off in terms]
            re, im, e = _fixed_sum(
                ((cr[i], ci[i], ec), ([0] * off + f[0][: n - off],
                                      [0] * off + f[1][: n - off], f[2]))
                for i, f, off in forms if f)
            coeffs = [_to_mpc(r, i, e) for r, i in zip(re, im)] + [ring.zero] * (n - len(re))
        else:
            coeffs = [ring.zero] * n
            for i, p, off in terms:
                for j, x in enumerate(p.coeffs[: n - off], off):
                    if not ring.is_zero(x):
                        coeffs[j] = coeffs[j] + self.coeffs[i] * x
        return Series(ring, inner.var, lo, coeffs, order)

    def reversion(self) -> "Series":
        """Compositional inverse g of f = c1*var + O(var^2), by Lagrange
        inversion: [var^n] g = (1/n) [var^(n-1)] h^n with h = var / f.  At
        order N that is one inverse and N - 2 products; over the exact
        rings it is the exact inverse series."""
        if self.lo > 1 or (self.lo <= 0 and self.order > 0 and
                           not self.ring.is_zero(self.coefficient(0))):
            raise AlgebraError("reversion requires a series with zero constant term")
        if self.order < 2:
            raise AlgebraError("reversion needs at least the linear coefficient")
        c1 = self.coefficient(1)
        if self.ring.is_zero(c1):
            raise AlgebraError("reversion requires an invertible linear coefficient")
        ring, var, target = self.ring, self.var, self.order
        h = Series(ring, var, 0, [self.coefficient(k) for k in range(1, target)],
                   target - 1).inverse()
        g = [ring.mul_rational(h.pow_int(n).coeffs[n - 1], Fraction(1, n))
             for n in range(1, target)]
        return Series(ring, var, 0, [ring.zero] + g, target)


class Poly:
    """Dense univariate polynomial over a ring, for globally defined
    objects like P(z) and w(z) = 1 - s z P'(z): evaluation, derivative and
    expansion as a series at a point.  Arithmetic happens on the series."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs: list):
        self.ring = ring
        self.coeffs = list(coeffs) if coeffs else [ring.zero]

    def derivative(self) -> "Poly":
        mul = self.ring.mul_rational
        return Poly(self.ring, [mul(c, k) for k, c in enumerate(self.coeffs) if k])

    def __call__(self, x):
        acc = self.ring.zero
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shifted_series(self, a, var: str, order: int) -> "Series":
        """The Taylor expansion p(a + u) as a series in u (exact: p is a
        polynomial, so the window is only limited by `order`)."""
        au = Series.constant(self.ring, var, a, order) + Series.identity(self.ring, var, order)
        acc = Series.zero(self.ring, var, order)
        for c in reversed(self.coeffs):
            acc = acc * au + Series.constant(self.ring, var, c, order)
        return acc

    def to_series(self, var: str, order: int) -> "Series":
        return Series.from_coeffs(self.ring, var, list(self.coeffs), order)
