"""Sparse polynomials in the vertex weights q_1..q_d and the branch-point
counter s, with exact rational coefficients.

Every double Hurwitz number computed by this package is a value of this type:
a weighted homogeneous polynomial whose monomial q_lambda * s^m records covers
with ramification profile lambda over zero and m simple branch points.

A term is keyed by an exponent tuple of length d_max + 1: the first d_max
entries are the exponents of q_1..q_{d_max}, the last is the exponent of s.
Zero coefficients are never stored.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

__all__ = [
    "WeightPolynomial",
    "WeightPolyRing",
    "parse_rational",
    "format_rational",
]


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into an exact rational. Floats are rejected."""
    text = text.strip()
    num, slash, den = text.partition("/")
    try:
        if "." in text or "e" in text.lower():
            raise ValueError
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"expected exact rational 'p/q', got {text!r}") from None
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(num, den)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class WeightPolynomial:
    """Sparse exact polynomial in q_1..q_{d_max} and s.

    Instances are treated as immutable: every operation returns a new
    polynomial, so values can be shared freely (memo tables, threads).
    """

    __slots__ = ("d_max", "terms")

    def __init__(self, d_max: int, terms: dict[tuple[int, ...], Fraction] | None = None):
        if d_max < 1:
            raise ValueError("d_max must be positive")
        self.d_max = d_max
        self.terms: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                if len(key) != d_max + 1:
                    raise ValueError("exponent key length must be d_max + 1")
                if any(e < 0 for e in key):
                    raise ValueError("exponents must be non-negative")
                if coeff:
                    self.terms[tuple(key)] = Fraction(coeff)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def one(cls, d_max: int) -> "WeightPolynomial":
        return cls.rational(Fraction(1), d_max)

    @classmethod
    def rational(cls, value: Fraction | int, d_max: int) -> "WeightPolynomial":
        value = Fraction(value)
        if not value:
            return cls(d_max)
        key = (0,) * (d_max + 1)
        return cls(d_max, {key: value})

    @classmethod
    def q(cls, index: int, d_max: int) -> "WeightPolynomial":
        """The generator q_index, 1-based."""
        if not 1 <= index <= d_max:
            raise ValueError(f"q index {index} outside 1..{d_max}")
        key = [0] * (d_max + 1)
        key[index - 1] = 1
        return cls(d_max, {tuple(key): Fraction(1)})

    @classmethod
    def s(cls, d_max: int) -> "WeightPolynomial":
        key = [0] * (d_max + 1)
        key[-1] = 1
        return cls(d_max, {tuple(key): Fraction(1)})

    @classmethod
    def monomial(
        cls,
        q_exponents: Iterable[int],
        s_exponent: int,
        coeff: Fraction | int,
        d_max: int,
    ) -> "WeightPolynomial":
        key = tuple(q_exponents) + (s_exponent,)
        if len(key) != d_max + 1:
            raise ValueError("q exponent vector must have length d_max")
        return cls(d_max, {key: Fraction(coeff)})

    @classmethod
    def q_partition(cls, parts: Iterable[int], d_max: int, coeff: Fraction | int = 1,
                    s_exponent: int = 0) -> "WeightPolynomial":
        """The monomial q_{p1} q_{p2} ... for an integer partition."""
        exps = [0] * d_max
        for p in parts:
            if not 1 <= p <= d_max:
                raise ValueError(f"part {p} outside 1..{d_max}")
            exps[p - 1] += 1
        return cls.monomial(exps, s_exponent, coeff, d_max)

    # ------------------------------------------------------------------
    # ring operations

    def _check(self, other: "WeightPolynomial") -> None:
        if self.d_max != other.d_max:
            raise ValueError("mixed d_max in weight polynomial arithmetic")

    def __add__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = terms.get(key, _ZERO) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        out = WeightPolynomial(self.d_max)
        out.terms = terms
        return out

    def __neg__(self) -> "WeightPolynomial":
        out = WeightPolynomial(self.d_max)
        out.terms = {key: -coeff for key, coeff in self.terms.items()}
        return out

    def __sub__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        return self + (-other)

    def __mul__(self, other: "WeightPolynomial") -> "WeightPolynomial":
        self._check(other)
        terms: dict[tuple[int, ...], Fraction] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                new = terms.get(key, _ZERO) + c1 * c2
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        out = WeightPolynomial(self.d_max)
        out.terms = terms
        return out

    def __pow__(self, exponent: int) -> "WeightPolynomial":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = WeightPolynomial.one(self.d_max)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, value: Fraction | int) -> "WeightPolynomial":
        value = Fraction(value)
        out = WeightPolynomial(self.d_max)
        if value:
            out.terms = {key: coeff * value for key, coeff in self.terms.items()}
        return out

    def __truediv__(self, value):
        if isinstance(value, WeightPolynomial):
            return self * value.inverse_unit()
        return self.scale(Fraction(1) / Fraction(value))

    def inverse_unit(self) -> "WeightPolynomial":
        """Inverse of a polynomial that is a nonzero rational constant."""
        const = self.terms.get((0,) * (self.d_max + 1))
        if const is None or len(self.terms) > 1:
            raise ZeroDivisionError("weight polynomial is not an invertible constant")
        return WeightPolynomial.rational(Fraction(1) / const, self.d_max)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightPolynomial):
            return NotImplemented
        return self.d_max == other.d_max and self.terms == other.terms

    __hash__ = None  # mutable dict inside; equality only

    def is_zero(self) -> bool:
        return not self.terms

    # ------------------------------------------------------------------
    # structure queries

    def s_coefficient(self, m: int) -> "WeightPolynomial":
        """The polynomial in the q's multiplying s^m (s stripped)."""
        out = WeightPolynomial(self.d_max)
        out.terms = {
            key[:-1] + (0,): coeff for key, coeff in self.terms.items() if key[-1] == m
        }
        return out

    def mul_s_power(self, m: int) -> "WeightPolynomial":
        out = WeightPolynomial(self.d_max)
        out.terms = {key[:-1] + (key[-1] + m,): c for key, c in self.terms.items()}
        return out

    def monomials(self) -> Iterator[tuple[tuple[int, ...], int, Fraction]]:
        """Yield (q exponent vector, s exponent, coefficient)."""
        for key, coeff in self.terms.items():
            yield key[:-1], key[-1], coeff

    def at_s_one(self) -> dict[tuple[int, ...], Fraction]:
        """Collapse s to 1, returning a map q-exponent-vector -> coefficient."""
        out: dict[tuple[int, ...], Fraction] = {}
        for key, coeff in self.terms.items():
            qkey = key[:-1]
            new = out.get(qkey, _ZERO) + coeff
            if new:
                out[qkey] = new
            else:
                out.pop(qkey, None)
        return out

    def specialize(self, q_values: list[Fraction], s_value: Fraction) -> Fraction:
        """Exact evaluation at rational weights."""
        if len(q_values) != self.d_max:
            raise ValueError("q_values must have length d_max")
        total = Fraction(0)
        for qexps, m, coeff in self.monomials():
            term = coeff * Fraction(s_value) ** m
            for value, e in zip(q_values, qexps):
                if e:
                    term *= Fraction(value) ** e
            total += term
        return total

    def embed(self, d_max: int) -> "WeightPolynomial":
        """Re-key into a wider exponent space (d_max may only grow)."""
        if d_max < self.d_max:
            raise ValueError("cannot shrink d_max")
        out = WeightPolynomial(d_max)
        pad = d_max - self.d_max
        out.terms = {
            key[:-1] + (0,) * pad + (key[-1],): coeff for key, coeff in self.terms.items()
        }
        return out

    # ------------------------------------------------------------------
    # presentation and serialization

    @staticmethod
    def _partition_of(qexps: tuple[int, ...]) -> tuple[int, ...]:
        parts: list[int] = []
        for i, e in enumerate(qexps):
            parts.extend([i + 1] * e)
        parts.sort(reverse=True)
        return tuple(parts)

    def sorted_monomials(self):
        """Monomials in degree-lexicographic partition order, largest first."""
        items = [(self._partition_of(qexps), qexps, m, coeff)
                 for qexps, m, coeff in self.monomials()]
        items.sort(key=lambda item: (-sum(item[0]), tuple(-p for p in item[0]), item[2]))
        return [(qexps, m, coeff) for _, qexps, m, coeff in items]

    def __str__(self) -> str:
        return self.pretty(show_s=True)

    def pretty(self, show_s: bool = True) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for qexps, m, coeff in self.sorted_monomials():
            factors = []
            if coeff != 1 or (not any(qexps) and (m == 0 or not show_s)):
                factors.append(format_rational(coeff))
            for i in range(self.d_max - 1, -1, -1):
                e = qexps[i]
                if e == 1:
                    factors.append(f"q{i + 1}")
                elif e > 1:
                    factors.append(f"q{i + 1}^{e}")
            if show_s and m:
                factors.append("s" if m == 1 else f"s^{m}")
            pieces.append(" ".join(factors) if factors else "1")
        return " + ".join(pieces)

    def to_json(self) -> list[dict]:
        out = []
        for qexps, m, coeff in self.sorted_monomials():
            out.append({"coeff": format_rational(coeff), "q": list(qexps), "s": m})
        return out

    @classmethod
    def from_json(cls, data: list[dict], d_max: int) -> "WeightPolynomial":
        terms: dict[tuple[int, ...], Fraction] = {}
        for entry in data:
            qexps = tuple(entry["q"])
            if len(qexps) != d_max:
                raise ValueError("q exponent vector length mismatch")
            key = qexps + (int(entry["s"]),)
            terms[key] = terms.get(key, _ZERO) + parse_rational(entry["coeff"])
        return cls(d_max, terms)


_ZERO = Fraction(0)


class WeightPolyRing:
    """Coefficient-ring adapter so the series engine can run over weight
    polynomials."""

    def __init__(self, d_max: int):
        self.d_max = d_max
        self.zero = WeightPolynomial(d_max)
        self.one = WeightPolynomial.one(d_max)

    def from_rational(self, value: Fraction | int) -> WeightPolynomial:
        return WeightPolynomial.rational(value, self.d_max)

    def mul_rational(self, x: WeightPolynomial, value: Fraction | int) -> WeightPolynomial:
        return x.scale(value)

    def is_zero(self, x: WeightPolynomial) -> bool:
        return x.is_zero()

    def invert(self, x: WeightPolynomial) -> WeightPolynomial:
        return x.inverse_unit()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, WeightPolyRing) and other.d_max == self.d_max

    def __repr__(self) -> str:
        return f"WeightPolyRing(d_max={self.d_max})"
