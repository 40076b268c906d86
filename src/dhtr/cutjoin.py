"""Double Hurwitz numbers via the cut-and-join recursion.

DH_{g,n}(mu) is the weighted count of connected genus-g branched covers of
the sphere with ramification mu over infinity, profile lambda over zero
weighted by q_lambda, and m simple branch points weighted by s^m / m!.
Riemann-Hurwitz fixes m = 2g - 2 + n + len(lambda), so the polynomial is a
map lambda -> N of integer fixed-rho tuple counts (the transitive
factorizations the oracle counts), each term weighing
q_lambda s^m / (m! prod mu_i).

Multiplying a factorization by one more transposition gives cut-and-join in
its s-derivative form,

    d/ds DH_{g,n}(mu) = join terms + (1/2) * (cut terms + product terms).

Taking the coefficient of q_lambda s^(m-1) and multiplying by (m-1)! prod mu
turns it into a recursion on the counts, term by term (Goulden-Jackson,
"Transitive factorizations into transpositions", 1997):

    join     mu_i mu_j * N(g, mu with mu_i, mu_j merged)
    cut      (mu_i / 2) * N(g - 1, mu with mu_i split into (a, b))
    product  (mu_i / 2) * C(m1 + m2, m1) * N1[lambda1] * N2[lambda2],

summed over pairs i < j, over i and ordered a + b = mu_i, and for products
over the genus and part splittings of mu with mu_i split into (a, b),
unstable factors included, and over lambda1 + lambda2 = lambda.  The
binomial chooses which transpositions each factor takes, m1 and m2 being
the factors' s-exponents.  The recursion sums twice the right side
in integers and halves it, and an odd sum is an error, never floored.  The
base is N = 1 at lambda = (mu) for g = 0, n = 1 and mu <= d_max, the only
term with m = 0.  Each referenced value has either a smaller |mu| or a
smaller Euler characteristic, so memoizing on (g, sorted mu) terminates.
"""

from __future__ import annotations

import threading
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import comb, factorial, prod

from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["DHTable", "ResourceLimitError", "canonical_mu", "partitions_of", "splits"]

# caps on a table's keys, and a bound on the tuple counts it stores: keys
# within the caps, like DH_{9,3}(9,9,9), can recurse for hours, while
# DH_{1,2}(12,12) at d = 24 stores 208,736 counts
MAX_TOTAL = 60
MAX_GENUS = 16
MAX_COUNTS = 500_000


class ResourceLimitError(ValueError):
    """A key past the table's caps, or a table past its bound on stored
    counts: a usage error."""


def partitions_of(total: int, max_part: int | None = None):
    """Integer partitions of `total`, parts weakly decreasing."""
    max_part = total if max_part is None else min(max_part, total)

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - part, part, prefix + (part,))

    yield from rec(total, max_part, ())


def canonical_mu(mu) -> tuple[int, ...]:
    parts = tuple(int(m) for m in mu)
    if not parts or any(m < 1 for m in parts):
        raise ValueError(f"mu must be a non-empty tuple of positive integers, got {mu!r}")
    return tuple(sorted(parts, reverse=True))


@cache
def splits(parts: tuple[int, ...]) -> tuple:
    """Distinct sub-multisets of a weakly decreasing tuple, each with its
    complement and the number of index subsets it stands for; both halves
    come out weakly decreasing."""
    mults = Counter(parts)
    out = []
    for takes in product(*(range(c + 1) for c in mults.values())):
        sub = Counter(dict(zip(mults, takes)))
        out.append((tuple(sub.elements()), tuple((mults - sub).elements()),
                    prod(map(comb, mults.values(), takes))))
    return tuple(out)


def _insert(part: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """A weakly decreasing tuple with one more part, still decreasing."""
    i = 0
    while i < len(parts) and parts[i] > part:
        i += 1
    return parts[:i] + (part,) + parts[i:]


def _terms(g: int, mu: tuple[int, ...]):
    """The terms of the s-derivative of DH_{g,n}(mu), mu weakly decreasing,
    as (join, mult, x, y, children).  A join merges parts x and y; a cut or
    a product splits a part x + y into (x, y).  `children` holds the one or
    two (g, mu) keys the term multiplies, `mult` how many terms of the
    plain sum (index pairs i < j; index i with ordered (x, y); index
    subsets of the rest) it stands for: equal parts of mu give equal terms,
    and swapping (x, y) together with the factors gives the same term."""
    mults = Counter(mu)
    for v, c in mults.items():
        i = mu.index(v)
        rest = mu[:i] + mu[i + 1:]
        for w, c_w in mults.items():
            if w > v or (w == v and c == 1):
                continue
            j = rest.index(w)
            yield (True, c * c_w if w < v else comb(c, 2), v, w,
                   ((g, _insert(v + w, rest[:j] + rest[j + 1:])),))
        for a in range(1, v // 2 + 1):
            b = v - a
            mult = c if a == b else 2 * c
            if g:
                yield False, mult, a, b, ((g - 1, _insert(a, _insert(b, rest))),)
            for sub, comp, ways in splits(rest):
                for g1 in range(g + 1):
                    yield (False, mult * ways, a, b,
                           ((g1, _insert(a, sub)), (g - g1, _insert(b, comp))))


class DHTable:
    """Memoized table of DH_{g,n}(mu), one table per fixed d_max.

    The recursion runs on integer tuple counts; `dh` converts one key to a
    weight polynomial when asked.  Inside, lambda is the q-exponent vector
    packed into one int, `_bits` bits per exponent and len(lambda) on top,
    so that adding two keys multiplies the monomials.

    Inserts are idempotent (any two computations of the same key agree), so
    a single lock around the memos keeps concurrent builds safe; reads of
    finished entries need no synchronization.
    """

    def __init__(self, d_max: int):
        if d_max < 1:
            raise ValueError("d_max must be positive")
        self.d_max = d_max
        self.ring = WeightPolyRing(d_max)
        # no exponent nor len(lambda) exceeds |mu| <= MAX_TOTAL
        self._bits = MAX_TOTAL.bit_length()
        self._memo: dict[tuple[int, tuple[int, ...]], WeightPolynomial] = {}
        self._counts: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
        self._stored = 0  # sum of len(counts) over self._counts
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def dh(self, g: int, mu) -> WeightPolynomial:
        """The full polynomial DH_{g,n}(mu) in q_1..q_{d_max} and s."""
        mu = canonical_mu(mu)
        if g < 0:
            raise ValueError(f"genus must be >= 0, got {g}")
        self.check_caps(g, mu)
        key = (g, mu)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        bits, mask = self._bits, (1 << self._bits) - 1
        top = bits * self.d_max
        euler, denom = 2 * g - 2 + len(mu), prod(mu)
        terms = {}
        for packed, count in self._tuple_counts(g, mu).items():
            m = euler + (packed >> top)
            qexps = tuple(packed >> (bits * k) & mask for k in range(self.d_max))
            terms[qexps + (m,)] = Fraction(count, factorial(m) * denom)
        value = WeightPolynomial(self.d_max, terms)
        with self._lock:
            self._memo.setdefault(key, value)
        return self._memo[key]

    def check_caps(self, g: int, mu: tuple[int, ...]) -> None:
        """Raise ResourceLimitError if the key (g, mu) is past the table's
        caps, g <= MAX_GENUS and |mu| <= MAX_TOTAL."""
        if g > MAX_GENUS or sum(mu) > MAX_TOTAL:
            raise ResourceLimitError(
                f"DH_{{{g},{len(mu)}}}{mu} exceeds configured caps "
                f"(|mu| <= {MAX_TOTAL}, g <= {MAX_GENUS})"
            )

    def _tuple_counts(self, g: int, mu: tuple[int, ...]) -> dict[int, int]:
        """lambda (packed) -> N for weakly decreasing mu; the key caps are
        not checked, the bound on stored counts is."""
        key = (g, mu)
        hit = self._counts.get(key)
        if hit is not None:
            return hit
        top = self._bits * self.d_max
        twice: dict[int, int] = {}
        for join, mult, x, y, children in _terms(g, mu):
            if len(children) == 1:
                weight = 2 * mult * x * y if join else mult * (x + y)
                for packed, count in self._tuple_counts(*children[0]).items():
                    twice[packed] = twice.get(packed, 0) + weight * count
                continue
            (g1, mu1), (g2, mu2) = children
            left = self._tuple_counts(g1, mu1)
            if not left:
                continue
            right = self._tuple_counts(g2, mu2)
            if not right:
                continue
            euler1, euler2 = 2 * g1 - 2 + len(mu1), 2 * g2 - 2 + len(mu2)
            right = [(k2, euler2 + (k2 >> top), n2) for k2, n2 in right.items()]
            weight = mult * (x + y)
            for k1, n1 in left.items():
                m1 = euler1 + (k1 >> top)
                w1 = weight * n1
                for k2, m2, n2 in right:
                    packed = k1 + k2
                    twice[packed] = twice.get(packed, 0) + w1 * comb(m1 + m2, m1) * n2
        counts = {}
        for packed, total in twice.items():
            half, odd = divmod(total, 2)
            if odd:
                raise ArithmeticError(
                    f"odd doubled cut-and-join sum {total} at g={g}, mu={mu}")
            counts[packed] = half
        if g == 0 and len(mu) == 1 and mu[0] <= self.d_max:
            # lambda = (mu): one part, exponent 1 at q_mu
            counts[(1 << top) + (1 << self._bits * (mu[0] - 1))] = 1
        with self._lock:
            if key not in self._counts:
                if self._stored + len(counts) > MAX_COUNTS:
                    raise ResourceLimitError(
                        f"the table would store more than {MAX_COUNTS} tuple counts")
                self._stored += len(counts)
                self._counts[key] = counts
        return self._counts[key]

    # ------------------------------------------------------------------
    # consistency check

    def euler_consistency(self, g: int, mu) -> bool:
        """Check the integer recursion against the rational s-derivative
        form, monomial by monomial.

        The operator 2g - 2 + n + sum_i q_i d/dq_i multiplies a monomial
        q_lambda s^m by 2g - 2 + n + len(lambda); this must equal m (the
        homogeneity forced by the Riemann-Hurwitz count), and the operator
        applied to DH must reproduce s times the recursion's right side,
        rebuilt here in rationals from the polynomials of the keys it
        references: join weight mu_i + mu_j, cut and product weight a b / 2.
        """
        mu = canonical_mu(mu)
        n = len(mu)
        value = self.dh(g, mu)
        euler = self.ring.zero
        for qexps, m, coeff in value.monomials():
            length = sum(qexps)
            if m != 2 * g - 2 + n + length:
                return False
            euler = euler + WeightPolynomial.monomial(
                qexps, m, coeff * (2 * g - 2 + n + length), self.d_max
            )
        rhs = self.ring.zero
        for join, mult, x, y, children in _terms(g, mu):
            term = self.ring.one
            for child in children:
                term = term * self.dh(*child)
            rhs = rhs + term.scale(mult * (x + y) if join else Fraction(mult * x * y, 2))
        return euler == rhs.mul_s_power(1)
