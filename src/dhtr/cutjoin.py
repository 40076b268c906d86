"""Double Hurwitz numbers via the cut-and-join recursion.

DH_{g,n}(mu) is the weighted count of connected genus-g branched covers of
the sphere with ramification mu over infinity, profile lambda over zero
weighted by q_lambda, and m simple branch points weighted by s^m / m!.
Multiplying a monodromy factorization by one more transposition gives the
recursion in its s-derivative form,

    d/ds DH_{g,n}(mu) = join terms + (1/2) * (cut terms + product terms),

with base values DH_{0,1}(mu)|_{s=0} = q_mu / mu (for mu <= d, else 0) and
every other DH vanishing at s = 0.  Each referenced value on the right has
either a smaller total |mu| or a smaller Euler characteristic, so integrating
in s and memoizing on (g, sorted mu) terminates.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import combinations, product
from math import prod

from .series import Series, SeriesRing
from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["DHTable", "ResourceLimitError", "canonical_mu"]


class ResourceLimitError(RuntimeError):
    pass


def canonical_mu(mu) -> tuple[int, ...]:
    parts = tuple(int(m) for m in mu)
    if not parts or any(m < 1 for m in parts):
        raise ValueError(f"mu must be a non-empty tuple of positive integers, got {mu!r}")
    return tuple(sorted(parts, reverse=True))


def _subsets(items: tuple[int, ...]):
    for r in range(len(items) + 1):
        yield from combinations(items, r)


class DHTable:
    """Memoized table of DH_{g,n}(mu) as weight polynomials, one table per
    fixed d_max.

    Inserts are idempotent (any two computations of the same key agree), so
    a single lock around the memo keeps concurrent builds safe; reads of
    finished entries need no synchronization.
    """

    def __init__(self, d_max: int, max_total: int = 60, max_genus: int = 16):
        if d_max < 1:
            raise ValueError("d_max must be positive")
        self.d_max = d_max
        self.max_total = max_total
        self.max_genus = max_genus
        self.ring = WeightPolyRing(d_max)
        self._memo: dict[tuple[int, tuple[int, ...]], WeightPolynomial] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------

    def dh(self, g: int, mu) -> WeightPolynomial:
        """The full polynomial DH_{g,n}(mu) in q_1..q_{d_max} and s."""
        mu = canonical_mu(mu)
        if g < 0:
            return self.ring.zero
        if g > self.max_genus or sum(mu) > self.max_total:
            raise ResourceLimitError(
                f"DH_{{{g},{len(mu)}}}{mu} exceeds configured caps "
                f"(|mu| <= {self.max_total}, g <= {self.max_genus})"
            )
        key = (g, mu)
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        value = self._base(g, mu) + self._rhs(g, mu).integrate_s()
        with self._lock:
            self._memo.setdefault(key, value)
        return self._memo[key]

    def _base(self, g: int, mu: tuple[int, ...]) -> WeightPolynomial:
        if g == 0 and len(mu) == 1 and mu[0] <= self.d_max:
            return WeightPolynomial.q(mu[0], self.d_max) / mu[0]
        return self.ring.zero

    def _rhs(self, g: int, mu: tuple[int, ...]) -> WeightPolynomial:
        """The s-derivative of DH_{g,n}(mu): join, cut, and all genus/part
        splittings (products with unstable factors included)."""
        n = len(mu)
        total = self.ring.zero

        # join: two points over infinity merge
        for i, j in combinations(range(n), 2):
            rest = mu[:i] + mu[i + 1:j] + mu[j + 1:]
            merged = rest + (mu[i] + mu[j],)
            total = total + self.dh(g, merged).scale(mu[i] + mu[j])

        # cut and products: one point over infinity splits
        for i in range(n):
            rest = mu[:i] + mu[i + 1:]
            for alpha in range(1, mu[i]):
                beta = mu[i] - alpha
                weight = Fraction(alpha * beta, 2)
                if g >= 1:
                    total = total + self.dh(g - 1, (alpha, beta) + rest).scale(weight)
                for part_i in _subsets(tuple(range(len(rest)))):
                    set_i = set(part_i)
                    mu_i = tuple(rest[k] for k in part_i)
                    mu_j = tuple(rest[k] for k in range(len(rest)) if k not in set_i)
                    for g1 in range(g + 1):
                        left = self.dh(g1, (alpha,) + mu_i)
                        if left.is_zero():
                            continue
                        right = self.dh(g - g1, (beta,) + mu_j)
                        if right.is_zero():
                            continue
                        total = total + (left * right).scale(weight)
        return total

    # ------------------------------------------------------------------
    # consistency checks and specializations

    def euler_consistency(self, g: int, mu) -> bool:
        """Check the Euler-operator form of the recursion against the
        s-derivative form, monomial by monomial.

        The operator 2g - 2 + n + sum_i q_i d/dq_i multiplies a monomial
        q_lambda s^m by 2g - 2 + n + len(lambda); this must equal m (the
        homogeneity forced by the Riemann-Hurwitz count), and the operator
        applied to DH must reproduce s times the recursion's right side.
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
        rhs_times_s = self._rhs(g, mu).mul_s_power(1)
        return euler == rhs_times_s

    def specialize(self, p: WeightPolynomial, q_values, s_value) -> Fraction:
        q_values = [Fraction(v) for v in q_values]
        if len(q_values) != self.d_max:
            raise ValueError("q_values must have length d_max")
        return p.specialize(q_values, Fraction(s_value))

    # ------------------------------------------------------------------
    # free energies

    def free_energy_coefficients(self, g: int, n: int, order: int) -> dict[tuple[int, ...], WeightPolynomial]:
        """All DH_{g,n}(mu) with each mu_i <= order, keyed by ordered mu.

        These are the coefficients of F_{g,n} = sum DH(mu) prod x_i^{mu_i}.
        """
        return {mu: self.dh(g, mu)
                for mu in product(range(1, order + 1), repeat=n)}

    def omega_coefficients(self, g: int, n: int, order: int) -> dict[tuple[int, ...], WeightPolynomial]:
        """Coefficients of the multidifferential d_1..d_n F_{g,n}: the
        value attached to prod x_i^{mu_i - 1} dx_i is DH(mu) * prod mu_i."""
        return {
            mu: value.scale(Fraction(prod(mu)))
            for mu, value in self.free_energy_coefficients(g, n, order).items()
        }

    def free_energy_series(self, g: int, n: int, order: int) -> Series:
        """F_{g,n} as a nested truncated series: the innermost variable is
        x_1, the outermost x_n, all truncated at the same order."""
        coeffs = self.free_energy_coefficients(g, n, order)
        ring = self.ring
        rings = [ring]
        for k in range(n):
            rings.append(SeriesRing(rings[-1], f"x{k + 1}", order + 1))

        def build(level: int, prefix: tuple[int, ...]) -> object:
            # level counts down: level == 0 places the weight polynomial
            if level == 0:
                return coeffs[prefix]
            sub_ring = rings[level - 1]
            vals = [build(level - 1, prefix + (m,)) if m >= 1 else sub_ring.zero
                    for m in range(order + 1)]
            return Series(rings[level - 1], f"x{level}", 0, vals, order + 1)

        # prefix indices run x_n, x_{n-1}, ..., x_1 from outside in; DH is
        # symmetric so the slot order is immaterial.
        return build(n, ())
