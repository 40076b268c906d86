"""Pruned double Hurwitz numbers via the triangular coefficient transforms.

Pruned counts restrict the underlying branching-graph enumeration to graphs
without leaves; at the level of the polynomials this is a triangular change
of basis along each insertion:

    C(mu, nu)    = (nu/mu) [z^(mu-nu)] exp(mu s P(z)),
    Chat(nu, mu) = (mu/nu) [z^(nu-mu)] (1 - s z P'(z)) exp(-mu s P(z)),

with PH(nu) = sum_{mu <= nu} DH(mu) prod Chat(nu_i, mu_i) and the forward
sum inverse to it.  Equivalently, PH coefficients are the z-expansion
coefficients of the free energies after substituting x = z exp(-s P(z)).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cutjoin import DHTable, canonical_mu
from .series import Series
from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["PruningKernel", "PruningTransform", "x_of_z", "x_of_z_series"]


def p_series(ring: WeightPolyRing, order: int) -> Series:
    """P(z) = q_1 z + ... + q_d z^d as a series over weight polynomials."""
    d = ring.d_max
    coeffs = [ring.zero] + [WeightPolynomial.q(i, d) for i in range(1, d + 1)]
    return Series.from_coeffs(ring, "z", coeffs[:order], order)


def zp_prime_series(ring: WeightPolyRing, order: int) -> Series:
    """z P'(z) = sum i q_i z^i, built exactly (a polynomial loses no
    truncation order to the derivative rule)."""
    d = ring.d_max
    coeffs = [ring.zero] + [WeightPolynomial.q(i, d).scale(i) for i in range(1, d + 1)]
    return Series.from_coeffs(ring, "z", coeffs[:order], order)


def x_of_z(p: Series, s) -> Series:
    """x = z exp(-s p) for the series p = P(z), over p's ring and window."""
    return Series.identity(p.ring, p.var, p.order) * p.scale(-s).exp()


def x_of_z_series(d_max: int, order: int) -> Series:
    """x(z) = z exp(-s P(z)) over weight polynomials, to the given order."""
    return x_of_z(p_series(WeightPolyRing(d_max), order), WeightPolynomial.s(d_max))


class PruningKernel:
    """Cached triangular kernels C and Chat for one d_max."""

    def __init__(self, d_max: int):
        self.d_max = d_max
        self.ring = WeightPolyRing(d_max)
        self._exp_cache: dict[tuple[int, int], Series] = {}
        self._chat_cache: dict[tuple[int, int], Series] = {}

    def _exp_series(self, mu: int, order: int) -> Series:
        key = (mu, order)
        if key not in self._exp_cache:
            p = p_series(self.ring, order)
            s = WeightPolynomial.s(self.d_max)
            self._exp_cache[key] = p.scale(s).scale(mu).exp()
        return self._exp_cache[key]

    def _chat_series(self, mu: int, order: int) -> Series:
        key = (mu, order)
        if key not in self._chat_cache:
            p = p_series(self.ring, order)
            s = WeightPolynomial.s(self.d_max)
            one = Series.constant(self.ring, "z", self.ring.one, order)
            damp = one - zp_prime_series(self.ring, order).scale(s)
            self._chat_cache[key] = damp * p.scale(s).scale(-mu).exp()
        return self._chat_cache[key]

    def c(self, mu: int, nu: int) -> WeightPolynomial:
        """C(mu, nu); zero above the diagonal, one on it."""
        if nu < 1:
            raise ValueError("nu must be positive")
        if nu > mu:
            return self.ring.zero
        series = self._exp_series(mu, mu - nu + 1)
        return series.coefficient(mu - nu).scale(Fraction(nu, mu))

    def chat(self, nu: int, mu: int) -> WeightPolynomial:
        """Chat(nu, mu); zero above the diagonal, one on it."""
        if mu < 1:
            raise ValueError("mu must be positive")
        if mu > nu:
            return self.ring.zero
        series = self._chat_series(mu, nu - mu + 1)
        return series.coefficient(nu - mu).scale(Fraction(mu, nu))


class PruningTransform:
    """Triangular transforms between the double Hurwitz table and its
    pruned counterpart (defined for (g, n) != (0, 1))."""

    def __init__(self, table: DHTable):
        self.table = table
        self.kernel = PruningKernel(table.d_max)
        self._ph_memo: dict[tuple[int, tuple[int, ...]], WeightPolynomial] = {}

    def _check_index(self, g: int, mu: tuple[int, ...]) -> None:
        if g == 0 and len(mu) == 1:
            raise ValueError("the pruning correspondence excludes (g, n) = (0, 1)")

    def ph(self, g: int, nu) -> WeightPolynomial:
        nu = canonical_mu(nu)
        self._check_index(g, nu)
        key = (g, nu)
        if key in self._ph_memo:
            return self._ph_memo[key]
        total = _box_sum(self.table.ring, nu, lambda mu: self.table.dh(g, mu),
                         self.kernel.chat)
        self._ph_memo[key] = total
        return total

    def dh_from_ph(self, g: int, mu) -> WeightPolynomial:
        """Forward sum; inverse of ph, used for the round-trip check."""
        mu = canonical_mu(mu)
        self._check_index(g, mu)
        return _box_sum(self.table.ring, mu, lambda nu: self.ph(g, nu), self.kernel.c)

    # ------------------------------------------------------------------

    def z_expansion_coefficient(self, g: int, nu, order: int | None = None) -> WeightPolynomial:
        """[prod z_i^{nu_i}] of F_{g,n} after substituting x_i = x(z_i):
        by the second form of the correspondence this equals PH_{g,n}(nu).

        Computed independently of the kernels: per-axis coefficients of
        powers of x(z) are combined against the DH table.
        """
        nu = canonical_mu(nu)
        self._check_index(g, nu)
        order = max(nu) + 1 if order is None else order
        xz = x_of_z_series(self.table.d_max, order)
        powers: dict[int, Series] = {}
        for mu_i in range(1, max(nu) + 1):
            powers[mu_i] = xz if mu_i == 1 else powers[mu_i - 1] * xz
        return _box_sum(self.table.ring, nu, lambda mu: self.table.dh(g, mu),
                        lambda n_i, m_i: powers[m_i].coefficient(n_i))


def _box_sum(ring, outer: tuple[int, ...], value, weight):
    """sum over the boxes inner of outer of value(inner) times the product
    of weight(outer_i, inner_i), skipping zero values and zero partial
    products."""
    total = ring.zero
    for inner in _boxes(outer):
        v = value(inner)
        if v.is_zero():
            continue
        factor = ring.one
        for o_i, i_i in zip(outer, inner):
            factor = factor * weight(o_i, i_i)
            if factor.is_zero():
                break
        if not factor.is_zero():
            total = total + v * factor
    return total


def _boxes(nu: tuple[int, ...]):
    """All tuples mu with 1 <= mu_i <= nu_i, the first slot varying fastest."""
    for combo in product(*(range(1, n + 1) for n in reversed(nu))):
        yield combo[::-1]
