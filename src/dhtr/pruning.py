"""Pruned double Hurwitz numbers via the triangular coefficient transforms.

Pruned counts restrict the underlying branching-graph enumeration to graphs
without leaves; at the level of the polynomials this is a triangular change
of basis along each insertion:

    C(mu, nu)    = (nu/mu) [z^(mu-nu)] exp(mu s P(z)),
    Chat(nu, mu) = [z^nu] x(z)^mu = [z^(nu-mu)] exp(-mu s P(z)),

with PH(nu) = sum_{mu <= nu} DH(mu) prod Chat(nu_i, mu_i) and the forward
sum inverse to it.  Both kernels read one closed form: [z^k] exp(t s P(z))
is the sum over the partitions lambda of k with parts <= d_max of
(t s)^len(lambda) q_lambda / prod_i m_i!, where m_i is the multiplicity of
the part i in lambda.  Equivalently, PH coefficients are the z-expansion
coefficients of the free energies after substituting x = z exp(-s P(z)).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from .cutjoin import DHTable, canonical_mu, partitions_of
from .series import Series
from .weightpoly import WeightPolynomial, WeightPolyRing

__all__ = ["PruningKernel", "PruningTransform", "x_of_z", "x_of_z_series"]


def p_series(ring: WeightPolyRing, order: int) -> Series:
    """P(z) = q_1 z + ... + q_d z^d as a series over weight polynomials."""
    d = ring.d_max
    coeffs = [ring.zero] + [WeightPolynomial.q(i, d) for i in range(1, d + 1)]
    return Series.from_coeffs(ring, "z", coeffs[:order], order)


def x_of_z(p: Series, s) -> Series:
    """x = z exp(-s p) for the series p = P(z), over p's ring and window."""
    return Series.identity(p.ring, p.var, p.order) * p.scale(-s).exp()


def x_of_z_series(d_max: int, order: int) -> Series:
    """x(z) = z exp(-s P(z)) over weight polynomials, to the given order."""
    return x_of_z(p_series(WeightPolyRing(d_max), order), WeightPolynomial.s(d_max))


class PruningKernel:
    """The triangular kernels C and Chat for one d_max, read from the
    closed-form coefficients of exp(t s P(z)), memoized per (t, k)."""

    def __init__(self, d_max: int):
        self.d_max = d_max
        self.ring = WeightPolyRing(d_max)
        self._exp_memo: dict[tuple[int, int], WeightPolynomial] = {}

    def _exp_coefficient(self, t: int, k: int) -> WeightPolynomial:
        """[z^k] exp(t s P(z)) = sum over partitions lambda of k (parts
        <= d_max) of (t s)^len(lambda) q_lambda / prod_i m_i!."""
        key = (t, k)
        if key not in self._exp_memo:
            total = self.ring.zero
            for lam in partitions_of(k, self.d_max):
                aut = prod(factorial(lam.count(part)) for part in set(lam))
                total = total + WeightPolynomial.q_partition(
                    lam, self.d_max, Fraction(t ** len(lam), aut), len(lam))
            self._exp_memo[key] = total
        return self._exp_memo[key]

    def c(self, mu: int, nu: int) -> WeightPolynomial:
        """C(mu, nu); zero above the diagonal, one on it."""
        if nu < 1:
            raise ValueError("nu must be positive")
        if nu > mu:
            return self.ring.zero
        return self._exp_coefficient(mu, mu - nu).scale(Fraction(nu, mu))

    def chat(self, nu: int, mu: int) -> WeightPolynomial:
        """Chat(nu, mu); zero above the diagonal, one on it."""
        if mu < 1:
            raise ValueError("mu must be positive")
        if mu > nu:
            return self.ring.zero
        return self._exp_coefficient(-mu, nu - mu)


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

    def z_expansion_coefficient(self, g: int, nu) -> WeightPolynomial:
        """[prod z_i^{nu_i}] of F_{g,n} after substituting x_i = x(z_i):
        by the second form of the correspondence this equals PH_{g,n}(nu).

        Computed independently of the kernels: per-axis coefficients of
        powers of x(z) are combined against the DH table.
        """
        nu = canonical_mu(nu)
        self._check_index(g, nu)
        xz = x_of_z_series(self.table.d_max, max(nu) + 1)
        return _box_sum(self.table.ring, nu, lambda mu: self.table.dh(g, mu),
                        lambda n_i, m_i: xz.pow_int(m_i).coefficient(n_i))


def _box_sum(ring, outer: tuple[int, ...], value, weight):
    """sum over the boxes inner (1 <= inner_i <= outer_i) of value(inner)
    times prod_i weight(outer_i, inner_i), contracted one axis at a time:
    for each prefix of inner, the remaining slots are summed first, and
    zero weights and zero partial sums are skipped."""

    def contract(prefix: tuple[int, ...]):
        if len(prefix) == len(outer):
            return value(prefix)
        o_i = outer[len(prefix)]
        total = ring.zero
        for i_i in range(1, o_i + 1):
            w = weight(o_i, i_i)
            if w.is_zero():
                continue
            part = contract(prefix + (i_i,))
            if not part.is_zero():
                total = total + w * part
        return total

    return contract(())
