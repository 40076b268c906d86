"""A coefficient ring of truncated series, for tests that nest series.

Power series in one variable as the coefficients of another give the
nested-univariate representation of multivariate series.  The package
builds none; tests use it as the exact reference for multivariate jets
and for the wave function's two-variable grid.
"""

from dhtr.series import Series


class SeriesRing:
    """Use power series in one variable as the coefficients of another,
    giving the nested-univariate representation of multivariate series."""

    def __init__(self, inner, var: str, order: int):
        self.inner = inner
        self.var = var
        self.order = order
        self.zero = Series.zero(inner, var, order)
        self.one = Series.constant(inner, var, inner.one, order)

    def from_rational(self, value):
        return Series.constant(self.inner, self.var, self.inner.from_rational(value), self.order)

    def mul_rational(self, x, value):
        return x.scale(value)

    def is_zero(self, x) -> bool:
        return all(self.inner.is_zero(c) for c in x.coeffs)

    def invert(self, x):
        return x.inverse()

    def __eq__(self, other):
        return (
            isinstance(other, SeriesRing)
            and other.inner == self.inner
            and other.var == self.var
            and other.order == self.order
        )

    def __repr__(self):
        return f"SeriesRing({self.inner!r}, {self.var!r}, {self.order})"

