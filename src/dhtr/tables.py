"""Golden reference tables and their regeneration.

The package ships two tables of expected values at s = 1: table A holds
double Hurwitz polynomials, table B their pruned counterparts.  Both are
regenerated from scratch by the engines and diffed monomial by monomial;
the factorization oracle independently cross-checks a subset of table A,
which guards the stored data against transcription slips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from types import MappingProxyType

from .cutjoin import DHTable
from .weightpoly import WeightPolynomial, parse_rational

__all__ = ["GoldenRow", "TableDiff", "load_golden", "regenerate", "diff_table",
           "GOLDEN_D_MAX", "render_rows_text", "render_rows_json", "render_rows_csv"]

GOLDEN_D_MAX = 5

_FILES = {"A": "golden_dh.json", "B": "golden_ph.json"}


@dataclass(frozen=True)
class GoldenRow:
    """One stored row; `coeffs` is a read-only view, so the rows that
    load_golden shares between callers cannot be altered."""

    g: int
    mu: tuple[int, ...]
    coeffs: MappingProxyType  # q exponent vector -> value at s=1

    def __post_init__(self):
        object.__setattr__(self, "coeffs", MappingProxyType(dict(self.coeffs)))


@dataclass
class TableDiff:
    mismatches: list = field(default_factory=list)
    row_count: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _parts_to_exponents(parts: list[int], d_max: int) -> tuple[int, ...]:
    exps = [0] * d_max
    for p in parts:
        exps[p - 1] += 1
    return tuple(exps)


@cache
def load_golden(table: str) -> tuple[GoldenRow, ...]:
    """The rows of golden table A or B, parsed once per process."""
    if table not in _FILES:
        raise ValueError("table must be 'A' or 'B'")
    payload = resources.files("dhtr").joinpath("data", _FILES[table]).read_text()
    rows = []
    for entry in json.loads(payload):
        coeffs = {
            _parts_to_exponents(term["parts"], GOLDEN_D_MAX): parse_rational(term["coeff"])
            for term in entry["poly"]
        }
        rows.append(GoldenRow(entry["g"], tuple(entry["mu"]), coeffs))
    return tuple(rows)


def regenerate(table: str):
    """Recompute every golden row with the engines; yields
    (row, computed WeightPolynomial)."""
    rows = load_golden(table)
    dh_table = DHTable(GOLDEN_D_MAX)
    if table == "A":
        for row in rows:
            yield row, dh_table.dh(row.g, row.mu)
    else:
        from .pruning import PruningTransform

        transform = PruningTransform(dh_table)
        for row in rows:
            yield row, transform.ph(row.g, row.mu)


def diff_table(table: str, regenerated=None) -> TableDiff:
    """Diff the (row, computed) pairs of `regenerate(table)`, computed here
    unless given."""
    diff = TableDiff()
    for row, computed in regenerate(table) if regenerated is None else regenerated:
        diff.row_count += 1
        got = computed.at_s_one()
        if got != row.coeffs:
            diff.mismatches.append((row.g, row.mu, dict(row.coeffs), got))
    return diff


# ----------------------------------------------------------------------
# rendering


def _mu_label(mu: tuple[int, ...]) -> str:
    if all(p <= 9 for p in mu):
        return "(" + "".join(str(p) for p in mu) + ")"
    return "(" + ",".join(str(p) for p in mu) + ")"


def render_polynomial_s1(poly: WeightPolynomial) -> str:
    """Value at s = 1 in the golden table layout: `pretty` of the collapsed
    polynomial."""
    collapsed = {qexps + (0,): coeff for qexps, coeff in poly.at_s_one().items()}
    return WeightPolynomial(poly.d_max, collapsed).pretty(show_s=False)


def render_rows_text(rows) -> str:
    lines = []
    for g, mu, poly in rows:
        lines.append(f"{g} {_mu_label(mu)} {render_polynomial_s1(poly)}")
    return "\n".join(lines)


def render_rows_json(rows) -> str:
    payload = [
        {"g": g, "mu": list(mu), "poly": poly.to_json()}
        for g, mu, poly in rows
    ]
    return json.dumps(payload, indent=1)


def render_rows_csv(rows) -> str:
    lines = ["g,mu,poly"]
    for g, mu, poly in rows:
        mu_str = " ".join(str(p) for p in mu)
        lines.append(f'{g},{mu_str},"{render_polynomial_s1(poly)}"')
    return "\n".join(lines)
