"""Independent validation of double Hurwitz numbers by counting transitive
transposition factorizations in symmetric groups.

For mu with D = sum(mu), fix the permutation rho with consecutive cycles
(0..mu_1-1)(mu_1..mu_1+mu_2-1)...  For each cycle type lambda of degree D
with parts <= d_max and m = 2g - 2 + n + len(lambda), count tuples

    (tau_0, tau_1, ..., tau_m),  tau_0 of type lambda, tau_j transpositions,
    tau_0 tau_1 ... tau_m = rho,  <tau_0, ..., tau_m> transitive,

and assemble  sum_lambda q_lambda * N(lambda, mu, m) * s^m / (m! * prod mu_i).

The 1/prod(mu_i) factor converts fixed-rho tuple counts into automorphism-
weighted cover counts (orbit-stabilizer over the cycle-labelled centralizer
of rho); it is isolated in one function and the class refuses to report
comparison verdicts until it has been validated against golden table rows.

Two counters are provided.  `dfs_count` enumerates tuples one by one with
reachability pruning: the reference semantics, exponential, for small
degree.  `transitive_count` is what the oracle runs.  It sees only cycle
types: the Frobenius character formula counts all tuples, transitive or
not, as (1/z_lambda) sum_nu chi^nu(lambda) chi^nu(mu) cont(nu)^m (the
character sum behind Okounkov's 2D-Toda tau function for double Hurwitz
numbers, math/0004128), with characters by Murnaghan-Nakayama, and the
intransitive tuples are peeled off by the orbit through rho's first cycle.
It reaches |mu| = DEGREE_CAP in seconds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, factorial, prod

from .cutjoin import DHTable, canonical_mu, partitions_of, splits
from .weightpoly import WeightPolynomial

__all__ = ["FactorizationOracle", "OracleReport", "DegreeCapError",
           "OracleValidationError", "DEGREE_CAP", "dfs_count", "transitive_count"]


# covers every |mu| that verify_conjecture(0, 4, mu_max=4) consumes
DEGREE_CAP = 16


class DegreeCapError(ValueError):
    """|mu| above DEGREE_CAP: the input is out of range (a usage error)."""


class OracleValidationError(ArithmeticError):
    """The tuple-count normalization failed its golden cross-check: the
    oracle cannot compute a trustworthy polynomial (not a usage error)."""


def cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        x, count = start, 0
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            count += 1
        lengths.append(count)
    return tuple(sorted(lengths, reverse=True))


def cycle_count(perm: tuple[int, ...]) -> int:
    return len(cycle_type(perm))


def rho_from_mu(mu: tuple[int, ...]) -> tuple[int, ...]:
    """Consecutive-cycle permutation with the cycle lengths of mu."""
    images = list(range(sum(mu)))
    start = 0
    for part in mu:
        for k in range(part):
            images[start + k] = start + (k + 1) % part
        start += part
    return tuple(images)


def _canon_partition(labels) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for l in labels:
        if l not in remap:
            remap[l] = len(remap)
        out.append(remap[l])
    return tuple(out)


def orbit_partition(perm: tuple[int, ...]) -> tuple[int, ...]:
    labels = [0] * len(perm)
    seen = [False] * len(perm)
    block = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        x = start
        while not seen[x]:
            seen[x] = True
            labels[x] = block
            x = perm[x]
        block += 1
    return _canon_partition(labels)


def _merge(partition: tuple[int, ...], a: int, b: int) -> tuple[int, ...]:
    ca, cb = partition[a], partition[b]
    if ca == cb:
        return partition
    return _canon_partition(tuple(ca if c == cb else c for c in partition))


# ----------------------------------------------------------------------
# reference counter: depth-first enumeration with pruning


def dfs_count(d: int, lam: tuple[int, ...], rho: tuple[int, ...], m: int) -> int:
    """Enumerate transitive transposition tuples one by one (small degree
    only)."""
    transpositions = list(combinations(range(d), 2))
    target_cycles = cycle_count(rho)
    total = 0

    def extend(perm: tuple[int, ...], partition: tuple[int, ...], steps_left: int):
        nonlocal total
        cycles = cycle_count(perm)
        gap = abs(cycles - target_cycles)
        if gap > steps_left or (gap - steps_left) % 2:
            return
        if max(partition) > steps_left:
            return
        if steps_left == 0:
            if perm == rho and max(partition) == 0:
                total += 1
            return
        for a, b in transpositions:
            nxt = list(perm)
            nxt[a], nxt[b] = nxt[b], nxt[a]
            extend(tuple(nxt), _merge(partition, a, b), steps_left - 1)

    for tau0 in permutations(range(d)):
        if cycle_type(tau0) == lam:
            extend(tau0, orbit_partition(tau0), m)
    return total


# ----------------------------------------------------------------------
# production counter: character formula


@cache
def _characters(rho: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """chi^nu(rho) for every nu |- |rho|, by Murnaghan-Nakayama: removing a
    rim hook of length rho[0] from nu moves one bead of nu's beta-set down
    by rho[0] onto an empty position, with sign (-1)^(beads jumped)."""
    if not rho:
        return {(): 1}
    r, smaller = rho[0], _characters(rho[1:])
    out = {}
    for nu in partitions_of(sum(rho)):
        top = len(nu) - 1
        beta = [part + top - i for i, part in enumerate(nu)]
        value = 0
        for i, b in enumerate(beta):
            if b < r or b - r in beta:
                continue
            moved = sorted(beta[:i] + [b - r] + beta[i + 1:], reverse=True)
            rest = tuple(x - top + j for j, x in enumerate(moved) if x > top - j)
            jumped = sum(b - r < c < b for c in beta)
            value += (-1) ** jumped * smaller[rest]
        out[nu] = value
    return out


def _content(nu: tuple[int, ...]) -> int:
    """Sum of the contents j - i over the boxes (i, j) of nu."""
    return sum(part * (part - 1) // 2 - i * part for i, part in enumerate(nu))


@cache
def _tuple_count(lam: tuple[int, ...], mu: tuple[int, ...], m: int) -> int:
    """Tuples (tau_0 of type lam, m transpositions), transitive or not, with
    product a fixed permutation of type mu: the Frobenius formula
    (1/z_lam) sum_nu chi^nu(lam) chi^nu(mu) cont(nu)^m."""
    chi_mu = _characters(mu)
    total = sum(chi * chi_mu[nu] * _content(nu) ** m
                for nu, chi in _characters(lam).items())
    return total // prod(k ** c * factorial(c) for k, c in Counter(lam).items())


@cache
def transitive_count(lam: tuple[int, ...], mu: tuple[int, ...], m: int) -> int:
    """Transitive tuples (tau_0 of type lam, m transpositions) with product
    a fixed permutation rho of type mu; lam and mu weakly decreasing.

    All tuples minus those whose orbit O through rho's first cycle is a
    proper union of rho's cycles.  Such a tuple is a transitive tuple on O
    (tau_0|O of type lam_b, m_b transpositions) shuffled into any tuple on
    the other points, with C(m, m_b) choices of the slots O takes."""
    count = _tuple_count(lam, mu, m)
    for others, rest, ways in splits(mu[1:]):
        if not rest:
            continue  # the orbit is all of rho's cycles
        block = (mu[0],) + others
        size = sum(block)
        for lam_b, lam_rest, _ in splits(lam):
            if sum(lam_b) != size:
                continue
            # Riemann-Hurwitz on O: m_b = 2 g_b - 2 + len(lam_b) + len(block)
            for m_b in range(len(lam_b) + len(block) - 2, m + 1, 2):
                count -= (ways * comb(m, m_b)
                          * transitive_count(lam_b, block, m_b)
                          * _tuple_count(lam_rest, rest, m - m_b))
    return count


# ----------------------------------------------------------------------
# assembly into weight polynomials


@dataclass
class OracleReport:
    equal: bool
    counts: dict[tuple[tuple[int, ...], int], int]
    oracle_poly: WeightPolynomial
    recursion_poly: WeightPolynomial
    diffs: list


class FactorizationOracle:
    def __init__(self, d_max: int):
        self.d_max = d_max
        self._validated = False

    @staticmethod
    def tuple_weight(count: int, m: int, mu: tuple[int, ...]) -> Fraction:
        """Fixed-rho tuple count -> cover weight: the s^m/m! convention
        and the centralizer quotient 1/prod(mu_i).  Isolated here so the
        normalization can be audited and corrected in one place."""
        denom = factorial(m)
        for part in mu:
            denom *= part
        return Fraction(count, denom)

    def counts(self, g: int, mu) -> dict[tuple[tuple[int, ...], int], int]:
        mu = canonical_mu(mu)
        if g < 0:
            raise ValueError(f"genus must be >= 0, got {g}")
        total = sum(mu)
        if total > DEGREE_CAP:
            raise DegreeCapError(
                f"degree {total} exceeds the oracle cap {DEGREE_CAP}"
            )
        n = len(mu)
        out: dict[tuple[tuple[int, ...], int], int] = {}
        for lam in partitions_of(total, self.d_max):
            m = 2 * g - 2 + n + len(lam)
            if m < 0:
                continue
            out[(lam, m)] = transitive_count(lam, mu, m)
        return out

    def oracle_dh(self, g: int, mu) -> WeightPolynomial:
        return self._polynomial(canonical_mu(mu), self.counts(g, mu))

    def _polynomial(self, mu: tuple[int, ...], counts) -> WeightPolynomial:
        """The sum of q_lambda s^m times the cover weight of N(lambda, m), in
        one terms dict: each lambda has one m, so no two terms share a key."""
        terms = {}
        for (lam, m), count in counts.items():
            terms.update(WeightPolynomial.q_partition(
                lam, self.d_max, self.tuple_weight(count, m, mu), m).terms)
        return WeightPolynomial(self.d_max, terms)

    # ------------------------------------------------------------------

    def validate(self) -> bool:
        """Fail-closed check of the tuple-count normalization against
        golden table rows; must pass before comparisons are reported."""
        if self._validated:
            return True
        from .tables import load_golden

        wanted = {(0, (2,)), (0, (1, 1)), (0, (1, 1, 1)), (1, (2,))}
        rows = [row for row in load_golden("A") if (row.g, row.mu) in wanted]
        if len(rows) != len(wanted):
            raise OracleValidationError("golden rows for oracle validation missing")
        for row in rows:
            got = self.oracle_dh(row.g, row.mu).at_s_one()
            want = {}
            for key, value in row.coeffs.items():
                if any(key[self.d_max:]):
                    continue  # weights beyond this oracle's d_max are cut
                padded = key[: self.d_max] + (0,) * (self.d_max - len(key))
                want[padded] = value
            if got != want:
                raise OracleValidationError(
                    f"oracle normalization failed golden cross-check at "
                    f"g={row.g}, mu={row.mu}: got {got}, want {want}"
                )
        self._validated = True
        return True

    def compare(self, g: int, mu, table: DHTable | None = None) -> OracleReport:
        """Exact polynomial comparison against the cut-and-join engine."""
        self.validate()
        mu = canonical_mu(mu)
        table = table or DHTable(self.d_max)
        if table.d_max != self.d_max:
            raise ValueError("oracle and table d_max differ")
        counts = self.counts(g, mu)
        mine = self._polynomial(mu, counts)
        theirs = table.dh(g, mu)
        diffs = []
        if mine != theirs:
            keys = set(mine.terms) | set(theirs.terms)
            for key in sorted(keys):
                a = mine.terms.get(key, Fraction(0))
                b = theirs.terms.get(key, Fraction(0))
                if a != b:
                    diffs.append((key, a, b))
        return OracleReport(equal=not diffs, counts=counts, oracle_poly=mine,
                            recursion_poly=theirs, diffs=diffs)
