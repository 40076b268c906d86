"""The Chekhov-Eynard-Orantin residue recursion on the instantiated curve.

Correlation multidifferentials are stored in a global pole basis: the
coefficient attached to a multi-index ((i_1,k_1),...,(i_n,k_n)) multiplies
prod_j dz_j / (z_j - a_{i_j})^(k_j + 1).  A rational differential with poles
only at the branch points and vanishing at infinity is the sum of its
principal parts, so this basis is complete for every produced form, and the
residue extraction emits exactly these coefficients through the geometric
expansion 1/(z_1 - z) = sum_k (z - a_i)^k / (z_1 - a_i)^(k+1).  One chart
(`_Chart`) expands the basis along a local coordinate: at each branch point
in u = z - a_i and in sigma(u) for the recursion, and in z(x) at the origin
for the double Hurwitz predictions; it is ring-generic.

A recursion step is one contraction per branch point: the sigma-side chart
carries the kernel, each pair of labels has one residue vector, and each
coefficient is an exact integer sum of lower-form coefficients times those
vectors, rounded once.  Each origin prediction is one exact contraction of
the form with its slot vectors, rounded once.

Beyond the recursion itself the engine hosts the closed-form cross-checks
(the triple-point form and the genus-one one-point form), the expansion of
forms at the origin against the exact recursion table, and loop-equation
diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import prod
from operator import add

import mpmath

from .curve import BranchPointData, SpectralCurve, two_point_coefficients
from .cutjoin import DHTable, canonical_mu
from .series import Series, TruncationError, _fixed_point, _fixed_sum, _to_mpc

__all__ = ["CorrelationForm", "RecursionEngine", "VerifyRow", "VerifyReport",
           "LoopCheckReport"]


@dataclass
class CorrelationForm:
    g: int
    n: int
    coeffs: dict[tuple, object]
    asymmetry: float = 0.0

    def scale(self):
        return max((abs(c) for c in self.coeffs.values()), default=mpmath.mpf(0))

    def evaluate(self, points, roots):
        """Value of the form at numeric points (coefficient of prod dz_j)."""
        if len(points) != self.n:
            raise ValueError("point count must equal n")
        total = mpmath.mpc(0)
        for idx, c in self.coeffs.items():
            term = c
            for z, (i, k) in zip(points, idx):
                term = term / (z - roots[i]) ** (k + 1)
            total += term
        return total

    def check_symmetry(self):
        """Largest relative asymmetry under the swap (0 1) and the n-cycle,
        which generate every permutation of the slots."""
        scale = self.scale()
        if not scale or self.n == 1:
            return 0.0
        worst = mpmath.mpf(0)
        swap = (1, 0) + tuple(range(2, self.n))
        cycle = tuple(range(1, self.n)) + (0,)
        for perm in {swap, cycle}:  # one permutation at n = 2
            for idx, c in self.coeffs.items():
                permuted = tuple(idx[p] for p in perm)
                other = self.coeffs.get(permuted, mpmath.mpc(0))
                worst = max(worst, abs(c - other))
        return worst / scale


@dataclass
class VerifyRow:
    mu: tuple[int, ...]
    predicted: object
    expected: object
    rel_residual: object
    ok: bool


@dataclass
class VerifyReport:
    """The rows, and the form's relative asymmetry, which must also stay
    below the tolerance."""

    rows: list[VerifyRow]
    tolerance: object
    asymmetry: object

    @property
    def ok(self) -> bool:
        return self.asymmetry < self.tolerance and all(row.ok for row in self.rows)

    @property
    def max_residual(self):
        return max((row.rel_residual for row in self.rows), default=mpmath.mpf(0))


@dataclass
class LoopCheckReport:
    worst: object
    tolerance: object

    @property
    def ok(self) -> bool:
        return self.worst < self.tolerance


def _report(triples, tolerance, asymmetry=0) -> VerifyReport:
    """The report on (mu, predicted, expected) triples, rows in the given
    order.  Residuals are relative to the row's own value; rows whose exact
    value vanishes (impossible covers, or a two-point value that is zero at
    these weights) are measured against the largest expected value of the
    report instead."""
    ref = max((abs(e) for _, _, e in triples), default=mpmath.mpf(1))
    ref = ref if ref else mpmath.mpf(1)
    rows = []
    for mu, pred, expected in triples:
        denom = abs(expected) if expected != 0 else ref
        residual = abs(pred - expected) / denom
        rows.append(VerifyRow(mu, pred, expected, residual, bool(residual < tolerance)))
    return VerifyReport(rows, tolerance, asymmetry)


def _label(index: tuple[int, int]) -> tuple[int, int]:
    """The basis element of the pole index (j, k): dz/(z - a_j)^(k+1)."""
    j, k = index
    return j, k + 1


class _Chart:
    """The pole basis along z = a + local(t), memoized: the label (j, e) is
    dz/(z - a_j)^e, the series (local + a - a_j)^-e times dz, the
    derivative of local (`None` for dt), which may carry a factor.  The z
    side at a branch point a_i is local = u with dt, the sigma side
    local = sigma(u) with dz the kernel times sigma'(u), and the origin
    local = z(x) with z'(x) and a = 0.

    Each element is its neighbour one step nearer e = 0 times one factor,
    (local + a - a_j)^-1, or local + a - a_j for e < 0: one product per
    element and one inverse per a_j.  e = 0 is dz; with dt the chain is the
    factor's own powers, `pow_int(|e|)`.  The index `monomial` (a_j = a,
    local = u) keeps the monomial u^-e, as a chain of u^-1 products loses
    two orders per power; the omega_{0,2} factor paired with the spectator
    index (i, k+1) is (k+1) times the z-side element (i, -k), that is
    (k+1) u^k.  A monomial's residues against s are a slice of s."""

    def __init__(self, local: Series, dz: Series | None, a, roots, monomial=None):
        self.local, self.dz, self.a, self.roots = local, dz, a, roots
        self.monomial = monomial
        self._memo: dict[tuple[int, int], Series] = {}
        self._factors: dict[tuple[int, int], Series] = {}

    def element(self, label: tuple[int, int]) -> Series:
        if label not in self._memo:
            self._memo[label] = self._build(*label)
        return self._memo[label]

    def _build(self, j: int, e: int) -> Series:
        local, ring = self.local, self.local.ring
        if j == self.monomial:
            coeffs = [ring.one] + [ring.zero] * (local.order + e - 1)
            return Series(ring, local.var, -e, coeffs, local.order)
        if e == 0:
            one = Series.constant(ring, local.var, ring.one, local.order)
            return one if self.dz is None else self.dz
        step = 1 if e > 0 else -1
        if self.dz is None:
            return self._factor(j, step).pow_int(abs(e))
        return self.element((j, e - step)) * self._factor(j, step)

    def residues(self, label: tuple[int, int], s: Series):
        """The coefficients of element(label) * s at u^-1, u^-2, .., down to
        its lowest exponent, as a fixed list (None for all zeros), or
        TruncationError.  On the monomial index they are s's own at
        u^(e-1), .., u^(s.lo) (element u^-e): a slice, with no product."""
        j, e = label
        if j != self.monomial:
            p = self.element(label).truncate(-s.lo) * s
            return _fixed_point([p.coefficient(-1 - k) for k in range(-p.lo)])
        end = min(s.order - e, s.lo + self.local.order)  # the product's order
        if end <= -1:
            raise TruncationError(f"coefficient of {s.var}^-1 beyond truncation order {end}")
        with s._naming_errors():  # a non-finite s raises as its products do
            f, top = s._fixed_form(), e - 1 - s.lo  # top: the index of u^(e-1) in s
        if f is None or top < 0 or not (any(f[0][:top + 1]) or any(f[1][:top + 1])):
            return None
        return f[0][top::-1], f[1][top::-1], f[2]

    def _factor(self, j: int, step: int) -> Series:
        if (j, step) not in self._factors:
            local, gap = self.local, self.a - self.roots[j]
            if not local.ring.is_zero(gap):
                local = local + Series.constant(local.ring, local.var, gap, local.order)
            self._factors[j, step] = local.inverse() if step > 0 else local
        return self._factors[j, step]


def _check_stable(g: int, n: int) -> None:
    if g < 0 or n < 1:
        raise ValueError(f"forms need g >= 0 and n >= 1, got (g, n) = ({g}, {n})")
    if 2 * g - 2 + n <= 0:
        raise ValueError("stable forms require 2g - 2 + n > 0")


def _omega02_cut(frame: BranchPointData, window: int) -> Series:
    """omega_{0,2}(z, sigma(z)) at z = a_i + u, du stripped:
    (u - sigma(u))^-2 sigma'(u)."""
    u = Series.identity(frame.sigma.ring, "u", window)
    return (u - frame.sigma).inverse().pow_int(2) * frame.sigma_prime


class RecursionEngine:
    def __init__(self, curve: SpectralCurve, table: DHTable | None = None,
                 extra_order: int = 0):
        if extra_order < 0:
            raise ValueError(f"extra truncation order must be >= 0, got {extra_order}")
        self.curve = curve
        self.ring = curve.ring
        self.prec = curve.prec
        self.extra_order = extra_order
        self.table = table or DHTable(curve.spec.d)
        self._forms: dict[tuple[int, int], CorrelationForm] = {}

    # ------------------------------------------------------------------
    # tolerances

    def default_tolerance(self):
        return mpmath.mpf(10) ** (-self.prec // 4)

    def _tolerance(self, tolerance):
        """The default, or a given bound if it is finite and in (0, 1)."""
        if tolerance is None:
            return self.default_tolerance()
        if not (mpmath.isfinite(tolerance) and 0 < tolerance < 1):
            raise ValueError(f"tolerance must be finite and in (0, 1), got {tolerance}")
        return tolerance

    # ------------------------------------------------------------------
    # the recursion

    def window_for(self, g: int, n: int) -> int:
        """The local window p + 3 (+ extra_order) of omega_{g,n}, where
        p = 6g + 2n - 4 is its largest pole order at a branch point.

        A frame built at order N has the kernel from u^-2 with order N - 5
        and sigma' from u^0 with order N - 1.  The bracket's poles have
        order at most p - 2, so its series reach order N - 1 - (p - 2), and
        kernel * bracket has order N - p - 3.  Each residue vector
        R[l1, l2] is one term of that product, read through u^-1 only, so
        _tr_step needs order >= 0, that is N >= p + 3.  The lower forms in
        the bracket come from their own windows, and their bits do not
        depend on the window.  A smaller window raises TruncationError;
        wider ones (checked up to 8 more orders) give the same bits."""
        return (6 * g + 2 * n - 4) + 3 + self.extra_order

    def form(self, g: int, n: int) -> CorrelationForm:
        """omega_{g,n} for 2g - 2 + n > 0 in the pole basis."""
        _check_stable(g, n)
        key = (g, n)
        if key not in self._forms:
            with mpmath.workprec(self.prec):
                self._forms[key] = self._tr_step(g, n)
        return self._forms[key]

    def _tr_step(self, g: int, n: int) -> CorrelationForm:
        window = self.window_for(g, n)
        # before recursing: a top-level form builds the frames once
        frames = self.curve.frames(window)
        out: dict[tuple, mpmath.mpc] = {}
        for frame in frames:
            for spect, (re, im, e) in self._bracket_blocks(g, n, frame, window).items():
                for k1, (r, i) in enumerate(zip(re, im)):
                    out[((frame.index, k1),) + spect] = _to_mpc(r, i, e)
        form = CorrelationForm(g, n, out)
        self._trim(form)
        form.asymmetry = form.check_symmetry()
        return form

    def _trim(self, form: CorrelationForm) -> None:
        scale = form.scale()
        if not scale:
            return
        cutoff = scale * mpmath.mpf(2) ** (-(3 * self.prec) // 4)
        form.coeffs = {idx: c for idx, c in form.coeffs.items() if abs(c) > cutoff}

    def _fixed_form(self, g: int, n: int) -> list[tuple]:
        """The (pole indices, fixed coefficient) pairs of omega_{g,n}, on one
        exponent; a non-finite coefficient raises ArithmeticError."""
        coeffs = self.form(g, n).coeffs
        re, im, e, _ = _fixed_point(list(coeffs.values())) or ([], [], 0, 0)
        return [(idx, (r, i, e)) for idx, r, i in zip(coeffs, re, im)]

    def _bracket_blocks(self, g: int, n: int, frame: BranchPointData, window: int):
        """The residues of the kernel times the bracketed quadratic
        expression at u^(-1-k1), k1 = 0, 1, .., as exact fixed lists grouped
        by the spectator-slot basis assignment.  A factor's first argument
        is read on the z-side chart, its second on the sigma-side chart,
        whose dz carries the kernel, so a pair of labels (l1, l2)
        contributes its residue vector R(l1, l2) times two coefficients.
        On this frame's own branch point R is a slice (`_Chart.residues`)."""
        roots = self.curve.branch_points()
        u = Series.identity(self.ring, "u", window)
        z_side = _Chart(u, None, frame.a, roots, frame.index)
        s_side = _Chart(frame.sigma, frame.kernel * frame.sigma_prime, frame.a, roots)
        one = (1, 0, 0)
        blocks: dict[tuple, list] = {}  # spectator indices -> (scalar, vector) terms

        def residues(l1: tuple[int, int], series: Series):
            """z_side.residues, naming the window it exhausts."""
            try:
                return z_side.residues(l1, series)
            except TruncationError:
                raise TruncationError(
                    f"local window {window} exhausted at branch point "
                    f"{frame.index}; omega_{{{g},{n}}} needs a window "
                    f"of (6g+2n-4)+3 = {6 * g + 2 * n - 1}"
                ) from None

        @cache
        def R(l1: tuple[int, int], l2: tuple[int, int]):
            return residues(l1, s_side.element(l2))

        # cut term: omega_{g-1, n+1}(z, sigma(z), spectators)
        if g >= 1:
            if (g - 1, n + 1) == (0, 2):  # paired with dz, the label (i, 0)
                cut = frame.kernel * _omega02_cut(frame, window)
                blocks[()] = [(one, residues((frame.index, 0), cut))]
            else:
                for idx, c in self._fixed_form(g - 1, n + 1):
                    blocks.setdefault(idx[2:], []).append((c, R(_label(idx[0]), _label(idx[1]))))

        # product terms over ordered stable splits.  A factor depends on its
        # r spectator slots only through r: it is grouped once per shape,
        # contracted with R over its z-side labels once per (g1, sp1, l2),
        # and each product contracted once per shape (g1, sp1, sp2).
        @cache
        def group(genus: int, arity: int) -> dict[tuple, list]:
            """omega_{genus, arity} as {spectator pole indices: [(label of
            the first argument, fixed coefficient)]}."""
            if (genus, arity) == (0, 2):
                i = frame.index
                terms = [((i, -k), ((i, k + 1),), (k + 1, 0, 0))
                         for k in range(max(6 * g + 2 * n - 4, 2) + 1)]
            else:
                terms = [(_label(idx[0]), idx[1:], c)
                         for idx, c in self._fixed_form(genus, arity)]
            out: dict[tuple, list] = {}
            for label, spect, c in terms:
                out.setdefault(spect, []).append((label, c))
            return out

        @cache
        def half(g1: int, sp1: tuple, l2: tuple[int, int]):
            """sum over l1 of c1 R(l1, l2) for the z-side factor (g1, sp1)."""
            return _fixed_sum((c1, R(l1, l2)) for l1, c1 in group(g1, len(sp1) + 1)[sp1])

        @cache
        def full(g1: int, sp1: tuple, sp2: tuple):
            """sum over l2 of c2 half(g1, sp1, l2) for the sigma-side factor sp2."""
            t2 = group(g - g1, n - len(sp1))[sp2]
            return _fixed_sum((c2, half(g1, sp1, l2)) for l2, c2 in t2)

        spect_slots = tuple(range(2, n + 1))
        for r in range(n):
            for subset in combinations(spect_slots, r):
                complement = tuple(s for s in spect_slots if s not in subset)
                for g1 in range(g + 1):
                    if (g1 == 0 and r == 0) or (g1 == g and r == n - 1):
                        continue  # omega_{0,1} factors are excluded
                    for sp1 in group(g1, r + 1):
                        for sp2 in group(g - g1, n - r):
                            slot_index = dict(zip(subset + complement, sp1 + sp2))
                            blocks.setdefault(tuple(slot_index[s] for s in spect_slots),
                                              []).append((one, full(g1, sp1, sp2)))
        return {key: _fixed_sum(terms) for key, terms in blocks.items()}

    # ------------------------------------------------------------------
    # closed forms

    def omega03_closed(self, points) -> mpmath.mpc:
        """Direct evaluation of the triple-point differential from its
        closed form: the sum over branch points of

            s a^3 / [(z1-a)^2 (z2-a)^2 (z3-a)^2 (1 + s a^2 P''(a))].

        The overall sign is pinned by positivity: every double Hurwitz
        coefficient is positive, so the form is positive for small positive
        arguments; it also follows from w'(a) = -(1/a)(1 + s a^2 P''(a))
        when taking the triple derivative of the cyclic closed form of
        F_{0,3}."""
        if len(points) != 3:
            raise ValueError("three points required")
        with mpmath.workprec(self.prec):
            curve = self.curve
            total = mpmath.mpc(0)
            for a in curve.branch_points():
                ppp = curve.P.derivative().derivative()(a)
                denom = 1 + curve.s * a * a * ppp
                term = curve.s * a ** 3 / denom
                for z in points:
                    term = term / (z - a) ** 2
                total += term
            return total

    def omega11_direct(self, z1) -> mpmath.mpc:
        """Independent single-residue evaluation of the genus-one one-point
        form at a numeric argument (no pole-basis read-off)."""
        with mpmath.workprec(self.prec):
            window = self.window_for(1, 1)
            total = mpmath.mpc(0)
            for frame in self.curve.frames(window):
                bracket = _omega02_cut(frame, window)
                gap = z1 - frame.a
                geo = Series.from_coeffs(
                    self.ring, "u", [gap, -self.ring.one], window
                ).inverse()
                total += (geo * frame.kernel * bracket).coefficient(-1)
            return total

    # ------------------------------------------------------------------
    # origin expansion and conjecture verification

    def expand_at_origin(self, form: CorrelationForm, mu_max: int):
        """Predicted double Hurwitz values at this curve's weights: the
        coefficient of prod mu_i x_i^(mu_i - 1) dx_i of the form.  The form
        is contracted with its slot vectors in exact integers, one slot at a
        time, last slot first, into one exact list over the mus in product
        order; each prediction, divided by prod(mu), is rounded once."""
        with mpmath.workprec(self.prec):
            zx = self.curve.invert_x_numeric(mu_max + 1)
            chart = _Chart(zx, zx.derivative(), self.ring.zero, self.curve.branch_points())
            labels = list({idx_j for idx in form.coeffs for idx_j in idx})
            fv = _fixed_point([chart.element(_label(idx)).coefficient(mu - 1)
                               for idx in labels for mu in range(1, mu_max + 1)])
            fc = _fixed_point(list(form.coeffs.values()))
            mus = list(product(range(1, mu_max + 1), repeat=form.n))
            if fv is None or fc is None:
                return {mu: self.ring.zero for mu in mus}
            (vr, vi, ev, _), (cr, ci, ec, _) = fv, fc
            vectors = {idx: (vr[k * mu_max:(k + 1) * mu_max], vi[k * mu_max:(k + 1) * mu_max])
                       for k, idx in enumerate(labels)}
            # tensors[prefix]: for each tail mu[len(prefix):], in product
            # order, the exact sum over the coefficients c whose index starts
            # with prefix of c times the tail's slot values; the last slot is
            # contracted first, and the first slot leaves one list over mus
            tensors = {idx: ([r], [i]) for idx, r, i in zip(form.coeffs, cr, ci)}
            for _ in range(form.n):
                contracted: dict[tuple, tuple] = {}
                for idx, (tr, ti) in tensors.items():
                    wr, wi = vectors[idx[-1]]
                    re = [a * c - b * d for a, b in zip(wr, wi) for c, d in zip(tr, ti)]
                    im = [a * d + b * c for a, b in zip(wr, wi) for c, d in zip(tr, ti)]
                    if idx[:-1] in contracted:
                        sr, si = contracted[idx[:-1]]
                        re, im = list(map(add, sr, re)), list(map(add, si, im))
                    contracted[idx[:-1]] = (re, im)
                tensors = contracted
            (re, im), = tensors.values()
            e = ec + form.n * ev
            return {mu: _to_mpc(r, i, e, prod(mu)) for mu, r, i in zip(mus, re, im)}

    def verify_conjecture(self, g: int, n: int, mu_max: int,
                          tolerance=None) -> VerifyReport:
        """Compare the origin expansion of omega_{g,n} with the exact
        recursion values specialized at this curve's weights; the report
        also fails if the form's asymmetry is not below the tolerance.  The
        largest key, (mu_max, .., mu_max), is checked against the table's
        caps before any frame or form is built."""
        if mu_max < 1:
            raise ValueError(f"mu_max must be at least 1, got {mu_max}")
        tolerance = self._tolerance(tolerance)
        _check_stable(g, n)
        self.table.check_caps(g, (mu_max,) * n)
        with mpmath.workprec(self.prec):
            form = self.form(g, n)
            predicted = self.expand_at_origin(form, mu_max)
            # the exact value is symmetric in mu: one per canonical mu
            q, s = list(self.curve.spec.q_values), self.curve.spec.s_value
            expected = {key: self.ring.from_rational(self.table.dh(g, key).specialize(q, s))
                        for key in {canonical_mu(mu) for mu in predicted}}
            return _report([(mu, predicted[mu], expected[canonical_mu(mu)])
                            for mu in sorted(predicted)], tolerance, form.asymmetry)

    def omega02_origin_check(self, mu_max: int, tolerance=None):
        """The unstable two-point case: expansion of
        omega_{0,2} - dx1 dx2/(x1-x2)^2 at the origin must match the exact
        two-point values (the mixed second derivative of -log Q with
        Q = (x1-x2)/(z1-z2)).  The mixed coefficients of -log Q are the
        Grunsky coefficients of the numeric z(x), `two_point_coefficients`
        at the window 2 mu_max + 2; rows vary mu1 fastest, and both
        orderings of each pair are read against the symmetric table, whose
        caps are checked first, at (mu_max, mu_max)."""
        if mu_max < 1:
            raise ValueError(f"mu_max must be at least 1, got {mu_max}")
        tolerance = self._tolerance(tolerance)
        self.table.check_caps(0, (mu_max, mu_max))
        with mpmath.workprec(self.prec):
            zx = self.curve.invert_x_numeric(2 * mu_max + 1)
            predicted = two_point_coefficients(zx, mu_max)
            q, s = list(self.curve.spec.q_values), self.curve.spec.s_value
            triples = [((mu1, mu2), predicted[mu1, mu2],
                        self.ring.from_rational(self.table.dh(0, (mu1, mu2)).specialize(q, s)))
                       for mu2 in range(1, mu_max + 1) for mu1 in range(1, mu_max + 1)]
            return _report(triples, tolerance)

    # ------------------------------------------------------------------
    # loop equations

    def loop_equation_check(self, g: int, n: int, tolerance=None) -> LoopCheckReport:
        """The sigma-symmetrized one-slot restriction of F_{g,n} must be
        analytic at every branch point.  F is recovered from the pole basis
        by termwise integration (log-free: simple-pole coefficients vanish
        for these forms)."""
        tolerance = self._tolerance(tolerance)
        with mpmath.workprec(self.prec):
            form = self.form(g, n)
            window = self.window_for(g, n)
            frames = self.curve.frames(window)
            scale = form.scale()
            worst = mpmath.mpf(0)
            # the first slot's coefficients for each spectator multi-index;
            # only the largest residual is kept, so their order is immaterial
            profiles: dict[tuple, dict] = {}
            for idx, c in form.coeffs.items():
                profiles.setdefault(idx[1:], {})[idx[0]] = c
            for profile in profiles.values():
                for bp in frames:
                    terms = {k: c for (i, k), c in profile.items() if i == bp.index}
                    if not terms:
                        continue
                    # simple poles integrate to logs; they must be absent
                    log_part = abs(terms.get(0, mpmath.mpc(0)))
                    if scale:
                        worst = max(worst, log_part / scale)
                    max_k = max(terms)
                    coeffs = [mpmath.mpc(0)] * (max_k + window)
                    f_scale = mpmath.mpf(0)
                    for k, c in terms.items():
                        if k >= 1:
                            coeffs[max_k - k] = -c / k
                            f_scale = max(f_scale, abs(c / k))
                    f_local = Series(self.ring, "u", -max_k, coeffs, window)
                    sym = f_local + f_local.compose(bp.sigma)
                    principal = mpmath.mpf(0)
                    for e in range(sym.lo, 0):
                        principal = max(principal, abs(sym.coefficient(e)))
                    rel = principal / f_scale if f_scale else mpmath.mpf(0)
                    worst = max(worst, rel)
            return LoopCheckReport(worst, tolerance)

    # ------------------------------------------------------------------
    # stability

    def stability_report(self, g: int, n: int):
        """Re-run at doubled precision and at +4 truncation orders; report
        the largest relative drift of any retained coefficient."""
        base = self.form(g, n)
        from dataclasses import replace

        hi_curve = SpectralCurve(replace(self.curve.spec,
                                         precision=2 * self.prec))
        hi = RecursionEngine(hi_curve, table=self.table)
        wide = RecursionEngine(self.curve, table=self.table,
                               extra_order=self.extra_order + 4)
        with mpmath.workprec(2 * self.prec):
            drift_prec = _form_drift(base, hi.form(g, n))
            drift_trunc = _form_drift(base, wide.form(g, n))
        return {
            "precision_drift": drift_prec,
            "truncation_drift": drift_trunc,
            "precision_tol": self.default_tolerance(),
        }


def _form_drift(a: CorrelationForm, b: CorrelationForm):
    scale = max(a.scale(), b.scale())
    if not scale:
        return mpmath.mpf(0)
    worst = mpmath.mpf(0)
    for idx in set(a.coeffs) | set(b.coeffs):
        ca = a.coeffs.get(idx, mpmath.mpc(0))
        cb = b.coeffs.get(idx, mpmath.mpc(0))
        worst = max(worst, abs(ca - cb))
    return worst / scale

