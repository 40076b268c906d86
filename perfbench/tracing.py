"""Call-boundary tracing for the traced benchmark run.

Wrappers are installed from outside the package, on attributes found by
dotted name; a name that no longer resolves drops only its own layer, with a
note.  Each wrapped call adds one call and its self time (its duration less
that of wrapped calls inside it) to its layer, so hot functions cost two
clock reads per call and no span.  Coarse boundaries (jobs, forms, frames,
`dp_count`, outermost `dh`) also record spans: id, name, start, end, parent.
Spans stay in memory until `spans()` is written out at the end.
"""

from __future__ import annotations

import importlib
import weakref
from time import perf_counter


def resolve(dotted: str):
    """(owner, attribute, current value) for a dotted name whose leading
    part is an importable module."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(f"no importable module in {dotted!r}")


class Tracer:
    def __init__(self):
        self.t0 = perf_counter()
        self.layers: dict[str, list] = {}      # layer -> [calls, self_s, total_s]
        self.counters: dict[str, float] = {}
        self.notes: list[str] = []
        self._spans: list[list] = []
        self._open_spans: list[int] = []
        self._stack: list[list[float]] = [[0.0]]  # child time of each open call

    # ------------------------------------------------------------------

    def wrap(self, dotted: str, layer: str, enter=None, leave=None) -> bool:
        """Replace `dotted` by a timing wrapper.  `enter(*args, **kwargs)`
        runs before each call; its value reaches `leave(state, result,
        elapsed)`, which runs after the call (`result` is None if it raised)."""
        try:
            owner, attr, original = resolve(dotted)
        except (ImportError, AttributeError) as exc:
            self.notes.append(f"{dotted} not found ({exc}); layer {layer} dropped")
            return False
        stat = self.layers.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack

        def wrapper(*args, **kwargs):
            state = enter(*args, **kwargs) if enter else None
            frame = [0.0]
            stack.append(frame)
            result = None
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                stat[2] += elapsed
                if leave:
                    leave(state, result, elapsed)

        setattr(owner, attr, wrapper)
        return True

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # spans

    def open_span(self, name: str) -> int:
        sid = len(self._spans)
        parent = self._open_spans[-1] if self._open_spans else None
        self._spans.append([sid, name, perf_counter() - self.t0, None, parent])
        self._open_spans.append(sid)
        return sid

    def close_span(self, sid: int) -> None:
        self._spans[sid][3] = perf_counter() - self.t0
        while self._open_spans and self._open_spans.pop() != sid:
            pass

    def spans(self) -> list[dict]:
        return [{"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                for sid, name, start, end, parent in self._spans]

    def run_job(self, name: str, fn):
        """Run one job as a span; its self time is the time no wrapped
        layer accounts for."""
        frame = [0.0]
        self._stack.append(frame)
        sid = self.open_span(f"job:{name}")
        start = perf_counter()
        try:
            return fn()
        finally:
            elapsed = perf_counter() - start
            self.close_span(sid)
            self._stack.pop()
            stat = self.layers.setdefault("job", [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += elapsed - frame[0]
            stat[2] += elapsed


# ----------------------------------------------------------------------
# the wrap points and their extra counters


def install(tracer: Tracer) -> None:
    plain = [
        ("dhtr.series.Series.__mul__", "series.mul"),
        ("dhtr.series.Series.compose", "series.compose"),
        ("dhtr.series.Series.inverse", "series.inverse"),
        ("dhtr.series.Series.pow_int", "series.pow_int"),
        ("dhtr.series.Series.reversion", "series.reversion"),
        ("dhtr.curve.SpectralCurve.branch_points", "curve.branch_points"),
        ("dhtr.curve.SpectralCurve.invert_x_numeric", "curve.invert_x_numeric"),
        ("dhtr.toprec.RecursionEngine.expand_at_origin", "toprec.expand_at_origin"),
        ("dhtr.toprec.RecursionEngine.omega02_origin_check",
         "toprec.omega02_origin_check"),
        ("dhtr.toprec.RecursionEngine.stability_report", "toprec.stability_report"),
        ("dhtr.weightpoly.WeightPolynomial.__add__", "weightpoly.add"),
        ("dhtr.oracle.FactorizationOracle.counts", "oracle.counts"),
        ("dhtr.oracle.FactorizationOracle.validate", "oracle.validate"),
        ("dhtr.pruning.PruningTransform.ph", "pruning.ph"),
        ("dhtr.pruning.PruningKernel.c", "pruning.kernel.c"),
        ("dhtr.pruning.PruningKernel.chat", "pruning.kernel.chat"),
        ("dhtr.quantum.WaveFunction.__init__", "quantum.wavefunction"),
        ("dhtr.quantum.apply_quantum_curve", "quantum.apply"),
        ("dhtr.quantum.WaveFunction.log_matches_direct_sum", "quantum.log_check"),
        ("dhtr.quantum.semiclassical_check", "quantum.semiclassical"),
        ("dhtr.tables.diff_table", "tables.diff"),
    ]
    for dotted, layer in plain:
        tracer.wrap(dotted, layer)

    tracer.wrap("dhtr.weightpoly.WeightPolynomial.__mul__", "weightpoly.mul",
                enter=lambda a, b: tracer.count("weightpoly.mul.term_products",
                                                len(a.terms) * len(b.terms)))

    # frames: a span per call; "built" counts orders new to that curve
    seen_orders = weakref.WeakKeyDictionary()

    def frames_enter(curve, order):
        orders = seen_orders.setdefault(curve, set())
        if order not in orders:
            orders.add(order)
            tracer.count("curve.frames.built")
        return tracer.open_span(f"frames({order})")

    tracer.wrap("dhtr.curve.SpectralCurve.frames", "curve.frames",
                enter=frames_enter, leave=lambda sid, *_: tracer.close_span(sid))

    # forms: a span per call; time per (g, n, precision) excludes nested
    # forms; terms are counted once per engine and key
    form_nested: list[float] = []
    seen_forms = weakref.WeakKeyDictionary()

    def form_enter(engine, g, n):
        form_nested.append(0.0)
        return engine, g, n, tracer.open_span(f"form({g},{n})@{engine.prec}")

    def form_leave(state, form, elapsed):
        engine, g, n, sid = state
        tracer.close_span(sid)
        nested = form_nested.pop()
        if form_nested:
            form_nested[-1] += elapsed
        tracer.count(f"toprec.form.g{g}n{n}.p{engine.prec}_s", elapsed - nested)
        keys = seen_forms.setdefault(engine, set())
        if form is not None and (g, n) not in keys:
            keys.add((g, n))
            tracer.count("toprec.form.terms", len(form.coeffs))

    tracer.wrap("dhtr.toprec.RecursionEngine.form", "toprec.form",
                enter=form_enter, leave=form_leave)

    # dh: a span for each outermost call; distinct keys per table
    dh_depth = [0]
    seen_keys = weakref.WeakKeyDictionary()

    def dh_enter(table, g, mu):
        keys = seen_keys.setdefault(table, set())
        key = (g, tuple(sorted(mu, reverse=True)))
        if key not in keys:
            keys.add(key)
            tracer.count("cutjoin.dh.distinct_keys")
        dh_depth[0] += 1
        return tracer.open_span("dh") if dh_depth[0] == 1 else None

    def dh_leave(sid, *_):
        dh_depth[0] -= 1
        if sid is not None:
            tracer.close_span(sid)

    tracer.wrap("dhtr.cutjoin.DHTable.dh", "cutjoin.dh", enter=dh_enter, leave=dh_leave)

    tracer.wrap("dhtr.oracle.dp_count", "oracle.dp_count",
                enter=lambda *_: tracer.open_span("dp_count"),
                leave=lambda sid, *_: tracer.close_span(sid))
