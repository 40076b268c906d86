"""Inputs and jobs of the four parts of the benchmark's workloads.

run.py maps each workload of BENCHMARK.json to its parts: `tr-verify` is
one part, `exact-suite` is `exact-table`, `oracle-sweep` and `qc-verify`.
`build(name, seed, reference)` turns a seed into a part's inputs and
returns them with the job list.  Inputs are made here, from the seed; the
package only ever receives them as arguments.  Every job returns
`(ok, info)`: `ok` is the fail-closed verdict of the job's output check and
`info` holds the figures recorded with it.  Functions of the package are
looked up through their module at call time, so the traced run sees its
wrappers.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import mpmath

from dhtr import curve, cutjoin, oracle, pruning, quantum, tables, toprec

# (q1, q2, s) for the d = 2 curve of tr-verify.  The first entry is the
# acceptance curve, used for seed 0.  The entry with q2 = -s q1^2 / 8 has a
# double branch point; seeds that draw it fall through to the next entry.
ACCEPTANCE_CURVE = (Fraction(1), Fraction(1), Fraction(1, 10))
CURVE_GRID = [
    (Fraction(q1), Fraction(q2), Fraction(s))
    for q1 in (1, Fraction(1, 2), 2)
    for q2 in (1, Fraction(1, 2))
    for s in (Fraction(1, 10), Fraction(1, 12))
] + [(Fraction(1), Fraction(-1, 80), Fraction(1, 10))]

TR_PRECISION = 256


def partitions(total: int, max_part: int | None = None):
    """Partitions of `total` as non-increasing tuples, largest first."""
    max_part = total if max_part is None else max_part
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in partitions(total - first, first):
            yield (first,) + rest


def poly_digest(poly) -> str:
    """Digest of the canonical JSON form of an exact polynomial."""
    text = json.dumps(poly.to_json(), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def _mu_key(mu) -> str:
    return ",".join(str(p) for p in mu)


def build(name: str, seed: int, reference: dict):
    if name == "tr-verify":
        return _tr_verify(seed)
    if name == "exact-table":
        return _exact_table(seed, reference["exact-table"])
    if name == "oracle-sweep":
        return _oracle_sweep(seed)
    if name == "qc-verify":
        return _qc_verify(seed)
    raise ValueError(f"unknown part {name!r}")


# ----------------------------------------------------------------------
# tr-verify


def pick_curve(seed: int):
    """The first admissible curve of the seed's candidate order; the
    library's own branch-point solver screens out degenerate curves."""
    grid = list(CURVE_GRID)
    random.Random(seed).shuffle(grid)
    candidates = [ACCEPTANCE_CURVE] + grid if seed == 0 else grid
    rejected = []
    for q1, q2, s in candidates:
        spec = curve.CurveSpec.make(2, [q1, q2], s, precision=TR_PRECISION)
        try:
            curve.SpectralCurve(spec).branch_points()
        except curve.DegenerateCurveError:
            rejected.append([str(q1), str(q2), str(s)])
            continue
        return (q1, q2, s), rejected
    raise RuntimeError("no admissible curve among the candidates")


def _headroom(report) -> float:
    """min log10(tolerance / rel_residual) over the report's rows; a
    residual below one unit in the last place counts as that unit."""
    floor = mpmath.mpf(2) ** -TR_PRECISION
    return float(min(mpmath.log10(report.tolerance / max(row.rel_residual, floor))
                     for row in report.rows))


def _tr_verify(seed: int):
    (q1, q2, s), rejected = pick_curve(seed)
    inputs = {"d": 2, "q": [str(q1), str(q2)], "s": str(s),
              "precision": TR_PRECISION, "rejected_candidates": rejected}
    state = {}

    def engine():
        if "engine" not in state:
            spec = curve.CurveSpec.make(2, [q1, q2], s, precision=TR_PRECISION)
            state["engine"] = toprec.RecursionEngine(curve.SpectralCurve(spec))
        return state["engine"]

    def rows_check(report, expected_rows):
        ok = report.ok and len(report.rows) == expected_rows
        return ok, {"rows": len(report.rows), "headroom_digits": _headroom(report),
                    "max_residual": mpmath.nstr(report.max_residual, 5)}

    def verify(g, n, mu_max):
        def job():
            return rows_check(engine().verify_conjecture(g, n, mu_max), mu_max ** n)
        return f"verify_conjecture({g},{n},mu_max={mu_max})", job

    def omega02():
        return rows_check(engine().omega02_origin_check(4), 16)

    def stability():
        report = engine().stability_report(2, 1)
        tol = report["precision_tol"]
        ok = report["precision_drift"] < tol and report["truncation_drift"] < tol
        return ok, {key: mpmath.nstr(report[key], 5)
                    for key in ("precision_drift", "truncation_drift")}

    jobs = [verify(0, 3, 3), verify(1, 1, 5), verify(0, 4, 4), verify(1, 2, 4),
            verify(2, 1, 4), ("omega02_origin_check(4)", omega02),
            ("stability_report(2,1)", stability)]
    return inputs, jobs


# ----------------------------------------------------------------------
# exact-table


def _exact_table(seed: int, reference: dict):
    rng = random.Random(seed)
    dh_mus = list(partitions(12))
    ph_keys = [(g, mu) for g in (0, 1) for mu in partitions(9)
               if (g, len(mu)) != (0, 1)]
    if seed:
        rng.shuffle(dh_mus)
        rng.shuffle(ph_keys)
    inputs = {"d": 2, "dh_g": 1, "dh_mu": [_mu_key(mu) for mu in dh_mus],
              "ph": [[g, _mu_key(mu)] for g, mu in ph_keys]}
    state = {}

    def table():
        if "table" not in state:
            state["table"] = cutjoin.DHTable(2)
        return state["table"]

    def transform():
        if "transform" not in state:
            state["transform"] = pruning.PruningTransform(table())
        return state["transform"]

    def checked(key, poly):
        digest = poly_digest(poly)
        return digest == reference.get(key), {"digest": digest}

    def diff(name):
        def job():
            result = tables.diff_table(name)
            rows = reference.get(f"diff/{name}")
            return result.ok and result.row_count == rows, {"rows": result.row_count}
        return f"diff_table({name})", job

    def dh(mu):
        key = f"dh/1/{_mu_key(mu)}"
        return key, lambda: checked(key, table().dh(1, mu))

    def ph(g, mu):
        key = f"ph/{g}/{_mu_key(mu)}"
        return key, lambda: checked(key, transform().ph(g, mu))

    jobs = [diff("A"), diff("B")]
    jobs += [dh(mu) for mu in dh_mus]
    jobs += [ph(g, mu) for g, mu in ph_keys]
    return inputs, jobs


# ----------------------------------------------------------------------
# oracle-sweep


def _oracle_sweep(seed: int):
    keys = [(g, mu) for total in range(1, 7) for mu in partitions(total)
            for g in (0, 1)]
    if seed:
        random.Random(seed).shuffle(keys)
    inputs = {"cases": [[g, _mu_key(mu)] for g, mu in keys], "d": "|mu|"}

    def compare(g, mu):
        def job():
            d = sum(mu)
            report = oracle.FactorizationOracle(d).compare(g, mu, cutjoin.DHTable(d))
            return report.equal, {"terms": len(report.recursion_poly.terms)}
        return f"compare({g},{_mu_key(mu)})", job

    return inputs, [compare(g, mu) for g, mu in keys]


# ----------------------------------------------------------------------
# qc-verify


def _qc_verify(seed: int):
    configs = [(2, 9, 3), (3, 8, 2)]
    if seed:
        random.Random(seed).shuffle(configs)
    inputs = {"configs": [{"d": d, "K": K, "L": L} for d, K, L in configs]}
    jobs = []
    for d, K, L in configs:
        state = {}

        def wavefunction(d=d, K=K, L=L, state=state):
            state["wf"] = quantum.WaveFunction(cutjoin.DHTable(d), K=K, L=L)
            return bool(state["wf"].cells), {"cells": len(state["wf"].cells)}

        def apply(state=state):
            report = quantum.apply_quantum_curve(state["wf"])
            return report.ok and bool(report.checked_cells), {
                "cells_checked": len(report.checked_cells),
                "nonzero_residuals": len(report.residuals)}

        def log_check(state=state):
            return state["wf"].log_matches_direct_sum() is True, {}

        def semiclassical(d=d):
            return quantum.semiclassical_check(d) is True, {}

        tag = f"d={d},K={K},L={L}"
        jobs += [(f"WaveFunction({tag})", wavefunction),
                 (f"apply_quantum_curve({tag})", apply),
                 (f"log_matches_direct_sum({tag})", log_check),
                 (f"semiclassical_check(d={d})", semiclassical)]
    return inputs, jobs
