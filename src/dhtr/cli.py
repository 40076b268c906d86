"""Command-line surface.

Commands
--------
dh         one double Hurwitz polynomial
ph         one pruned double Hurwitz polynomial
table      regenerate a golden reference table (A or B) and diff it
oracle     compare the factorization count against the recursion
tr-verify  expand a correlation form at the origin against the table
qc-verify  exact quantum-curve residual check
loop-check sigma-symmetrization diagnostics for a correlation form
phi-fit    exact fit of the pruned numbers in the centered phi products
closed-forms  exact (0,1) and (0,2) generating-function identities

Each handler imports the engines it runs, so `dh`, `ph`, `table`, `oracle`,
`qc-verify` and `phi-fit` start without the TR engine.  No command imports
numpy: branch points are solved in pure Python.

Exit codes: 0 pass, 1 mismatch or failed verdict, 2 usage error (a
ValueError: malformed input, or input out of range or past a cap; this
includes a `tr-verify --tolerance` that is not finite and in (0, 1), as
such a bound passes every row or none), 3 could
not compute (an ArithmeticError such as a non-finite series coefficient, a
branch point that does not polish, a division by zero, or an oracle that
fails its golden normalization check; or a RuntimeError such as a
RecursionError), 141 stdout closed by its reader (a broken pipe, as in
`dhtr phi-fit --g 2 --n 2 | head -1`; 128 + SIGPIPE, no traceback).  A
computation that breaks down is never reported as a failed verdict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import mpmath

from .weightpoly import parse_rational

__all__ = ["main"]


def _parse_mu(text: str) -> tuple[int, ...]:
    try:
        mu = tuple(int(p) for p in text.split(","))
    except ValueError:
        mu = ()
    if not mu or any(p < 1 for p in mu):
        raise ValueError("mu must be a comma-separated list of positive integers")
    return mu


def _parse_q(text: str, d: int) -> list[Fraction]:
    parts = [parse_rational(p) for p in text.split(",")]
    if len(parts) != d:
        raise ValueError(f"expected {d} weights, got {len(parts)}")
    return parts


def _curve_from_args(args):
    from .curve import CurveSpec, SpectralCurve

    q = _parse_q(args.q, args.d)
    spec = CurveSpec.make(args.d, q, parse_rational(args.s),
                          precision=args.precision)
    return SpectralCurve(spec)


def _add_weight_flags(parser):
    parser.add_argument("--d", type=int, default=2,
                        help="degree of the weight polynomial P")
    parser.add_argument("--q", default="1,1",
                        help="comma-separated rational weights q_1..q_d")
    parser.add_argument("--s", default="1/10", help="rational weight s")


def _add_curve_flags(parser):
    _add_weight_flags(parser)
    parser.add_argument("--precision", type=int, default=256,
                        help="working precision in bits")


def _emit_report(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=1))
    else:
        for key, value in payload.items():
            if key == "rows":
                for row in value:
                    print("  " + " ".join(f"{k}={v}" for k, v in row.items()))
            else:
                print(f"{key}: {value}")


def _nstr(x) -> str:
    return mpmath.nstr(mpmath.mpf(abs(x)), 12)


# ----------------------------------------------------------------------
# commands


def cmd_polynomial(args) -> int:
    """`dh`, or `ph` (args.pruned): one double Hurwitz polynomial."""
    from .cutjoin import DHTable
    from .tables import render_polynomial_s1

    mu = _parse_mu(args.mu)
    d = args.d or sum(mu)
    table = DHTable(d)
    if args.pruned:
        from .pruning import PruningTransform

        poly = PruningTransform(table).ph(args.g, mu)
    else:
        poly = table.dh(args.g, mu)
    if args.format == "json":
        pruned = {"pruned": True} if args.pruned else {}
        print(json.dumps({"g": args.g, "mu": list(mu), "d": d, **pruned,
                          "poly": poly.to_json()}, indent=1))
    elif args.s_poly:
        print(poly.pretty(show_s=True))
    else:
        print(render_polynomial_s1(poly))
    return 0


def cmd_table(args) -> int:
    from .tables import (diff_table, regenerate, render_rows_csv, render_rows_json,
                         render_rows_text)

    name = args.table.upper()
    if name not in ("A", "B"):
        print("error: table must be A or B", file=sys.stderr)
        return 2
    regenerated = list(regenerate(name))
    rows = [(row.g, row.mu, poly) for row, poly in regenerated]
    if args.format == "json":
        print(render_rows_json(rows))
    elif args.format == "csv":
        print(render_rows_csv(rows))
    else:
        print(render_rows_text(rows))
    diff = diff_table(name, regenerated)
    if diff.ok:
        print(f"table {name}: {diff.row_count} rows, all equal", file=sys.stderr)
        return 0
    for g, mu, want, got in diff.mismatches:
        print(f"MISMATCH at g={g} mu={mu}: expected {want}, got {got}",
              file=sys.stderr)
    return 1


def cmd_oracle(args) -> int:
    from .cutjoin import DHTable
    from .oracle import FactorizationOracle
    from .tables import render_polynomial_s1

    mu = _parse_mu(args.mu)
    d = args.d or sum(mu)
    oracle = FactorizationOracle(d)
    report = oracle.compare(args.g, mu, DHTable(d))
    counts = [{"lambda": list(lam), "m": m, "count": count}
              for (lam, m), count in sorted(report.counts.items())]
    if args.format == "json":
        print(json.dumps({
            "g": args.g, "mu": list(mu), "equal": report.equal,
            "counts": counts,
            "oracle": report.oracle_poly.to_json(),
            "recursion": report.recursion_poly.to_json(),
        }, indent=1))
    else:
        for entry in counts:
            print(f"  lambda={entry['lambda']} m={entry['m']} N={entry['count']}")
        print(f"oracle polynomial:    {render_polynomial_s1(report.oracle_poly)}")
        print(f"recursion polynomial: {render_polynomial_s1(report.recursion_poly)}")
        print("EQUAL" if report.equal else "NOT EQUAL")
    return 0 if report.equal else 1


def cmd_tr_verify(args) -> int:
    if args.stability and (args.g, args.n) == (0, 2):
        raise ValueError("--stability re-runs a stable form, 2g - 2 + n > 0; "
                         "(g, n) = (0, 2) has none")
    from .toprec import RecursionEngine

    curve = _curve_from_args(args)
    engine = RecursionEngine(curve)
    tol = None if args.tolerance is None else mpmath.mpf(args.tolerance)
    if (args.g, args.n) == (0, 2):
        report = engine.omega02_origin_check(args.mu_max, tolerance=tol)
    else:
        report = engine.verify_conjecture(args.g, args.n, args.mu_max,
                                          tolerance=tol)
    rows = [{"mu": list(row.mu), "predicted": str(row.predicted),
             "expected": str(row.expected),
             "rel_residual": _nstr(row.rel_residual),
             "verdict": "PASS" if row.ok else "FAIL"} for row in report.rows]
    payload = {"g": args.g, "n": args.n, "mu_max": args.mu_max,
               "tolerance": _nstr(report.tolerance),
               "max_residual": _nstr(report.max_residual),
               **({"asymmetry": _nstr(report.asymmetry)}
                  if report.asymmetry >= report.tolerance else {}),
               "verdict": "PASS" if report.ok else "FAIL", "rows": rows}
    if args.stability:
        stab = engine.stability_report(args.g, args.n)
        payload["stability"] = {
            "precision_drift": _nstr(stab["precision_drift"]),
            "truncation_drift": _nstr(stab["truncation_drift"]),
            "tolerance": _nstr(stab["precision_tol"]),
            "verdict": "PASS" if (stab["precision_drift"] < stab["precision_tol"]
                                  and stab["truncation_drift"] < stab["precision_tol"])
                       else "FAIL",
        }
    _emit_report(payload, args.format)
    ok = report.ok and (not args.stability or payload["stability"]["verdict"] == "PASS")
    return 0 if ok else 1


def cmd_qc_verify(args) -> int:
    from .cutjoin import DHTable
    from .quantum import WaveFunction, apply_quantum_curve, semiclassical_check

    table = DHTable(args.d)
    wf = WaveFunction(table, K=args.K, L=args.L)
    report = apply_quantum_curve(wf)
    log_ok = wf.log_matches_direct_sum()
    semi_ok = semiclassical_check(args.d)
    payload = {
        "d": args.d, "K": args.K, "L": args.L,
        "cells_checked": len(report.checked_cells),
        "nonzero_residuals": len(report.residuals),
        **({"off_grading_cells": len(report.off_grading)} if report.off_grading else {}),
        "log_consistency": "PASS" if log_ok else "FAIL",
        "semiclassical": "PASS" if semi_ok else "FAIL",
        "verdict": "PASS" if (report.ok and log_ok and semi_ok) else "FAIL",
    }
    if args.dump_residuals and report.residuals:
        payload["residuals"] = {
            f"x^{k} hbar^{j}": poly.to_json()
            for (k, j), poly in sorted(report.residuals.items())
        }
    _emit_report(payload, args.format)
    return 0 if payload["verdict"] == "PASS" else 1


def cmd_loop_check(args) -> int:
    from .toprec import RecursionEngine

    curve = _curve_from_args(args)
    engine = RecursionEngine(curve)
    report = engine.loop_equation_check(args.g, args.n)
    payload = {"g": args.g, "n": args.n,
               "worst_principal_part": _nstr(report.worst),
               "tolerance": _nstr(report.tolerance),
               "verdict": "PASS" if report.ok else "FAIL"}
    _emit_report(payload, args.format)
    return 0 if report.ok else 1


def cmd_phi_fit(args) -> int:
    from .curve import phi_fit
    from .cutjoin import DHTable
    from .pruning import PruningTransform
    from .weightpoly import format_rational

    q = _parse_q(args.q, args.d)
    report = phi_fit(PruningTransform(DHTable(args.d)), q, parse_rational(args.s),
                     args.g, args.n)
    rows = [{"basis": " * ".join(f"phi[{i},{k}]" for (i, k) in combo),
             "coefficient": format_rational(value)}
            for combo, value in report.coefficients.items()]
    payload = {"g": args.g, "n": args.n, "degree_bound": report.degree_bound,
               "box": report.box, "equations": report.equations,
               "unknowns": report.unknowns, "rank": report.rank,
               "verdict": "PASS" if report.ok else "FAIL", "rows": rows}
    _emit_report(payload, args.format)
    return 0 if report.ok else 1


def cmd_closed_forms(args) -> int:
    from .curve import f01_check, f02_check

    r1 = f01_check(args.d, args.order)
    r2 = f02_check(args.d, args.order)
    payload = {
        "f01": "PASS" if r1.ok else f"FAIL ({r1.detail})",
        "f02": "PASS" if r2.ok else f"FAIL ({r2.detail})",
        "verdict": "PASS" if (r1.ok and r2.ok) else "FAIL",
    }
    _emit_report(payload, args.format)
    return 0 if r1.ok and r2.ok else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dhtr",
        description="Double Hurwitz numbers, pruning, and topological "
                    "recursion checks on x = z exp(-s P(z))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dh", help="one double Hurwitz polynomial")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", required=True, help="comma-separated parts")
    p.add_argument("--d", type=int, default=0,
                   help="largest tracked vertex weight (default: sum of mu)")
    p.add_argument("--s-poly", action="store_true",
                   help="show the full s-grading instead of s = 1")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_polynomial, pruned=False)

    p = sub.add_parser("ph", help="one pruned double Hurwitz polynomial")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--s-poly", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_polynomial, pruned=True)

    p = sub.add_parser("table", help="regenerate golden table A or B and diff")
    p.add_argument("table", help="A (double Hurwitz) or B (pruned)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("oracle", help="factorization count vs recursion")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("tr-verify", help="origin expansion vs exact table")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mu-max", type=int, default=4)
    p.add_argument("--tolerance", default=None,
                   help="relative residual bound (default 10^-prec/4)")
    p.add_argument("--stability", action="store_true",
                   help="also re-run at doubled precision and +4 orders")
    _add_curve_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_tr_verify)

    p = sub.add_parser("qc-verify", help="exact quantum-curve residuals")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--K", type=int, default=6, help="x-truncation")
    p.add_argument("--L", type=int, default=2, help="hbar-truncation")
    p.add_argument("--dump-residuals", action="store_true")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_qc_verify)

    p = sub.add_parser("loop-check", help="sigma-symmetrization diagnostics")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_curve_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_loop_check)

    p = sub.add_parser("phi-fit", help="exact fit of PH in the phi products")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_weight_flags(p)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_phi_fit)

    p = sub.add_parser("closed-forms", help="exact (0,1)/(0,2) identities")
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_closed_forms)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the reader went away: stdout goes nowhere, so the flush at exit
        # stays quiet, and the exit status is a shell's 128 + SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
