import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from dhtr import tables
from dhtr.cli import main
from dhtr.curve import SpectralCurve
from dhtr.cutjoin import DHTable
from dhtr.pruning import PruningTransform
from dhtr.weightpoly import WeightPolynomial

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as err:  # argparse/validation exits carry the code
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dh_command(capsys):
    code, out, _ = run(capsys, "dh", "--g", "0", "--mu", "2,1,1,1")
    assert code == 0
    assert out.strip() == ("25 q5 + 64 q4 q1 + 54 q3 q2 + 81 q3 q1^2 + "
                           "72 q2^2 q1 + 70 q2 q1^3 + 10 q1^5")


def test_dh_s_poly(capsys):
    code, out, _ = run(capsys, "dh", "--g", "0", "--mu", "1", "--s-poly")
    assert code == 0
    assert out.strip() == "q1"


def test_dh_json_round_trip(capsys):
    code, out, _ = run(capsys, "dh", "--g", "1", "--mu", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    poly = WeightPolynomial.from_json(payload["poly"], payload["d"])
    assert payload["g"] == 1 and payload["mu"] == [2]
    assert not poly.is_zero()


def test_ph_command(capsys):
    code, out, _ = run(capsys, "ph", "--g", "2", "--mu", "3")
    assert code == 0
    assert out.strip() == "3/4 q3 + 19/30 q2 q1 + 5/48 q1^3"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--g", "1", "--mu", "2")
    assert code == 0
    assert "EQUAL" in out


def test_oracle_json(capsys):
    code, out, _ = run(capsys, "oracle", "--g", "0", "--mu", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] is True
    assert any(entry["lambda"] == [2] for entry in payload["counts"])


def test_qc_verify(capsys):
    code, out, _ = run(capsys, "qc-verify", "--d", "1", "--K", "5", "--L", "2")
    assert code == 0
    assert "verdict: PASS" in out


def test_qc_verify_without_checkable_cells_rejected(capsys):
    # with K <= d every checked cell has x-degree 0 and is zero for any
    # table: a usage error, not a PASS on no cells or on trivial ones
    for d, K, L in [("2", "2", "0"), ("3", "3", "2")]:
        code, out, err = run(capsys, "qc-verify", "--d", d, "--K", K, "--L", L)
        assert code == 2 and not out
        assert err.startswith("error: the quantum-curve check needs K > d")


def test_qc_verify_at_one_above_d_without_hbar_rejected(capsys):
    # K = d + 1 and L = 0 leave the single cell (1, -1), zero for any table
    code, out, err = run(capsys, "qc-verify", "--d", "2", "--K", "3", "--L", "0")
    assert code == 2 and not out
    assert err.startswith("error: the quantum-curve check at L=0 needs K > d + 1")


def test_qc_verify_at_one_above_d_with_hbar_runs(capsys):
    code, out, _ = run(capsys, "qc-verify", "--d", "2", "--K", "3", "--L", "1")
    assert code == 0
    assert "cells_checked: 3" in out and "verdict: PASS" in out


def test_qc_verify_grid(capsys):
    # every accepted window passes; every rejected one is a usage error
    # with one error line: K > d, and K > d + 1 at L = 0
    for d, K, L in product(range(1, 4), range(1, 8), range(4)):
        argv = ("qc-verify", "--d", str(d), "--K", str(K), "--L", str(L))
        code, out, err = run(capsys, *argv)
        if K - d >= max(1, 2 - L):
            assert code == 0 and "verdict: PASS" in out and not err, argv
        else:
            assert code == 2 and not out, argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_closed_forms_order_below_one_rejected(capsys):
    # order 0 would pass without checking a coefficient
    for order in ("0", "-1"):
        code, out, err = run(capsys, "closed-forms", "--order", order)
        assert code == 2 and not out
        assert err == f"error: closed-form checks need order >= 1, got {order}\n"


def test_closed_forms_checks_both_identities_at_the_order(capsys, monkeypatch):
    # F_{0,2} once ran at min(--order, 6); each check now gets --order
    from dhtr import curve

    orders = []

    def recording(check):
        def at_order(d, order):
            orders.append((check.__name__, d, order))
            return check(d, 2)  # the real check, at an order that runs fast
        return at_order

    for name in ("f01_check", "f02_check"):
        monkeypatch.setattr(curve, name, recording(getattr(curve, name)))
    code, out, _ = run(capsys, "closed-forms", "--d", "3", "--order", "10")
    assert code == 0 and out.endswith("verdict: PASS\n")
    assert orders == [("f01_check", 3, 10), ("f02_check", 3, 10)]


def test_oracle_normalization_failure_exits_three(capsys, monkeypatch):
    # a failed golden cross-check means the oracle could not compute a
    # polynomial to compare: exit 3, not a usage error
    golden = tables.load_golden

    def doubled(name):
        return [tables.GoldenRow(row.g, row.mu,
                                 {key: 2 * v for key, v in row.coeffs.items()})
                for row in golden(name)]

    monkeypatch.setattr(tables, "load_golden", doubled)
    code, out, err = run(capsys, "oracle", "--g", "0", "--mu", "2")
    assert code == 3 and not out
    assert err.startswith("error: oracle normalization failed golden cross-check")


def test_bad_usage_exit_codes(capsys):
    assert run(capsys, "table", "Q")[0] == 2
    assert run(capsys, "dh", "--g", "0", "--mu", "0,1")[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


def test_table_csv_format(capsys):
    code, out, err = run(capsys, "table", "B", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "g,mu,poly"
    assert len(lines) == 41  # header + 40 rows
    assert "all equal" in err


def test_table_b_computes_each_ph_once(capsys, monkeypatch):
    # the printed rows and the diff come from one regeneration pass
    calls = []
    ph = PruningTransform.ph

    def counted(self, g, mu):
        calls.append((g, mu))
        return ph(self, g, mu)

    monkeypatch.setattr(PruningTransform, "ph", counted)
    assert run(capsys, "table", "B")[0] == 0
    assert len(calls) == 40


def test_tr_verify_tolerance_outside_unit_interval_rejected(capsys):
    # a bound of 1 or more, inf included, passes every row, and one of 0
    # or less, or nan, passes none: both are usage errors, not verdicts
    for value in ("-1", "0", "nan", "inf", "1"):
        for n in ("3", "2"):
            code, out, err = run(capsys, "tr-verify", "--g", "0", "--n", n,
                                 "--mu-max", "1", "--tolerance", value)
            assert code == 2 and not out, (value, n)
            assert err.startswith("error: tolerance must be finite and in (0, 1)")
            assert err.count("\n") == 1, (value, n)
    # an empty value is malformed, not the default
    code, out, err = run(capsys, "tr-verify", "--g", "0", "--n", "3", "--tolerance", "")
    assert code == 2 and not out and err.startswith("error:")


def test_tr_verify_stability_on_two_point_rejected(capsys, monkeypatch):
    # (0, 2) has no stable form to re-run: the flag is a usage error,
    # raised before a curve is built
    from dhtr import curve

    def no_curve(*args):
        raise AssertionError("a curve was built")

    monkeypatch.setattr(curve.SpectralCurve, "__init__", no_curve)
    code, out, err = run(capsys, "tr-verify", "--g", "0", "--n", "2", "--stability")
    assert code == 2 and not out
    assert err == ("error: --stability re-runs a stable form, 2g - 2 + n > 0; "
                   "(g, n) = (0, 2) has none\n")


def test_tr_verify_two_point_path(capsys):
    # (g, n) = (0, 2) dispatches to the two-point origin check
    code, out, _ = run(capsys, "tr-verify", "--g", "0", "--n", "2",
                       "--mu-max", "3", "--precision", "192")
    assert code == 0
    assert "verdict: PASS" in out


def test_tr_verify_two_point_zero_value(capsys):
    # DH_{0,2}(1,1) = q2 s + q1^2 s^2 / 2 is 0 at q = (1, -1/20), s = 1/10;
    # that row is measured against the largest expected value, not 2^-prec
    code, out, _ = run(capsys, "tr-verify", "--g", "0", "--n", "2", "--mu-max", "3",
                       "--q", "1,-1/20", "--s", "1/10", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"
    row = payload["rows"][0]
    assert row["mu"] == [1, 1] and row["expected"] == "(0.0 + 0.0j)"
    assert row["verdict"] == "PASS" and float(row["rel_residual"]) < 1e-70


def test_tr_verify_json_schema(capsys):
    code, out, _ = run(capsys, "tr-verify", "--g", "1", "--n", "1",
                       "--mu-max", "2", "--precision", "192",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert {"g", "n", "mu_max", "tolerance", "max_residual",
            "verdict", "rows"} <= set(payload)
    for row in payload["rows"]:
        assert {"mu", "predicted", "expected", "rel_residual",
                "verdict"} == set(row)


def test_zero_denominator_is_a_usage_error(capsys):
    code, _, err = run(capsys, "tr-verify", "--g", "0", "--n", "3", "--s", "1/0")
    assert code == 2
    assert err.startswith("error:") and "zero denominator" in err


def test_non_numeric_rational_is_a_usage_error(capsys):
    for text in ("abc", "1/x"):
        code, _, err = run(capsys, "tr-verify", "--g", "0", "--n", "3", "--s", text)
        assert code == 2
        assert err.strip() == f"error: expected exact rational 'p/q', got {text!r}"


def test_non_integer_mu_prints_error(capsys):
    code, _, err = run(capsys, "dh", "--g", "0", "--mu", "a")
    assert code == 2
    assert err.strip() == ("error: mu must be a comma-separated list of "
                           "positive integers")


def test_window_below_one_rejected(capsys):
    # (6g+2n-4)+4 = 0 at (g, n) = (-3, 9): a usage error, not a
    # truncation error at an empty window; the negative genus is caught
    # before the frame order check (tested in test_curve) is reached
    code, _, err = run(capsys, "loop-check", "--g", "-3", "--n", "9")
    assert code == 2
    assert err.startswith("error: forms need g >= 0 and n >= 1")


def test_negative_genus_rejected(capsys):
    # a usage error, not a PASS on one vacuous all-zero row, a zero
    # polynomial, or an EQUAL between two zero polynomials
    for argv, message in [
        (("tr-verify", "--g", "-1", "--n", "5", "--mu-max", "1"),
         "error: forms need g >= 0 and n >= 1"),
        (("phi-fit", "--g", "-1", "--n", "3"), "error: forms need g >= 0 and n >= 1"),
        (("dh", "--g", "-1", "--mu", "2"), "error: genus must be >= 0"),
        (("oracle", "--g", "-1", "--mu", "2,2"), "error: genus must be >= 0"),
    ]:
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err.startswith(message), argv


def test_no_points_rejected(capsys):
    code, out, err = run(capsys, "tr-verify", "--g", "2", "--n", "0")
    assert code == 2 and not out
    assert err.startswith("error: forms need g >= 0 and n >= 1")


def test_tr_verify_checks_table_caps_first(capsys, monkeypatch):
    # the largest key of the box is checked against the table's caps before
    # any frame or z(x) is built: (0,3) at mu_max 21 ran 4 s, g = 17 did
    # not end, before the table raised
    def unreachable(*args):
        raise AssertionError("a curve series was built for a key past the caps")

    monkeypatch.setattr(SpectralCurve, "frames", unreachable)
    monkeypatch.setattr(SpectralCurve, "invert_x_numeric", unreachable)
    for argv, key in [(("--g", "0", "--n", "3", "--mu-max", "21"), "DH_{0,3}(21, 21, 21)"),
                      (("--g", "17", "--n", "1", "--mu-max", "1"), "DH_{17,1}(1,)"),
                      (("--g", "0", "--n", "2", "--mu-max", "31"), "DH_{0,2}(31, 31)")]:
        code, out, err = run(capsys, "tr-verify", *argv)
        assert code == 2 and not out, argv
        assert err == f"error: {key} exceeds configured caps (|mu| <= 60, g <= 16)\n"


def test_empty_mu_box_rejected(capsys):
    # a usage error, not a PASS with no rows, on both verification paths
    for n in ("3", "2"):
        code, out, err = run(capsys, "tr-verify", "--g", "0", "--n", n,
                             "--mu-max", "0")
        assert code == 2 and not out
        assert err.startswith("error: mu_max must be at least 1")


def test_oracle_past_degree_six(capsys):
    code, out, _ = run(capsys, "oracle", "--g", "0", "--mu", "4,3")
    assert code == 0
    assert out.strip().endswith("EQUAL") and "NOT EQUAL" not in out


def test_arithmetic_error_exits_three(capsys, monkeypatch):
    # a computation that breaks down is "could not compute" (exit 3), one
    # error line, never a traceback and never a failed verdict (exit 1)
    def broken(self):
        raise ArithmeticError("branch point failed to polish: residual 1.0")

    monkeypatch.setattr(SpectralCurve, "branch_points", broken)
    code, out, err = run(capsys, "tr-verify", "--g", "0", "--n", "3",
                         "--mu-max", "2")
    assert code == 3 and not out
    assert err == "error: branch point failed to polish: residual 1.0\n"


def test_oracle_degree_cap_is_a_usage_error(capsys):
    code, out, err = run(capsys, "oracle", "--g", "0", "--mu", "17")
    assert code == 2 and not out
    assert err == "error: degree 17 exceeds the oracle cap 16\n"


def test_table_past_its_stored_counts_is_a_usage_error(capsys):
    # DH_{9,3}(9,9,9) passes the key caps, but its recursion would run for
    # hours; the bound on the counts a table stores ends it in seconds
    code, out, err = run(capsys, "dh", "--g", "9", "--mu", "9,9,9")
    assert code == 2 and not out
    assert err.startswith("error: the table would store more than 500000 tuple counts")


def test_asymmetric_form_fails_the_verdict(capsys, monkeypatch):
    # omega_{0,4} is memoized with one coefficient moved by 1e-40 of the
    # form's scale.  The one row at mu_max = 1 moves by about 1e-41, so at
    # the tolerance 3e-41 every row passes and only the symmetry self-check
    # fails the verdict.
    from dhtr.toprec import RecursionEngine

    trim = RecursionEngine._trim

    def trim_and_move(self, form):
        trim(self, form)
        if (form.g, form.n) == (0, 4):
            form.coeffs[(0, 3), (0, 1), (0, 1), (0, 1)] += form.scale() * mpmath.mpf("1e-40")

    monkeypatch.setattr(RecursionEngine, "_trim", trim_and_move)
    code, out, _ = run(capsys, "tr-verify", "--g", "0", "--n", "4", "--mu-max", "1",
                       "--tolerance", "3e-41", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["verdict"] == "FAIL"
    assert [row["verdict"] for row in payload["rows"]] == ["PASS"]
    assert 0.9e-40 < float(payload["asymmetry"]) < 1.1e-40


def test_closed_stdout_exits_141_without_traceback():
    # a reader that went away (`dhtr ... | head -1`) is neither a failed
    # verdict nor a crash: exit 128 + SIGPIPE, nothing on stderr
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "dhtr.cli", "dh", "--g", "0",
                               "--mu", "2,1"], stdout=write_end, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_runtime_error_exits_three(capsys, monkeypatch):
    # a RuntimeError (here a RecursionError) is "could not compute", not
    # a usage error: exit 3 with one error line
    def broken(self, g, mu):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(DHTable, "dh", broken)
    code, out, err = run(capsys, "dh", "--g", "0", "--mu", "2,1")
    assert code == 3 and not out
    assert err == "error: maximum recursion depth exceeded\n"


# ----------------------------------------------------------------------
# argv fuzz: any mix of valid and malformed tokens gets a documented exit
# code and never a traceback.  Values are kept small so every run is cheap.

GENUS = ["-1", "0", "1", "2", "x"]
MU = ["1", "2", "2,1", "3,1", "1,1,1", "0,1", "2,-1", "1,,1", "x", ""]
FORMAT = ["text", "json", "csv", "xml"]
WEIGHT_FLAGS = {
    "--d": ["0", "1", "2", "3", "x"],
    "--q": ["1,1", "1", "1/2,1", "1,0", "1,-1/80", "1,1,1", "1/0,1", "x,1"],
    "--s": ["1/10", "-1/12", "0", "2", "1/0", "x"],
    "--format": FORMAT,
}
CURVE_FLAGS = {**WEIGHT_FLAGS, "--precision": ["64", "63", "x"]}
# (g, n) pairs of the TR commands: the stable ones all have 2g - 2 + n = 1
FORMS = [("0", "3"), ("1", "1"), ("0", "2"), ("0", "1"), ("2", "0"),
         ("-1", "3"), ("1", "-1"), ("x", "1"), ("1", "x")]
COMMANDS = {
    "dh": {"--g": GENUS, "--mu": MU, "--d": ["0", "1", "3", "-1", "x"],
           "--s-poly": None, "--format": FORMAT},
    "ph": {"--g": GENUS, "--mu": MU, "--d": ["0", "1", "3", "-1", "x"],
           "--s-poly": None, "--format": FORMAT},
    "table": {"--format": FORMAT},
    "oracle": {"--g": GENUS, "--mu": MU + ["17"], "--d": ["0", "1", "3", "x"],
               "--format": FORMAT},
    "tr-verify": {"--mu-max": ["-1", "0", "1", "2", "x"],
                  "--tolerance": ["1e-10", "0", "-1", "1e-300", "x"],
                  "--stability": None, **CURVE_FLAGS},
    "qc-verify": {"--d": ["-1", "0", "1", "2", "3", "x"],
                  "--K": ["-1", "0", "1", "2", "4", "6", "x"],
                  "--L": ["-1", "0", "1", "2", "x"],
                  "--dump-residuals": None, "--format": FORMAT},
    "loop-check": CURVE_FLAGS,
    "phi-fit": WEIGHT_FLAGS,
    "closed-forms": {"--d": ["-1", "0", "1", "2", "3", "x"],
                     "--order": ["-1", "0", "1", "3", "6", "x"],
                     "--format": FORMAT},
}
TR_COMMANDS = ("tr-verify", "loop-check", "phi-fit")


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS) + ["nope", "--bogus"]))
    flags = COMMANDS.get(command, CURVE_FLAGS)
    argv = [command]
    if command == "table":
        argv.append(draw(st.sampled_from(["A", "B", "a", "Q", ""])))
    if draw(st.integers(0, 3)):  # the required flags, most of the time
        if command in TR_COMMANDS:
            g, n = draw(st.sampled_from(FORMS))
            argv += ["--g", g, "--n", n]
        elif command in ("dh", "ph", "oracle"):
            argv += ["--g", draw(st.sampled_from(GENUS)),
                     "--mu", draw(st.sampled_from(MU))]
    for flag in draw(st.lists(st.sampled_from(sorted(flags)), max_size=5)):
        argv.append(flag)
        if flags[flag]:
            argv.append(draw(st.sampled_from(flags[flag])))
    if draw(st.integers(0, 9)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return argv


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(argvs())
def test_argv_fuzz_exit_codes(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse and the parsers of cli.py
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def test_phi_fit(capsys):
    code, out, err = run(capsys, "phi-fit", "--g", "1", "--n", "1")
    assert code == 0 and not err
    assert out.splitlines() == [
        "g: 1", "n: 1", "degree_bound: 1", "box: 5", "equations: 5",
        "unknowns: 4", "rank: 4", "verdict: PASS",
        "  basis=phi[1,0] coefficient=-1/2400",
        "  basis=phi[1,1] coefficient=1/2400",
        "  basis=phi[2,0] coefficient=-1/2400",
        "  basis=phi[2,1] coefficient=1/1200",
    ]


def test_phi_fit_fails_on_a_shifted_value(capsys, monkeypatch):
    ph = PruningTransform.ph

    def shifted(self, g, nu):
        value = ph(self, g, nu)
        if tuple(nu) == (3,):
            value = value + WeightPolynomial.rational(Fraction(1, 10 ** 30), 2)
        return value

    monkeypatch.setattr(PruningTransform, "ph", shifted)
    code, out, err = run(capsys, "phi-fit", "--g", "1", "--n", "1", "--format", "json")
    payload = json.loads(out)
    assert code == 1 and not err
    assert payload["verdict"] == "FAIL" and payload["rows"] == []


@pytest.mark.parametrize("argv, message", [
    (["--g", "1", "--n", "0"], "forms need g >= 0 and n >= 1, got (g, n) = (1, 0)"),
    (["--g", "0", "--n", "2"], "stable forms require 2g - 2 + n > 0"),
    (["--g", "1", "--n", "1", "--q", "1,0"],
     "q_d must be nonzero (P must have degree exactly d)"),
    (["--g", "1", "--n", "1", "--s", "0"], "s must be nonzero"),
])
def test_phi_fit_rejects_bad_input(capsys, argv, message):
    code, out, err = run(capsys, "phi-fit", *argv)
    assert code == 2 and not out
    assert err == f"error: {message}\n"
