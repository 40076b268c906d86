"""Start-up cost: a process imports only the engines its command runs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# dir(dhtr) of a fresh `import dhtr`, as it read when the package imported
# every engine eagerly
EAGER_DIR = [
    "ComplexRing", "CorrelationForm", "CurveSpec", "DHTable",
    "FactorizationOracle", "Poly", "PruningKernel", "PruningTransform",
    "RationalRing", "RecursionEngine", "ResourceLimitError", "Series",
    "SpectralCurve", "WaveFunction", "WeightPolyRing",
    "WeightPolynomial", "__all__", "__builtins__", "__cached__", "__doc__",
    "__file__", "__loader__", "__name__", "__package__", "__path__",
    "__spec__", "__version__", "apply_quantum_curve",
    "curve", "cutjoin", "invert_x_exact", "oracle", "pruning", "quantum",
    "semiclassical_check", "series", "toprec", "weightpoly",
]
ALL = [
    "DHTable", "ResourceLimitError", "CurveSpec", "SpectralCurve",
    "invert_x_exact", "FactorizationOracle",
    "PruningKernel", "PruningTransform", "WaveFunction",
    "apply_quantum_curve", "semiclassical_check", "ComplexRing", "Poly",
    "RationalRing", "Series", "CorrelationForm",
    "RecursionEngine", "WeightPolynomial", "WeightPolyRing", "__version__",
]

# runs in a fresh interpreter; every check prints one line
PROBE = f"""
import contextlib, io, sys

def loaded(*names):
    return sorted(n for n in names if n in sys.modules)

import dhtr
print("import", sorted(m for m in sys.modules if m.startswith("dhtr.")))
print("dir", dir(dhtr) == {EAGER_DIR!r}, dhtr.__all__ == {ALL!r})

import dhtr.cutjoin
print("cutjoin", loaded("numpy", "dhtr.curve", "dhtr.toprec", "dhtr.oracle",
                        "dhtr.pruning", "dhtr.quantum", "dhtr.tables"))

from dhtr.cli import main
for argv in (["dh", "--g", "1", "--mu", "3,2"], ["ph", "--g", "1", "--mu", "2,1"],
             ["table", "A"], ["table", "B"],
             ["qc-verify", "--d", "2", "--K", "4", "--L", "1"],
             ["oracle", "--g", "0", "--mu", "2,1"],
             ["phi-fit", "--g", "1", "--n", "1"]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    print(*argv[:1 + (argv[0] == "table")], code,
          loaded("numpy", "dhtr.toprec", "dhtr.curve", "dhtr.oracle"))

with contextlib.redirect_stdout(io.StringIO()):
    code = main(["tr-verify", "--g", "0", "--n", "3", "--mu-max", "1"])
print("tr-verify", code, loaded("numpy", "dhtr.toprec"))
"""


def test_commands_import_only_what_they_run():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == [
        "import []",
        "dir True True",
        "cutjoin []",
        "dh 0 []",
        "ph 0 []",
        "table A 0 []",
        "table B 0 []",
        "qc-verify 0 []",
        "oracle 0 ['dhtr.oracle']",
        "phi-fit 0 ['dhtr.curve', 'dhtr.oracle']",
        "tr-verify 0 ['dhtr.toprec']",
    ]


# numpy blocked outright: importing it raises ImportError
NO_NUMPY_PROBE = """
import contextlib, io, sys
sys.modules["numpy"] = None
from dhtr.cli import main
for argv in (["tr-verify", "--g", "0", "--n", "3", "--mu-max", "2", "--d", "3",
              "--q", "1/8,1,9", "--s=-1/5"],
             ["loop-check", "--g", "1", "--n", "1"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(argv[0], code)
"""


def test_curve_commands_run_without_numpy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines() == ["tr-verify 0", "loop-check 0"]


def test_lazy_names_resolve():
    import dhtr
    from dhtr import cutjoin, toprec

    assert dhtr.DHTable is cutjoin.DHTable
    assert dhtr.RecursionEngine is toprec.RecursionEngine
    assert dhtr.toprec is toprec
    assert all(getattr(dhtr, name) is not None for name in dhtr.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dhtr.no_such_name
