"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, from the root of a checkout, that

1. a wrong expected value fails closed: with one exact-table digest
   perturbed, run.py reports the job as failed (error rate above 0,
   `correct` false) and exits with code 1;
2. a wrap point whose dotted name no longer resolves drops only its layer,
   with a note, while a resolvable one is counted;
3. in a directory holding only BENCHMARK.json and perfbench/, run.py exits
   with a code other than 0 and prints no result.

Checks 1 and 3 run copies of the benchmark under perfbench/out/, which are
removed afterwards.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    return ok


def copy_benchmark(name: str, with_src: bool) -> Path:
    """A fresh directory perfbench/out/<name> holding BENCHMARK.json, the
    files of perfbench/ and, if asked, src/."""
    dest = OUT / name
    shutil.rmtree(dest, ignore_errors=True)
    (dest / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, dest / "perfbench")
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def perturbed_digest() -> bool:
    copy = copy_benchmark("perturbed", with_src=True)
    path = copy / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    key = next(k for k in sorted(reference["exact-table"]) if k.startswith("dh/"))
    digest = reference["exact-table"][key]
    reference["exact-table"][key] = ("0" if digest[0] != "0" else "1") + digest[1:]
    path.write_text(json.dumps(reference))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-suite",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=copy, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    record = json.loads((copy / "perfbench" / "out" / "exact-suite-seed0-trace0.json")
                        .read_text())
    shutil.rmtree(copy)
    return check("perturbed digest fails closed",
                 proc.returncode == 1 and result.get("correct") is False
                 and result.get("failed", 0) >= 1 and record["error_rate"] > 0
                 and any(f["job"] == key for f in record["failures"]),
                 f"exit {proc.returncode}, failed {result.get('failed')}, "
                 f"error_rate {record['error_rate']:.4f}, job {key}")


def missing_wrap_point() -> bool:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    from dhtr import oracle

    tracer = tracing.Tracer()
    original = oracle.partitions_of
    dropped = not tracer.wrap("dhtr.oracle.no_such_function", "oracle.gone")
    kept = tracer.wrap("dhtr.oracle.partitions_of", "oracle.partitions_of")
    try:
        parts = list(oracle.partitions_of(4))
    finally:
        oracle.partitions_of = original
    return check("missing wrap point is dropped with a note",
                 dropped and kept and len(parts) == 5
                 and "oracle.gone" not in tracer.layers
                 and tracer.layers["oracle.partitions_of"][0] == 1
                 and any("no_such_function" in note for note in tracer.notes),
                 "; ".join(tracer.notes))


def bare_directory() -> bool:
    bare = copy_benchmark("bare", with_src=False)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tr-verify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    return check("bare directory exits non-zero without a result",
                 proc.returncode != 0 and '"correct"' not in proc.stdout,
                 f"exit {proc.returncode}: {proc.stderr.strip().splitlines()[-1]}")


if __name__ == "__main__":
    results = [perturbed_digest(), missing_wrap_point(), bare_directory()]
    sys.exit(0 if all(results) else 1)
