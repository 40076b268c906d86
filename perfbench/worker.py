"""One repetition of one part of a workload, in a fresh interpreter.

Started by run.py.  It imports `dhtr` from the checkout's `src`, makes the
part's inputs from the seed, runs every job back to back, checks each output and
writes one JSON result to `--out`.  A job that raises or fails its check
is recorded and the run goes on.  With `--trace 1` the wrappers of
tracing.py are installed first and the layer figures and spans are written
too.  Expected exact outputs are read from reference.json beside this file.

Times are read from the monotonic clock, which run.py shares, so set-up is
measured from the moment run.py spawned this process.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--part", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import dhtr
    if Path(dhtr.__file__).resolve().parent != ROOT / "src" / "dhtr":
        print(f"worker: dhtr imported from {dhtr.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    inputs, jobs = workloads.build(args.part, args.seed, reference)
    t_ready = time.monotonic()
    result = {"part": args.part, "seed": args.seed, "inputs": inputs,
              "t_ready": t_ready}

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    records = []
    t_first = time.monotonic()
    for name, fn in jobs:
        start = time.monotonic()
        try:
            ok, info = tracer.run_job(name, fn) if tracer else fn()
            error = None
        except Exception:
            ok, info, error = False, {}, traceback.format_exc(limit=4)
        record = {"job": name, "ok": bool(ok), "s": time.monotonic() - start, **info}
        if error:
            record["error"] = error
        records.append(record)
    t_last = time.monotonic()

    result.update({"t_first": t_first, "t_last": t_last, "jobs": records,
                   "env": _versions()})
    headrooms = [r["headroom_digits"] for r in records if "headroom_digits" in r]
    if headrooms:
        result["headroom_digits"] = min(headrooms)
    if tracer:
        result["trace"] = {"layers": tracer.layers, "counters": tracer.counters,
                           "notes": tracer.notes}
        spans_path = Path(args.out).with_suffix(".spans.json")
        spans_path.write_text(json.dumps(tracer.spans()))
        result["trace"]["spans_file"] = str(spans_path.relative_to(ROOT))
    Path(args.out).write_text(json.dumps(result))
    return 0


def _versions() -> dict:
    import mpmath
    import numpy
    return {"python": sys.version.split()[0], "mpmath": mpmath.__version__,
            "numpy": numpy.__version__, "mpmath_backend": mpmath.libmp.BACKEND}


if __name__ == "__main__":
    sys.exit(main())
