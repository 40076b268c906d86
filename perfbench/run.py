"""Benchmark of dhtr: cold-start verification workloads, end to end and per layer.

    python3 perfbench/run.py --workload exact-suite --seed 0 --seconds 60 --trace 0

Run from the root of a checkout.  A workload is one or more parts (PARTS).
Each repetition is a fresh interpreter (worker.py) that imports `dhtr` from
`src`, makes one part's inputs from the seed and runs its jobs back to back:
a closed loop with one client and one child process at a time.  A run
cycles through the parts, and repetitions continue while the next one is
expected to end within `--seconds`.  Every job's output is checked.

The last line of standard output is one JSON object: `correct`,
`attempted` and `failed` (jobs, over all repetitions) and `metrics`.  Each
metric is the median over a part's repetitions, summed over the parts, of
the end-to-end metrics of BENCHMARK.json (`--trace 0`) or of its per-layer
metrics (`--trace 1`, which alternates untraced and traced repetitions to
measure the tracing overhead).  The full record (inputs, every job,
environment, load) goes to perfbench/out/.

Exit codes: 0 all outputs correct, 1 some job failed its check or raised,
2 the benchmark could not run (no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

RUN_LIMIT_S = 170         # a run never outlives this, whatever --seconds says
POLL_S = 0.005

# The parts of each workload of BENCHMARK.json, each a job list of
# workloads.py that runs in its own cold interpreter.
PARTS = {
    "tr-verify": ["tr-verify"],
    "exact-suite": ["exact-table", "oracle-sweep", "qc-verify"],
}


class BenchError(RuntimeError):
    pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2


def run(args) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "dhtr").is_dir():
        raise BenchError(f"run from the root of a dhtr checkout (no src/dhtr in {ROOT})")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]] \
            or args.workload not in PARTS:
        raise BenchError(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    started = time.monotonic()
    limit = started + RUN_LIMIT_S
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    deadline = time.monotonic() + args.seconds
    cycle = [(part, kind) for part in PARTS[args.workload]
             for kind in ([0, 1] if args.trace else [0])]
    reps: list[dict] = []
    while True:
        part, kind = cycle[len(reps) % len(cycle)]
        reps.append(_child(args, part, OUT / f"{stem}.rep{len(reps)}.json", kind, limit))
        if len(reps) < len(cycle):
            continue
        nxt = cycle[len(reps) % len(cycle)]
        last = [r["duration_s"] for r in reps if (r["part"], r["traced"]) == nxt]
        if time.monotonic() + last[-1] > deadline:
            break

    by_part = {part: ([r for r in reps if r["part"] == part and not r["traced"]],
                      [r for r in reps if r["part"] == part and r["traced"]])
               for part in PARTS[args.workload]}
    attempted = sum(len(r["jobs"]) for r in reps)
    failures = [dict(job, rep=i) for i, r in enumerate(reps)
                for job in r["jobs"] if not job["ok"]]
    headroom = [r["headroom_digits"] for r in reps if "headroom_digits" in r]

    if args.trace:
        values, notes = _layer_metrics(by_part)
        wanted = spec["per_layer"]
    else:
        parts = [untraced for untraced, _ in by_part.values()]
        values = {
            "wall_s": sum(_median(p, "wall_s") for p in parts),
            "cpu_s": sum(_median(p, "cpu_s") for p in parts),
            "setup_s": _median(sum(parts, []), "setup_s"),
            "peak_rss_mb": max(_median(p, "peak_rss_mb") for p in parts),
        }
        notes = []
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "parts": PARTS[args.workload],
        "inputs": {r["part"]: r["inputs"] for r in reps},
        "env": {**reps[0]["env"], "nproc": len(os.sched_getaffinity(0)),
                "commit": _git_commit()},
        "error_rate": len(failures) / attempted,
        "headroom_digits": min(headroom) if headroom else None,
        "metrics": metrics, "notes": notes, "failures": failures,
        "reps": [{k: v for k, v in r.items() if k not in ("jobs", "inputs", "env")}
                 for r in reps],
        "jobs": [r["jobs"] for r in reps],
    }
    record_path = OUT / f"{stem}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))

    for i, r in enumerate(reps):
        bad = sum(not job["ok"] for job in r["jobs"])
        print(f"rep {i} {r['part']} traced={r['traced']}: wall_s={r['wall_s']:.3f} "
              f"cpu_s={r['cpu_s']:.3f} setup_s={r['setup_s']:.3f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} failed={bad}/{len(r['jobs'])} "
              f"load={r['load_before'][0]:.2f}->{r['load_after'][0]:.2f}")
    for job in failures[:5]:
        print(f"FAILED rep {job['rep']} {job['job']}: "
              f"{(job.get('error') or 'output check failed').strip().splitlines()[-1]}")
    for note in notes:
        print(f"note: {note}")
    print(f"error_rate={record['error_rate']} headroom_digits={record['headroom_digits']} "
          f"record={record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if not failures else 1


# ----------------------------------------------------------------------


def _child(args, part: str, out: Path, trace: int, limit: float) -> dict:
    """Run worker.py once on `part` and return its result with the process
    figures."""
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--part", part,
           "--seed", str(args.seed), "--trace", str(trace), "--out", str(out)]
    load_before = os.getloadavg()
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=sys.stderr.fileno())
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > limit:
                raise BenchError(f"{args.workload} repetition exceeded {RUN_LIMIT_S} s")
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.is_file():
        raise BenchError(f"worker exited with code {proc.returncode}")
    result = json.loads(out.read_text())
    result.update({
        "part": part, "traced": trace,
        "setup_s": result["t_ready"] - spawned,
        "duration_s": ended - spawned,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "load_before": load_before, "load_after": os.getloadavg(),
        "wall_s": result["t_last"] - result["t_first"],
    })
    return result


def _median(reps: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def _layer_metrics(by_part: dict):
    """Per-layer figures of each traced repetition: medians over a part's
    repetitions, summed over the parts."""
    metrics: dict[str, float] = {}
    notes = []
    overhead = 0.0
    for untraced, traced in by_part.values():
        per_rep = []
        for r in traced:
            t = r["trace"]
            values = dict(t["counters"])
            for layer, (calls, self_s, total_s) in t["layers"].items():
                values[f"{layer}.calls"] = calls
                values[f"{layer}.self_s"] = self_s
                values[f"{layer}.s"] = total_s
            values["toprec.headroom_digits"] = r.get("headroom_digits", 0)
            values["trace.unattributed_s"] = values.get("job.self_s", 0)
            per_rep.append(values)
            notes += [n for n in t["notes"] if n not in notes]
        for name in set().union(*per_rep):
            metrics[name] = metrics.get(name, 0) + statistics.median(
                v.get(name, 0) for v in per_rep)
        overhead += _median(traced, "wall_s") - _median(untraced, "wall_s")
    calls = metrics.get("cutjoin.dh.calls")
    if calls:
        metrics["cutjoin.dh.hit_ratio"] = 1 - metrics["cutjoin.dh.distinct_keys"] / calls
    metrics["trace.overhead_s"] = overhead
    return metrics, notes


def _git_commit() -> str:
    """HEAD of the checkout.  `--git-dir` keeps git from taking the commit
    of an enclosing repository when the checkout has no .git of its own."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
