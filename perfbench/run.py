"""Benchmark for functorlab: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is verify-grid, invariants, functor-dictionary, or all.  Run it from the
root of a checkout; functorlab is imported from `src/` there.

Each workload is a closed loop: one client, one op after another, in one
single-threaded process.  Every timed pass runs in a fresh child process, so
nothing cached in-process carries from one pass to the next.  Passes repeat
until the next one would end after S seconds (at least one; with --trace 1
at least one untraced and one traced, alternating).  Set-up is sampled in
SETUP_SAMPLES import-only children plus every pass child.

--trace 0 reports the end-to-end metrics (medians over the run):
  setup_s      child start until functorlab and functorlab.cli are imported
  run_s        wall time of one pass over the workload's ops, set-up excluded
  peak_rss_mb  the pass child's ru_maxrss
Times are scaled to the nominal machine speed by reference samples taken in
the child (calibrate.py), so that a shared host's changing speed does not
read as a change of the program; the record keeps the unscaled medians too.
--trace 1 reports the per-layer metrics of the traced passes, and
trace.overhead_s, the traced minus the untraced median run_s.

An op fails if it raises, if its verdict is not the one the paper predicts,
or if its output differs from perfbench/expected.json; failures are counted
in "failed" and never stop the run.  "correct" is false when an op fails
that expected.json does not list as a known defect.  The lines before the
last give provenance and each metric's median, quartiles and sample count;
the whole record is also written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("verify-grid", "invariants", "functor-dictionary")
SETUP_SAMPLES = 10
TIME_LIMIT_S = 170  # per workload; a run must end well within 180 s

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "self_s": "s", "hnf_s": "s", "snf_s": "s", "overhead_s": "s",
    "max_entry_bits": "bits", "distinct_ratio": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


def layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def summarize(values) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def spawn(args, deadline: float) -> dict:
    """Run one child to completion and return its result object."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time limit reached before a child could start")
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--t0", str(time.monotonic_ns())] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} exceeded the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}")
    return json.loads(lines[-1])


def src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "functorlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # an exported checkout; src_sha256 identifies the code
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list, list]:
    """Set-up samples ({setup_s, wall_setup_s}) and pass results of one run."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    spawn(["--mode", "setup"], deadline)  # warm-up: bytecode caches
    setup = [spawn(["--mode", "setup"], deadline) for _ in range(SETUP_SAMPLES)]
    passes = []
    longest = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        args = ["--mode", "pass", "--workload", workload, "--seed", str(seed)]
        if traced:
            args += ["--spans", os.path.join(OUT, f"spans-{workload}.jsonl")]
        began = time.monotonic()
        res = spawn(args, deadline)
        longest = max(longest, time.monotonic() - began)
        res["traced"] = traced
        passes.append(res)
        setup.append({k: res[k] for k in ("setup_s", "wall_setup_s")})
        enough = len(passes) >= (2 if trace else 1)
        if enough and time.monotonic() + longest > min(start + seconds, deadline):
            return setup, passes


def aggregate(workload: str, setup: list, passes: list, trace: bool, known: set) -> dict:
    """The run's record: counts, failures, and each metric's summary."""
    plain = [p for p in passes if not p["traced"]]
    failures = [name for p in passes for name, _ in p["failures"]]
    record = {
        "workload": workload,
        "correct": all(name in known for name in failures)
        and len({p["attempted"] for p in passes}) == 1,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "failures": sorted({tuple(f) for p in passes for f in p["failures"]}),
        "sizes": passes[0]["sizes"],
        "passes": [{k: p[k] for k in ("traced", "run_s", "wall_run_s")} for p in passes],
    }
    if not trace:
        samples = {
            "setup_s": [s["setup_s"] for s in setup],
            "run_s": [p["run_s"] for p in plain],
            "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        }
        units = END_TO_END
        record["wall"] = {
            "setup_s": statistics.median(s["wall_setup_s"] for s in setup),
            "run_s": statistics.median(p["wall_run_s"] for p in plain),
        }
    else:
        traced = [p for p in passes if p["traced"]]
        samples = {name: [p["layers"][name] for p in traced] for name in traced[0]["layers"]}
        samples["trace.overhead_s"] = [
            statistics.median(p["run_s"] for p in traced) - statistics.median(p["run_s"] for p in plain)
        ]
        units = {name: layer_unit(name) for name in samples}
    record["summary"] = {
        name: dict(summarize(vals), unit=units[name]) for name, vals in samples.items()
    }
    record["metrics"] = {
        name: {"value": s["median"], "unit": s["unit"]} for name, s in record["summary"].items()
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "functorlab", "__init__.py")):
        print(f"error: no functorlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    provenance = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            known = set(expected.get(name, {}).get("known_failures", {}).get("ops", ()))
            setup, passes = run_passes(name, args.seed, args.seconds, bool(args.trace))
            rec = aggregate(name, setup, passes, bool(args.trace), known)
            rec["provenance"] = provenance
            path = os.path.join(OUT, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w") as fh:
                json.dump(rec, fh, indent=1)
            print(json.dumps({k: v for k, v in rec.items() if k != "metrics"}))
            records.append(rec)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": v for r in records for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
