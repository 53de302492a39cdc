"""One pass of one workload, in a fresh process.

    python3 perfbench/child.py --t0 NS --mode setup
    python3 perfbench/child.py --t0 NS --mode pass --workload W --seed S [--spans PATH]

`--t0` is the parent's time.monotonic_ns() just before it started this
process, so setup_s covers interpreter start-up and the import of functorlab
and functorlab.cli from `src/` of the checkout.  The result is one JSON
object on the last line of stdout.  With `--spans` the pass is traced and
the spans are written to PATH.

Times are scaled to the nominal machine speed (calibrate.py): setup_s by
reference samples taken right after the imports, run_s and the layer times
by samples taken during the pass.  wall_setup_s and wall_run_s are the
unscaled wall times.
"""
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import functorlab  # noqa: E402
import functorlab.cli  # noqa: E402,F401

READY_NS = time.monotonic_ns()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

sys.path.insert(0, HERE)

import workloads  # noqa: E402
from calibrate import SETUP_SAMPLES, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    if not os.path.abspath(functorlab.__file__).startswith(SRC + os.sep):
        print(f"functorlab imported from {functorlab.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    wall_setup_s = (READY_NS - args.t0) / 1e9
    result = {"setup_s": wall_setup_s * Sampler().take(SETUP_SAMPLES).scale(), "wall_setup_s": wall_setup_s}
    if args.mode == "pass":
        with open(os.path.join(HERE, "expected.json")) as fh:
            expected = json.load(fh)
        ops, sizes = workloads.WORKLOADS[args.workload](args.seed, expected)
        tracer = Tracer() if args.spans else None
        if tracer:
            tracer.install()
        with Sampler() as sampler:
            start = time.perf_counter()
            failures = workloads.run_ops(ops, tracer)
            wall = time.perf_counter() - start
            sampled = sampler.spent_s
        result["wall_run_s"] = wall
        result["run_s"] = (wall - sampled) * sampler.scale()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
            # sample time falls into the layer that was running; take it
            # out pro rata and scale like run_s
            factor = result["run_s"] / wall
            result["layers"] = {
                name: value * factor if name.endswith("_s") else value
                for name, value in tracer.metrics().items()
            }
            tracer.write(args.spans)
        result.update(attempted=len(ops), failures=failures, sizes=sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
