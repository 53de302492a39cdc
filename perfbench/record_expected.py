"""Record the outputs the benchmark checks against into expected.json.

Run from the repository root, at a commit whose outputs are trusted:

    python3 perfbench/record_expected.py

It records, per workload: the sha256 of `verify all` stdout for the CLI
seeds among 0..VERIFY_SEEDS-1 whose work, counted in class_of calls, lies
within WORK_TOLERANCE of the median (the work differs by up to 9% between
seeds, and a benchmark seed should not move run_s by itself); the cokernel
torsion and index of each invariant cell; and the action digests of the
modules the functor dictionary extracts.  Known defects are listed separately, with the reason, so a run can tell them
from new failures while still counting them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from functorlab import cli, functors as fx, gamma_section as gs  # noqa: E402
from tracer import Tracer  # noqa: E402

VERIFY_SEEDS = 16
WORK_TOLERANCE = 0.03

KNOWN_DEFECT = (
    "kernel_of_gamma takes scaling classes over z in {0,1}^k only, which spans "
    "a proper sublattice of the kernel for degree >= 4"
)


def main() -> int:
    out = {"verify-grid": {}, "invariants": {}, "functor-dictionary": {}}

    digests, work = {}, {}
    for s in range(VERIFY_SEEDS):
        buf = io.StringIO()
        tracer = Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(workloads.verify_argv(s))
        finally:
            tracer.uninstall()
        if code != 0:
            raise SystemExit(f"verify all exits {code} at seed {s}; not recording")
        text = buf.getvalue()
        digests[str(s)] = hashlib.sha256(text.encode()).hexdigest()
        work[str(s)] = tracer.counts["augmentation.class_of_calls"]
        out["verify-grid"]["cells"] = len(json.loads(text)["cells"])
    mid = statistics.median(work.values())
    out["verify-grid"]["class_of_calls"] = work
    out["verify-grid"]["digests"] = {
        s: d for s, d in digests.items() if abs(work[s] - mid) <= WORK_TOLERANCE * mid
    }

    known = []
    for k, n in workloads.INVARIANT_CELLS:
        rep = gs.cokernel_of_pi_gamma(k, n)
        out["invariants"][f"{k},{n}"] = {
            "torsion": list(rep.invariants.torsion),
            "index": str(rep.index),
        }
        if not gs.kernel_of_gamma(k, n).match:
            known.append(f"kernel-lattice-match({k},{n})")
    out["invariants"]["known_failures"] = {"ops": sorted(known), "reason": KNOWN_DEFECT}

    fd = out["functor-dictionary"]
    n = workloads.FUNCTOR_DEGREE
    for kind, make in workloads.catalog(fx).items():
        fd[kind] = {"action": workloads.action_digest(fx.extract_morita_module(make(n), n))}
    fd["sym3"] = {"action": workloads.action_digest(fx.extract_morita_module(fx.Sym(3), 3))}

    path = os.path.join(HERE, "expected.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
