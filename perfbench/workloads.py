"""The benchmark's workloads: seeded lists of ops, run one after another.

An op is a named thunk.  It passes when it returns; it fails when it raises,
which covers exceptions from functorlab as well as `OpFailed` from a verdict
that differs from what the paper's theorem predicts or an output that differs
from the value recorded in expected.json.  Ops of one workload share a
`state` dict, so a later op reuses what an earlier one computed (the module a
functor extracts, the report of a cell) instead of computing it twice.

Every call into functorlab goes through a module attribute
(`gs.kernel_of_gamma`, not a name bound at import), so the tracer's patches
are seen.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from typing import Callable


class OpFailed(Exception):
    """An op ran, but its verdict or output is not the expected one."""


def expect(condition, message: str):
    if not condition:
        raise OpFailed(message)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]


# ---------------------------------------------------------------- verify-grid

VERIFY_MAX_K = 4
VERIFY_MAX_N = 3


def verify_argv(verify_seed: int) -> list:
    return [
        "verify", "all",
        "--max-k", str(VERIFY_MAX_K),
        "--max-n", str(VERIFY_MAX_N),
        "--seed", str(verify_seed),
    ]


def verify_seed_for(seed: int, expected: dict) -> int:
    """The CLI seed of a benchmark seed: one of the seeds whose stdout digest
    was recorded, so every run's output is checked byte for byte."""
    recorded = sorted(int(s) for s in expected["verify-grid"]["digests"])
    return recorded[random.Random(seed).randrange(len(recorded))]


def verify_grid_ops(seed: int, expected: dict) -> tuple[list, dict]:
    from functorlab import cli

    exp = expected["verify-grid"]
    verify_seed = verify_seed_for(seed, expected)
    argv = verify_argv(verify_seed)
    state: dict = {}

    def run_cli():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        out = buf.getvalue()
        state["cells"] = json.loads(out)["cells"]
        expect(code == 0, f"exit code {code}")
        digest = hashlib.sha256(out.encode()).hexdigest()
        expect(digest == exp["digests"][str(verify_seed)], f"stdout digest {digest}")

    def cell_op(i):
        def run():
            cells = state.get("cells")
            expect(cells is not None, "no report")
            expect(len(cells) == exp["cells"], f"{len(cells)} cells")
            expect(cells[i]["verdict"] == "pass", json.dumps(cells[i], sort_keys=True))
        return run

    ops = [Op("verify-all", run_cli)]
    ops += [Op(f"cell[{i}]", cell_op(i)) for i in range(exp["cells"])]
    sizes = {"argv": argv, "cells": exp["cells"]}
    return ops, sizes


# ---------------------------------------------------------------- invariants

# Larger, distinct cells: little reuse across them.  (2,4), (3,4), (4,4),
# (2,5) and (3,5) show the kernel-generator defect; (9,2) is left out because
# its cokernel check alone takes about 42 s.
INVARIANT_CELLS = [(2, 4), (3, 4), (4, 3), (2, 5), (3, 5), (5, 3), (4, 4), (6, 2), (7, 2)]


def kernel_rank(k: int, n: int) -> int:
    """Rank of Ker(gamma): the truncated algebra's dimension minus that of
    Gamma^n, i.e. the number of multisets of size < n over k indices."""
    return sum(comb(k + m - 1, m) for m in range(n))


def invariants_ops(seed: int, expected: dict) -> tuple[list, dict]:
    from functorlab import gamma_section as gs

    exp = expected["invariants"]
    cells = list(INVARIANT_CELLS)
    random.Random(seed).shuffle(cells)
    ops = []
    for k, n in cells:
        want = exp[f"{k},{n}"]
        state: dict = {}

        def section(k=k, n=n):
            expect(gs.verify_section(gs.gamma_epsilon_pair(k, n)), "gamma @ epsilon != 1")

        def kernel(k=k, n=n):
            rep = gs.kernel_of_gamma(k, n)
            want_rank = kernel_rank(k, n)
            expect(rep.kernel.rank == want_rank, f"kernel rank {rep.kernel.rank} != {want_rank}")
            expect(rep.match, f"generated rank {rep.generated.rank} of {rep.kernel.rank}")

        def cokernel(k=k, n=n, want=want, state=state):
            rep = state["coker"] = gs.cokernel_of_pi_gamma(k, n)
            expect(rep.match, "stacked and quotient invariants differ")
            expect(list(rep.invariants.torsion) == want["torsion"], f"torsion {rep.invariants.torsion}")

        def finite_index(want=want, state=state):
            rep = state["coker"]
            expect(rep.injective and rep.index is not None, "not a finite-index injection")
            expect(str(rep.index) == want["index"], f"index {rep.index}")

        ops += [
            Op(f"section-identity({k},{n})", section),
            Op(f"kernel-lattice-match({k},{n})", kernel),
            Op(f"cokernel-invariants-match({k},{n})", cokernel),
            Op(f"finite-index-injection({k},{n})", finite_index),
        ]
    return ops, {"cells": [list(c) for c in cells]}


# ---------------------------------------------------------- functor-dictionary

FUNCTOR_DEGREE = 2
RECONSTRUCT_QS = range(1, 6)


def functor_dim(kind: str, q: int) -> int:
    """Rank of F(Z^q) for the degree-2 catalog, from the closed forms."""
    return {
        "tensor": q * q,
        "sym": q * (q + 1) // 2,
        "ext": q * (q - 1) // 2,
        "div": q * (q + 1) // 2,
    }[kind]


def catalog(fx) -> dict:
    return {"tensor": fx.Tensor, "sym": fx.Sym, "ext": fx.Ext, "div": fx.Div}


def action_digest(module) -> str:
    """Digest of a Morita module's action matrices in algebra basis order."""
    data = [[list(r) for r in module.action[X].rows] for X in module.algebra.basis]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def functor_dictionary_ops(seed: int, expected: dict) -> tuple[list, dict]:
    from functorlab import functors as fx
    from functorlab import gamma_section as gs

    exp = expected["functor-dictionary"]
    rng = random.Random(seed)
    lab_seed = rng.randrange(1 << 16)
    n = FUNCTOR_DEGREE
    makers = catalog(fx)
    groups = []

    for kind, make in makers.items():
        spec = make(n)
        state: dict = {}

        def cert(spec=spec):
            rep = fx.degree_certificate(spec, n, seed=lab_seed)
            expect(rep.passed, f"degree-{n} certificate failed: {rep.witness}")

        def cert_sharp(spec=spec):
            rep = fx.degree_certificate(spec, n - 1, seed=lab_seed)
            expect(not rep.passed, f"degree-{n - 1} certificate passed")

        def extract(spec=spec, kind=kind, state=state):
            module = state["module"] = fx.extract_morita_module(spec, n, seed=lab_seed)
            expect(module.generators == functor_dim(kind, n), f"{module.generators} generators")
            expect(action_digest(module) == exp[kind]["action"], "action digest")

        def multiplicative(state=state):
            expect(state["module"].check_multiplicativity(pairs=10, seed=lab_seed), "not multiplicative")

        def rebuild(q, spec=spec, kind=kind, state=state):
            inv = fx.reconstruct(state["module"], q)
            want = functor_dim(kind, q)
            expect(fx.object_dim(spec, q) == want, f"object_dim {fx.object_dim(spec, q)}")
            expect(inv.free_rank == want and not inv.torsion, f"{inv}, expected rank {want}")

        def quasi_homogeneous(state=state):
            expect(gs.quasi_homogeneity_test(state["module"], n), "a kernel class acts nontrivially")

        def restrict(spec=spec, state=state):
            restricted = fx.restrict_scalars(fx.extract_gamma_structure(spec, n))
            module = state["module"]
            expect(restricted.presentation == module.presentation, "presentation differs")
            expect(restricted.action == module.action, "action differs")

        def extend(kind=kind, state=state):
            inv = fx.extend_scalars(state["module"]).group_invariants()
            want = functor_dim(kind, n)
            expect(inv.free_rank == want and not inv.torsion, f"{inv}, expected rank {want}")

        label = f"{kind}^{n}"
        ops = [
            Op(f"degree-certificate({label})", cert),
            Op(f"degree-certificate-sharp({label})", cert_sharp),
            Op(f"extract({label})", extract),
            Op(f"multiplicativity({label})", multiplicative),
        ]
        ops += [Op(f"reconstruct({label},q={q})", lambda q=q, f=rebuild: f(q)) for q in RECONSTRUCT_QS]
        ops.append(Op(f"quasi-homogeneity({label})", quasi_homogeneous))
        if kind != "tensor":
            ops.append(Op(f"restriction-matches-extraction({label})", restrict))
        ops.append(Op(f"extend-scalars({label})", extend))
        groups.append(ops)

    mixed_state: dict = {}

    def mixed_extract():
        module = mixed_state["module"] = fx.extract_morita_module(
            fx.DirectSum(fx.Const(1), fx.Sym(2)), n, seed=lab_seed
        )
        expect(module.generators == 1 + functor_dim("sym", n), f"{module.generators} generators")

    def mixed_not_homogeneous():
        expect(not gs.quasi_homogeneity_test(mixed_state["module"], n), "kernel classes annihilate")

    groups.append([
        Op("extract(const(1)+sym^2)", mixed_extract),
        Op("quasi-homogeneity-fails(const(1)+sym^2)", mixed_not_homogeneous),
    ])

    def sym3_extract():
        module = fx.extract_morita_module(fx.Sym(3), 3, seed=lab_seed)
        expect(module.generators == 10, f"{module.generators} generators")
        expect(action_digest(module) == exp["sym3"]["action"], "action digest")

    groups.append([Op("extract(sym^3)", sym3_extract)])

    rng.shuffle(groups)
    ops = [op for group in groups for op in group]
    sizes = {
        "functors": list(makers) + ["const(1)+sym^2", "sym^3"],
        "degree": n,
        "q": list(RECONSTRUCT_QS),
        "functorlab_seed": lab_seed,
    }
    return ops, sizes


WORKLOADS = {
    "verify-grid": verify_grid_ops,
    "invariants": invariants_ops,
    "functor-dictionary": functor_dictionary_ops,
}


def run_ops(ops, tracer=None) -> list:
    """Run every op; return [name, reason] for each failed one.  An op that
    raises is counted and the pass goes on.  With a tracer, each op runs
    under a root span."""
    failures = []
    for i, op in enumerate(ops):
        try:
            if tracer is None:
                op.run()
            else:
                tracer.run_op(i, op.name, op.run)
        except Exception as exc:  # one failing op must not stop the pass
            failures.append([op.name, f"{type(exc).__name__}: {exc}"[:500]])
    return failures
