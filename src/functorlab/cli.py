"""Command line front door: verification suites, tables, functor queries.

Every sampled check takes a --seed (default 0); identical invocations print
identical bytes.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage or input error.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from fractions import Fraction

from .augmentation import AugAlgebra, aug_dimension
from .combinatorics import Multiset, binomial, format_multiset, multisets_up_to
from .deviations import (
    SampleSpec,
    deviation,
    is_numerical_degree,
    multiset_deviation,
)
from .divided_powers import (
    GammaModule,
    gamma_dimension,
    tensor_embedding,
    tensor_readoff,
)
from .functors import (
    Const,
    Div,
    DirectSum,
    Ext,
    Sym,
    Tensor,
    arrow_map,
    degree_certificate,
    extract_gamma_structure,
    extract_morita_module,
    object_dim,
    reconstruct,
    restrict_scalars,
    scaling_cross_check,
    spec_from_json,
    spec_label,
    spec_to_json,
)
from .gamma_section import (
    VerificationError,
    cokernel_of_pi_gamma,
    gamma_epsilon_pair,
    kernel_of_gamma,
    quasi_homogeneity_test,
    ring_hom_checks,
    verify_section,
)
from .intlinalg import Matrix
from .modules import FreeModule, SetMap


class UsageError(Exception):
    pass


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, Matrix):
        return [list(r) for r in x.rows]
    if isinstance(x, Multiset):
        return format_multiset(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


def _cell(anchor: str, params: dict, ok: bool, witness=None) -> dict:
    cell = {"anchor": anchor, "params": _jsonable(params), "verdict": "pass" if ok else "fail"}
    if witness is not None and not ok:
        cell["witness"] = _jsonable(witness)
    return cell


def _catalog(power: int):
    return [Tensor(power), Sym(power), Ext(power), Div(power)]


# ---------------------------------------------------------------- suites


def _binomial_map(n: int) -> SetMap:
    line = FreeModule(1)
    return SetMap(line, line, lambda x: line.element((binomial(x.coords[0], n),)))


def suite_deviations(max_n: int, seed: int) -> list:
    cells = []
    line = FreeModule(1)
    for n in range(1, max_n + 1):
        phi = _binomial_map(n)
        rep = is_numerical_degree(phi, n, SampleSpec.default_for(line, n))
        cells.append(_cell("scalar-binomial-degree", {"n": n}, rep.passed, rep.witness))
        sharp = is_numerical_degree(phi, n - 1, SampleSpec.default_for(line, n - 1))
        cells.append(_cell("scalar-binomial-sharp", {"n": n}, not sharp.passed))

    cells.append(
        _cell(
            "functor-scaling-laws",
            {"functor": spec_label(Const(1)), "n": 0},
            scaling_cross_check(Const(1), 0, Matrix.identity(1)).passed,
        )
    )
    for m in range(1, max_n + 1):
        for spec in _catalog(m):
            rep = scaling_cross_check(spec, m, Matrix.identity(m))
            cells.append(
                _cell(
                    "functor-scaling-laws",
                    {"functor": spec_label(spec), "n": m},
                    rep.passed,
                    rep.witness,
                )
            )

    # alternating differences of a cubic map at scaled arguments, rebuilt
    # from binomial coefficients times the word differences
    cube = SetMap(line, line, lambda x: line.element((x.coords[0] ** 3,)))
    rng = random.Random(seed)
    ok = True
    witness = None
    for nargs in (1, 2, 3):
        for _ in range(4):
            scalars = [rng.randint(-3, 3) for _ in range(nargs)]
            points = [line.element((rng.randint(-2, 2),)) for _ in range(nargs)]
            lhs = deviation(cube, [x.scale(a) for a, x in zip(scalars, points)])
            rhs = line.zero()
            for X in multisets_up_to(nargs, 3):
                if X.support != tuple(range(nargs)):
                    continue
                coeff = math.prod(binomial(scalars[i], m) for i, m in X.pairs)
                if coeff:
                    rhs = rhs + multiset_deviation(cube, points, X).scale(coeff)
            if lhs != rhs:
                ok = False
                witness = {"scalars": scalars, "points": [p.coords for p in points]}
    cells.append(_cell("scaled-argument-expansion", {"n": 3}, ok, witness))
    return cells


def suite_aug_algebra(max_k: int, max_n: int, seed: int) -> list:
    cells = []
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            alg = AugAlgebra(k, n)
            params = {"k": k, "n": n}
            cells.append(
                _cell("dimension-count", params, alg.dimension() == aug_dimension(k, n))
            )

            rng = random.Random(seed)

            def rand_elem():
                coeffs = {}
                for _ in range(3):
                    X = alg.basis[rng.randrange(len(alg.basis))]
                    coeffs[X] = coeffs.get(X, 0) + rng.randint(-2, 2)
                return alg.element(coeffs)

            ok = True
            for _ in range(5):
                u, v, w = rand_elem(), rand_elem(), rand_elem()
                x = tuple(rng.randint(-2, 2) for _ in range(k))
                y = tuple(rng.randint(-2, 2) for _ in range(k))
                if alg.class_of(x).sum_mul(alg.class_of(y)) != alg.class_of(
                    tuple(a + b for a, b in zip(x, y))
                ):
                    ok = False
                if u.sum_mul(v) != v.sum_mul(u):
                    ok = False
                if u.sum_mul(v).sum_mul(w) != u.sum_mul(v.sum_mul(w)):
                    ok = False
                if alg.one().sum_mul(u) != u:
                    ok = False
            cells.append(_cell("sum-ring-axioms", params, ok))

            ok = True
            witness = None
            for _ in range(5):
                z = tuple(rng.randint(-2, 2) for _ in range(k))
                r = rng.randint(-3, 3)
                lhs = alg.class_of(tuple(r * c for c in z))
                rhs = alg.zero()
                for m in range(n + 1):
                    c = binomial(r, m)
                    if c:
                        rhs = rhs + alg.class_of_deviation([z] * m).scale(c)
                if lhs != rhs:
                    ok = False
                    witness = {"z": z, "r": r}
            cells.append(_cell("scaling-relation", params, ok, witness))

            side = math.isqrt(k)
            if side * side == k:
                ok = True
                one = alg.class_of(
                    tuple(
                        int(i == j) for i in range(side) for j in range(side)
                    )
                )
                for _ in range(3):
                    u, v, w = rand_elem(), rand_elem(), rand_elem()
                    if u.product_mul(v).product_mul(w) != u.product_mul(v.product_mul(w)):
                        ok = False
                    if one.product_mul(u) != u or u.product_mul(one) != u:
                        ok = False
                cells.append(_cell("composition-ring-axioms", params, ok))
    return cells


def suite_gamma_epsilon(grid, summaries: dict) -> list:
    """Cells of each (k, n) in the grid; summaries[(k, n)] gets the cell's
    summary line from the same computations."""
    cells = []
    for k, n in grid:
        params = {"k": k, "n": n}
        section_ok, section_witness = _guarded(lambda: verify_section(gamma_epsilon_pair(k, n)))
        cells.append(_cell("section-identity", params, section_ok, section_witness))

        ker = kernel_of_gamma(k, n)
        cells.append(_cell("kernel-lattice-match", params, ker.match, ker.witness))

        rep = cokernel_of_pi_gamma(k, n)
        cells.append(
            _cell(
                "cokernel-invariants-match",
                params,
                rep.match,
                {
                    "stacked": list(rep.invariants.torsion),
                    "quotient": list(rep.quotient_invariants.torsion),
                },
            )
        )
        cells.append(
            _cell(
                "finite-index-injection",
                params,
                rep.injective and rep.index is not None,
            )
        )
        summaries[(k, n)] = {
            "section": bool(section_ok),
            "kernel_match": ker.match,
            "coker_invariants": list(rep.invariants.torsion),
            "index": rep.index,
        }
    return cells


def suite_schur(max_n: int, seed: int) -> list:
    cells = []
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        params = {"side": 2, "n": n}
        rep, error = _guarded(lambda: ring_hom_checks(2, n, pairs=20, seed=seed))
        for anchor, verdict in (
            ("divided-power-map-multiplicative", "gamma_multiplicative"),
            ("section-multiplicative", "epsilon_multiplicative"),
            ("top-deviation-product", "top_deviation_identity"),
        ):
            ok = rep is not None and getattr(rep, verdict)
            cells.append(_cell(anchor, params, ok, error if rep is None else rep.witness))

        for spec in _catalog(n):
            ok = True
            witness = None
            for _ in range(5):
                a = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)], 2)
                b = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)], 2)
                if arrow_map(spec, a @ b) != arrow_map(spec, a) @ arrow_map(spec, b):
                    ok = False
                    witness = {"a": a, "b": b}
            cells.append(
                _cell(
                    "arrow-functoriality",
                    {"functor": spec_label(spec), "n": n},
                    ok,
                    witness,
                )
            )

        space = GammaModule(4, n)
        ok = True
        for _ in range(5):
            vec = tuple(rng.randint(-2, 2) for _ in range(space.dimension()))
            elem = space.from_vector(vec)
            if tensor_readoff(space, tensor_embedding(elem)) != elem:
                ok = False
        cells.append(_cell("orbit-sum-round-trip", {"rank": 4, "n": n}, ok))
    return cells


def _guarded(thunk):
    """(thunk(), None), or (None, the message) when an exact check inside it
    fails or it rejects its input: the caller reports a failing cell."""
    try:
        return thunk(), None
    except (VerificationError, ValueError) as exc:
        return None, str(exc)


def suite_morita(seed: int, max_q: int) -> list:
    cells = []
    modules = {}

    def extracted(spec):
        # a failed extraction is a failing module-ring-axioms cell
        module, error = _guarded(lambda: extract_morita_module(spec, 2, seed=seed))
        if module is None:
            cells.append(_cell("module-ring-axioms", {"functor": spec_label(spec), "n": 2}, False, error))
        return module

    for spec in _catalog(2):
        label = spec_label(spec)
        cert = degree_certificate(spec, 2, seed=seed)
        cells.append(_cell("degree-certificate", {"functor": label, "n": 2}, cert.passed, cert.witness))
        sharp = degree_certificate(spec, 1, seed=seed)
        cells.append(_cell("degree-certificate-sharp", {"functor": label, "n": 1}, not sharp.passed))

        module = modules[spec] = extracted(spec)
        if module is None:
            continue
        cells.append(
            _cell(
                "module-ring-axioms",
                {"functor": label, "n": 2},
                module.check_multiplicativity(pairs=10, seed=seed),
            )
        )
        for q in range(1, max_q + 1):
            inv = reconstruct(module, q)
            expected = object_dim(spec, q)
            cells.append(
                _cell(
                    "reconstruction-rank",
                    {"functor": label, "n": 2, "q": q},
                    inv.free_rank == expected and not inv.torsion,
                    {"free_rank": inv.free_rank, "torsion": list(inv.torsion), "expected": expected},
                )
            )
        cells.append(
            _cell(
                "kernel-annihilation",
                {"functor": label, "n": 2},
                quasi_homogeneity_test(module, 2),
            )
        )

    mixed = DirectSum(Const(1), Sym(2))
    mixed_module = extracted(mixed)
    if mixed_module is not None:
        ok = not quasi_homogeneity_test(mixed_module, 2)
        cells.append(_cell("kernel-annihilation-mixed", {"functor": spec_label(mixed), "n": 2}, ok))

    for spec in (Sym(2), Ext(2)):
        direct = modules[spec]
        if direct is None:
            continue
        restricted, error = _guarded(lambda: restrict_scalars(extract_gamma_structure(spec, 2)))
        same = (
            restricted is not None
            and restricted.presentation == direct.presentation
            and restricted.action == direct.action
        )
        cells.append(
            _cell(
                "restriction-matches-extraction",
                {"functor": spec_label(spec), "n": 2},
                same,
                error,
            )
        )
    return cells


_SUITES = ("deviations", "aug-algebra", "gamma-epsilon", "schur", "morita", "all")


def _run_suite(args) -> tuple[dict, bool]:
    seed = args.seed
    max_k = args.max_k
    max_n = args.max_n
    single = args.k is not None or args.n is not None
    if single and (args.suite != "gamma-epsilon" or args.k is None or args.n is None):
        raise UsageError("--k and --n go together, and only with the gamma-epsilon suite")
    if single:
        if args.n < 1:
            raise UsageError("a gamma-epsilon cell needs --n >= 1")
        grid = [(args.k, args.n)]
    else:
        grid = [(k, n) for k in range(1, max_k + 1) for n in range(1, max_n + 1)]
    summaries: dict = {}
    suites = {
        "deviations": lambda: suite_deviations(max_n, seed),
        "aug-algebra": lambda: suite_aug_algebra(max_k, max_n, seed),
        "gamma-epsilon": lambda: suite_gamma_epsilon(grid, summaries),
        "schur": lambda: suite_schur(max_n, seed),
        "morita": lambda: suite_morita(seed, args.q if args.q is not None else 2),
    }

    if args.suite == "all":
        cells = []
        for name, run in suites.items():
            for cell in run():
                cell["params"]["suite"] = name
                cells.append(cell)
    else:
        cells = suites[args.suite]()

    cells.sort(key=lambda c: (c["anchor"], json.dumps(c["params"], sort_keys=True)))
    report = {"suite": args.suite, "seed": seed, "cells": cells}
    if single:
        report["summary"] = summaries[(args.k, args.n)]
    ok = all(c["verdict"] == "pass" for c in cells)
    return report, ok


def _write_csv(header: list, rows: list):
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _print_cells(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
        return
    cells = report["cells"]
    if fmt == "csv":
        _write_csv(
            ["anchor", "params", "verdict", "witness"],
            [
                [
                    c["anchor"],
                    json.dumps(c["params"], sort_keys=True),
                    c["verdict"],
                    json.dumps(c["witness"], sort_keys=True) if "witness" in c else "",
                ]
                for c in cells
            ],
        )
        return
    for c in cells:
        print(f"{c['verdict']:4}  {c['anchor']:34}  {json.dumps(c['params'], sort_keys=True)}")
    if "summary" in report:
        print(json.dumps(report["summary"], sort_keys=True))


def cmd_verify(args) -> int:
    report, ok = _run_suite(args)
    _print_cells(report, args.format)
    return 0 if ok else 1


# ---------------------------------------------------------------- tables


def cmd_table(args) -> int:
    rows = []
    grid = [
        (k, n)
        for k in range(1, args.max_k + 1)
        for n in range(1, args.max_n + 1)
    ]
    if args.what == "dims":
        header = ["k", "n", "truncated_dim", "divided_dim"]
        for k, n in grid:
            rows.append([k, n, aug_dimension(k, n), gamma_dimension(k, n)])
    elif args.what == "index":
        header = ["k", "n", "index"]
        for k, n in grid:
            rep = cokernel_of_pi_gamma(k, n)
            rows.append([k, n, rep.index])
    else:
        header = ["k", "n", "torsion", "free_rank"]
        for k, n in grid:
            rep = cokernel_of_pi_gamma(k, n)
            rows.append(
                [k, n, ";".join(str(t) for t in rep.invariants.torsion), rep.invariants.free_rank]
            )

    if args.format == "json":
        print(
            json.dumps(
                {"table": args.what, "rows": [dict(zip(header, r)) for r in rows]},
                sort_keys=True,
                indent=2,
            )
        )
    elif args.format == "csv":
        _write_csv(header, rows)
    else:
        widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h)) for i, h in enumerate(header)]
        print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for r in rows:
            print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    return 0


# ---------------------------------------------------------------- functor


def _parse_spec(text: str):
    try:
        return spec_from_json(json.loads(text))
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise UsageError(f"bad functor spec {text!r}: {exc}") from exc


def _parse_hom(text: str) -> Matrix:
    try:
        rows = json.loads(text)
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("expected a list of rows")
        for r in rows:
            for v in r:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"entries must be integers, got {v!r}")
        ncols = len(rows[0]) if rows else 0
        return Matrix([list(r) for r in rows], ncols)
    except (json.JSONDecodeError, ValueError, TypeError) as exc:
        raise UsageError(f"bad matrix {text!r}: {exc}") from exc


def cmd_functor(args) -> int:
    spec = _parse_spec(args.spec)
    if args.action == "dims":
        if args.q is None:
            raise UsageError("dims needs --q")
        out = {"spec": spec_to_json(spec), "q": args.q, "dim": object_dim(spec, args.q)}
        try:
            text = str(out["dim"]) if args.format == "plain" else json.dumps(out, sort_keys=True)
        except ValueError as exc:  # Python's limit on digits in int-to-str conversion
            raise UsageError(
                f"dimension of {spec_label(spec)} at q={args.q} has too many digits to print"
            ) from exc
        print(text)
        return 0

    if args.action == "arrow":
        if args.hom is None:
            raise UsageError("arrow needs --hom")
        mat = arrow_map(spec, _parse_hom(args.hom))
        out = {"spec": spec_to_json(spec), "rows": _jsonable(mat)}
        if args.format == "plain":
            for row in mat.rows:
                print(" ".join(str(v) for v in row))
        else:
            print(json.dumps(out, sort_keys=True))
        return 0

    if args.action == "reconstruct" and args.q is None:
        raise UsageError("reconstruct needs --q")
    n = args.n if args.n is not None else 2
    module, error = _guarded(lambda: extract_morita_module(spec, n, seed=args.seed))
    if module is None:
        print(json.dumps({"error": error}, sort_keys=True))
        return 1

    if args.action == "extract":
        inv = module.group_invariants()
        mult = module.check_multiplicativity(pairs=10, seed=args.seed)
        out = {
            "spec": spec_to_json(spec),
            "n": n,
            "generators": module.generators,
            "free_rank": inv.free_rank,
            "torsion": list(inv.torsion),
            "multiplicative": mult,
        }
        print(json.dumps(out, sort_keys=True))
        return 0 if mult else 1

    inv = reconstruct(module, args.q)
    expected = object_dim(spec, args.q)
    matches = inv.free_rank == expected and not inv.torsion
    out = {
        "spec": spec_to_json(spec),
        "n": n,
        "q": args.q,
        "free_rank": inv.free_rank,
        "torsion": list(inv.torsion),
        "expected_rank": expected,
        "matches": matches,
    }
    print(json.dumps(out, sort_keys=True))
    return 0 if matches else 1


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="functorlab",
        description="Exact verification of deviation calculus, divided powers, and the module dictionary.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=_SUITES)
    p_verify.add_argument("--k", type=int, default=None)
    p_verify.add_argument("--n", type=int, default=None)
    p_verify.add_argument("--q", type=int, default=None)
    p_verify.add_argument("--max-k", type=int, default=3, dest="max_k")
    p_verify.add_argument("--max-n", type=int, default=3, dest="max_n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("json", "csv", "plain"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_table = sub.add_parser("table", help="print a dimension or invariant table")
    p_table.add_argument("what", choices=("dims", "index", "invariants"))
    p_table.add_argument("--max-k", type=int, default=3, dest="max_k")
    p_table.add_argument("--max-n", type=int, default=3, dest="max_n")
    p_table.add_argument("--format", choices=("json", "csv", "plain"), default="plain")
    p_table.set_defaults(func=cmd_table)

    p_fun = sub.add_parser("functor", help="query a catalog functor")
    p_fun.add_argument("action", choices=("dims", "arrow", "extract", "reconstruct"))
    p_fun.add_argument("--spec", required=True, help='functor JSON, e.g. {"ext": 2}')
    p_fun.add_argument("--q", type=int, default=None)
    p_fun.add_argument("--n", type=int, default=None)
    p_fun.add_argument("--hom", default=None, help="matrix JSON, rows of integers")
    p_fun.add_argument("--seed", type=int, default=0)
    p_fun.add_argument("--format", choices=("json", "plain"), default="json")
    p_fun.set_defaults(func=cmd_functor)

    return parser


def _check_sizes(args):
    for name in ("k", "n", "q", "max_k", "max_n"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be nonnegative, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_sizes(args)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # reader gone: stdout to devnull so the exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
