"""Command line front door: verification suites, tables, functor queries.

Every sampled check takes a --seed (default 0); identical invocations print
identical bytes.  Exit codes: 0 all checks passed, 1 at least one check
failed, 2 usage or input error.

Every verify cell is one check run through _cell.  A sampled cell runs all of
its seeded draws and, when it fails, names its last failing draw as its
witness.  A check that raises VerificationError or ValueError is a failing
cell with the message as its witness, so the run exits 1 and prints no
traceback.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import cache, partial
from operator import attrgetter

from .augmentation import AugAlgebra, aug_dimension
from .combinatorics import Multiset, binomial, format_multiset, multisets_up_to
from .deviations import deviation, is_numerical_degree, multiset_deviation
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


# Size guards, read off closed forms before anything is built: the entries
# object_dim(F, rows) * object_dim(F, cols) of a `functor arrow` matrix,
# dim B(k, n) = aug_dimension(k, n) of the largest gamma-epsilon or table
# cell, dim B(k, n) * n^2 of the largest gamma-epsilon cell, and the n^n rows
# (and nonzeros) of the tensor^n arrow of the n x n identity, the largest
# object of the deviations suite.  A gamma-epsilon cell builds no kernel of
# gamma; its scaling classes, their Hermite form and the product L gamma^T
# cost more per basis class as n grows, hence the n^2.  Whole cells (Python
# 3.11, 2-core Xeon): within the limit (4, 13) takes 9 s, (7, 8) 7.5 s and
# (5, 10) 4.3 s; past it (4, 14) takes 14 s, (3, 20) 12 s and (2, 60) 68 s.
# Below k = 3 it is conservative: (2, 35) takes 3.3 s and (1, 300) 4.6 s.
#
# The side x side composition entries at degree n, all read by schur and, at
# side 1, by aug-algebra, weigh dim B(side^2, n)^2 (1 + 4^n / (16 side^2))
# relation walks of about 0.75 us (Python 3.11, 2-core Xeon): the walks per
# entry grow about fourfold per degree and shrink with the share 1/side^2 of
# composable unit pairs.  Within the limit (2, 6) walks in 2.3 s, (3, 4)
# 1.0 s, (8, 2) 2.9 s and (1, 10) 4.6 s; past it (9, 2) takes 8.5 s, (5, 3)
# 9.6 s, (3, 5) 20 s, (2, 7) 26 s, (4, 4) 30 s.  `verify morita --q Q` adds
# four reconstruction cells per q <= Q, about 1 ms each: Q = 4096 takes 4.6 s.
MAX_ARROW_ENTRIES = 2**21
MAX_AUG_DIMENSION = 12_000
MAX_GAMMA_EPSILON_WEIGHT = 2**19
MAX_TABLE_WEIGHT = 2**23
MAX_MORITA_Q = 2**12
MAX_TENSOR_ROWS = 6**6


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


def _verdict(check) -> tuple:
    """(ok, witness) from check(), which returns ok or (ok, witness).  An
    exact check that fails inside it (VerificationError) or an input it
    rejects (ValueError) gives (False, the message)."""
    try:
        result = check()
    except (VerificationError, ValueError) as exc:
        return False, str(exc)
    return result if isinstance(result, tuple) else (result, None)


def _cell(anchor: str, params: dict, check) -> dict:
    ok, witness = _verdict(check)
    cell = {"anchor": anchor, "params": _jsonable(params), "verdict": "pass" if ok else "fail"}
    if witness is not None and not ok:
        cell["witness"] = _jsonable(witness)
    return cell


def _sampled(draws) -> tuple:
    """(every draw passed, the last failing draw's witness) over draws, each
    a check for _verdict.  Every draw runs, in order, so the seeded stream
    never depends on a verdict."""
    failed = [witness for ok, witness in map(_verdict, draws) if not ok]
    return not failed, failed[-1] if failed else None


def _ran(thunk) -> bool:
    """Whether a functools.cache'd thunk has returned, i.e. did not raise."""
    return thunk.cache_info().currsize > 0


_passed = attrgetter("passed", "witness")
_matched = attrgetter("match", "witness")


def _catalog(power: int):
    return [Tensor(power), Sym(power), Ext(power), Div(power)]


# ---------------------------------------------------------------- suites


def _binomial_degree(n: int, degree: int):
    """is_numerical_degree of x -> C(x, n) on Z, at the given degree."""
    line = FreeModule(1)
    phi = SetMap(line, line, lambda x: line.from_vector((binomial(x.vector[0], n),)))
    return is_numerical_degree(phi, degree)


def suite_deviations(max_n: int, seed: int) -> list:
    cells = []
    for n in range(1, max_n + 1):
        cells += [
            _cell("scalar-binomial-degree", {"n": n}, lambda: _passed(_binomial_degree(n, n))),
            _cell("scalar-binomial-sharp", {"n": n}, lambda: not _binomial_degree(n, n - 1).passed),
        ]

    # Const(1) arrows are the identity of rank 1 whatever the hom
    for spec, m in [(Const(1), 0)] + [(s, m) for m in range(1, max_n + 1) for s in _catalog(m)]:
        cells.append(
            _cell(
                "functor-scaling-laws",
                {"functor": spec.label(), "n": m},
                lambda: _passed(scaling_cross_check(spec, m, Matrix.identity(m))),
            )
        )

    # alternating differences of a cubic map at scaled arguments, rebuilt
    # from binomial coefficients times the word differences
    line = FreeModule(1)
    cube = SetMap(line, line, lambda x: line.from_vector((x.vector[0] ** 3,)))
    rng = random.Random(seed)

    def expansion(nargs):
        scalars = [rng.randint(-3, 3) for _ in range(nargs)]
        points = [line.from_vector((rng.randint(-2, 2),)) for _ in range(nargs)]
        lhs = deviation(cube, [x.scale(a) for a, x in zip(scalars, points)])
        rhs = line.zero()
        for X in multisets_up_to(nargs, 3):
            if X.support != tuple(range(nargs)):
                continue
            coeff = math.prod(binomial(scalars[i], m) for i, m in X.pairs)
            if coeff:
                rhs = rhs + multiset_deviation(cube, points, X).scale(coeff)
        return lhs == rhs, {"scalars": scalars, "points": [p.vector for p in points]}

    draws = [partial(expansion, nargs) for nargs in (1, 2, 3) for _ in range(4)]
    cells.append(_cell("scaled-argument-expansion", {"n": 3}, partial(_sampled, draws)))
    return cells


def suite_aug_algebra(max_k: int, max_n: int, seed: int) -> list:
    cells = []
    for k in range(1, max_k + 1):
        for n in range(1, max_n + 1):
            alg = AugAlgebra(k, n)
            params = {"k": k, "n": n}
            rng = random.Random(seed)

            def rand_elem():
                coeffs = {}
                for _ in range(3):
                    X = alg.basis[rng.randrange(len(alg.basis))]
                    coeffs[X] = coeffs.get(X, 0) + rng.randint(-2, 2)
                return alg.element(coeffs)

            def sum_ring():
                u, v, w = rand_elem(), rand_elem(), rand_elem()
                x = tuple(rng.randint(-2, 2) for _ in range(k))
                y = tuple(rng.randint(-2, 2) for _ in range(k))
                mul = alg.sum_mul
                holds = (
                    mul(alg.class_of(x), alg.class_of(y))
                    == alg.class_of(tuple(a + b for a, b in zip(x, y)))
                    and mul(u, v) == mul(v, u)
                    and mul(mul(u, v), w) == mul(u, mul(v, w))
                    and mul(alg.one(), u) == u
                )
                return holds, {"u": u.vector, "v": v.vector, "w": w.vector, "x": x, "y": y}

            def scaling():
                z = tuple(rng.randint(-2, 2) for _ in range(k))
                r = rng.randint(-3, 3)
                rhs = alg.zero()
                for m in range(n + 1):
                    c = binomial(r, m)
                    if c:
                        rhs = rhs + alg.class_of_deviation([z] * m).scale(c)
                return alg.class_of(tuple(r * c for c in z)) == rhs, {"z": z, "r": r}

            def composition_ring():
                u, v, w = rand_elem(), rand_elem(), rand_elem()
                mul = alg.product_mul
                holds = (
                    mul(mul(u, v), w) == mul(u, mul(v, w))
                    and mul(one, u) == u
                    and mul(u, one) == u
                )
                return holds, {"u": u.vector, "v": v.vector, "w": w.vector}

            cells += [
                _cell("dimension-count", params, lambda: alg.dimension() == aug_dimension(k, n)),
                _cell("sum-ring-axioms", params, partial(_sampled, [sum_ring] * 5)),
                _cell("scaling-relation", params, partial(_sampled, [scaling] * 5)),
            ]
            side = math.isqrt(k)
            if side * side == k:
                one = alg.class_of(tuple(int(i == j) for i in range(side) for j in range(side)))
                draws = [composition_ring] * 3
                cells.append(_cell("composition-ring-axioms", params, partial(_sampled, draws)))
    return cells


def suite_gamma_epsilon(grid, summaries: dict) -> list:
    """Cells of each (k, n) in the grid; summaries[(k, n)] gets the cell's
    summary line from the same computations."""
    cells = []
    for k, n in grid:
        params = {"k": k, "n": n}
        coker = cache(lambda: cokernel_of_pi_gamma(k, n))

        def invariants():
            rep = coker()
            quotient = rep.quotient_invariants.torsion
            return rep.match, {"stacked": rep.invariants.torsion, "quotient": quotient}

        section, kernel, *_ = group = [
            _cell("section-identity", params, lambda: verify_section(gamma_epsilon_pair(k, n))),
            _cell("kernel-lattice-match", params, lambda: _matched(kernel_of_gamma(k, n))),
            _cell("cokernel-invariants-match", params, invariants),
            _cell(
                "finite-index-injection",
                params,
                lambda: coker().injective and coker().index is not None,
            ),
        ]
        cells += group
        rep = coker() if _ran(coker) else None
        summaries[(k, n)] = {
            "section": section["verdict"] == "pass",
            "kernel_match": kernel["verdict"] == "pass",
            "coker_invariants": list(rep.invariants.torsion) if rep else None,
            "index": rep.index if rep else None,
        }
    return cells


def suite_schur(max_n: int, seed: int) -> list:
    cells = []
    rng = random.Random(seed)
    for n in range(1, max_n + 1):
        params = {"side": 2, "n": n}
        hom = cache(lambda: ring_hom_checks(2, n, pairs=20, seed=seed))
        for anchor, verdict in (
            ("divided-power-map-multiplicative", "gamma_multiplicative"),
            ("section-multiplicative", "epsilon_multiplicative"),
            ("top-deviation-product", "top_deviation_identity"),
        ):
            cells.append(_cell(anchor, params, lambda: attrgetter(verdict, "witness")(hom())))

        def functorial(spec):
            a = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)], 2)
            b = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)], 2)
            same = arrow_map(spec, a @ b) == arrow_map(spec, a) @ arrow_map(spec, b)
            return same, {"a": a, "b": b}

        for spec in _catalog(n):
            draws = [partial(functorial, spec)] * 5
            at_n = {"functor": spec.label(), "n": n}
            cells.append(_cell("arrow-functoriality", at_n, partial(_sampled, draws)))

        space = GammaModule(4, n)

        def round_trip():
            vec = tuple(rng.randint(-2, 2) for _ in range(space.dimension()))
            elem = space.from_vector(vec)
            return tensor_readoff(space, tensor_embedding(elem)) == elem, {"vector": vec}

        draws = [round_trip] * 5
        cells.append(_cell("orbit-sum-round-trip", {"rank": 4, "n": n}, partial(_sampled, draws)))
    return cells


def suite_morita(seed: int, max_q: int) -> list:
    """Cells of the catalog's degree-2 modules.  A failed extraction fails the
    first cell that reads the module, and the module's later cells are
    skipped."""
    cells = []
    for spec in _catalog(2):
        at2 = {"functor": spec.label(), "n": 2}
        module = cache(lambda: extract_morita_module(spec, 2, seed=seed))
        certify = partial(degree_certificate, spec, seed=seed)
        cells += [
            _cell("degree-certificate", at2, lambda: _passed(certify(2))),
            _cell("degree-certificate-sharp", {**at2, "n": 1}, lambda: not certify(1).passed),
            _cell("module-ring-axioms", at2, lambda: module().check_multiplicativity(10, seed)),
        ]
        if not _ran(module):
            continue

        def restriction():
            restricted, direct = restrict_scalars(extract_gamma_structure(spec, 2)), module()
            same = restricted.presentation == direct.presentation
            return same and restricted.action == direct.action

        def rank_matches(q):
            inv, expected = reconstruct(module(), q), object_dim(spec, q)
            found = {"free_rank": inv.free_rank, "torsion": list(inv.torsion), "expected": expected}
            return inv.free_rank == expected and not inv.torsion, found

        for q in range(1, max_q + 1):
            cells.append(_cell("reconstruction-rank", {**at2, "q": q}, partial(rank_matches, q)))
        cells.append(_cell("kernel-annihilation", at2, lambda: quasi_homogeneity_test(module(), 2)))
        if spec in (Sym(2), Ext(2)):
            cells.append(_cell("restriction-matches-extraction", at2, restriction))

    mixed = DirectSum(Const(1), Sym(2))
    cells.append(
        _cell(
            "kernel-annihilation-mixed",
            {"functor": mixed.label(), "n": 2},
            lambda: not quasi_homogeneity_test(extract_morita_module(mixed, 2, seed=seed), 2),
        )
    )
    return cells


_SUITES = ("deviations", "aug-algebra", "gamma-epsilon", "schur", "morita", "all")


def _check_aug_dimension(k: int, n: int):
    """Refuse a grid whose largest cell, dim B(k, n), is past the limit."""
    # dim B(k, n) > max(k, n) unless one is 0: a large k or n builds no large binomial
    if min(k, n) and max(k, n) >= MAX_AUG_DIMENSION or aug_dimension(k, n) > MAX_AUG_DIMENSION:
        raise UsageError(f"dim B({k}, {n}) exceeds the size limit {MAX_AUG_DIMENSION}")


def _check_composition_table(side: int, n: int):
    """Refuse a run whose side x side composition table at degree n is past the limit."""
    weight = aug_dimension(side * side, n) ** 2
    scale = 16 * side**2
    # weight > n, so once it is within the limit 4^n is a small int
    if weight > MAX_TABLE_WEIGHT or weight * (scale + 4**n) > MAX_TABLE_WEIGHT * scale:
        table = f"the composition table of {side} x {side} matrices at degree {n}"
        raise UsageError(f"{table} exceeds the size limit {MAX_TABLE_WEIGHT}")


def _run_suite(args) -> tuple[dict, bool]:
    seed, max_k, max_n = args.seed, args.max_k, args.max_n
    single = args.k is not None or args.n is not None
    if single and (args.suite != "gamma-epsilon" or args.k is None or args.n is None):
        raise UsageError("--k and --n go together, and only with the gamma-epsilon suite")
    if single and args.n < 1:
        raise UsageError("a gamma-epsilon cell needs --n >= 1")
    k, n = (args.k, args.n) if single else (max_k, max_n)
    if args.suite in ("aug-algebra", "gamma-epsilon", "all"):
        _check_aug_dimension(k, n)
    # aug-algebra composes the matrices of each square k <= max_k, schur 2 x 2 ones
    if args.suite in ("aug-algebra", "all") and max_k:
        _check_composition_table(math.isqrt(max_k), max_n)
    if args.suite in ("schur", "all"):
        _check_composition_table(2, max_n)
    if args.suite in ("morita", "all") and args.q is not None and args.q > MAX_MORITA_Q:
        raise UsageError(f"--q {args.q} exceeds the size limit {MAX_MORITA_Q}")
    # past n > MAX_TENSOR_ROWS, n^n is both too large and too costly to compute
    tensor_rows_past = max_n > MAX_TENSOR_ROWS or max_n**max_n > MAX_TENSOR_ROWS
    if args.suite in ("deviations", "all") and tensor_rows_past:
        raise UsageError(f"the tensor^{max_n} arrow exceeds the size limit {MAX_TENSOR_ROWS}")
    if args.suite in ("gamma-epsilon", "all") and aug_dimension(k, n) * n * n > MAX_GAMMA_EPSILON_WEIGHT:
        raise UsageError(f"dim B({k}, {n}) * {n}^2 exceeds the size limit {MAX_GAMMA_EPSILON_WEIGHT}")
    grid = [(k, n)] if single else [(a, b) for a in range(1, k + 1) for b in range(1, n + 1)]
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


@contextmanager
def _exact_ints():
    """Lift Python's limit on digits in int-to-str conversion, and restore it
    on exit.  The integers of a report were computed here, not parsed from
    input, and print whole: the index at (6, 9) has over 4,300 digits."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@_exact_ints()
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


@_exact_ints()
def cmd_table(args) -> int:
    if args.what != "dims":
        _check_aug_dimension(args.max_k, args.max_n)
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


def _print_result(args, out: dict, plain=None):
    """Print out as a JSON line, or plain() with --format plain, whole or not
    at all: an int past Python's int-to-str digit limit refuses the run."""
    try:
        text = plain() if plain and args.format == "plain" else json.dumps(out, sort_keys=True) + "\n"
    except ValueError as exc:
        raise UsageError(f"the {args.action} result has too many digits to print") from exc
    sys.stdout.write(text)


def cmd_functor(args) -> int:
    spec = _parse_spec(args.spec)
    if args.action == "dims":
        if args.q is None:
            raise UsageError("dims needs --q")
        out = {"spec": spec.to_json(), "q": args.q, "dim": object_dim(spec, args.q)}
        _print_result(args, out, lambda: f"{out['dim']}\n")
        return 0

    if args.action == "arrow":
        if args.hom is None:
            raise UsageError("arrow needs --hom")
        hom = _parse_hom(args.hom)
        if object_dim(spec, hom.nrows) * object_dim(spec, hom.ncols) > MAX_ARROW_ENTRIES:
            raise UsageError(f"the {spec.label()} arrow exceeds the size limit {MAX_ARROW_ENTRIES}")
        rows = _jsonable(arrow_map(spec, hom))
        plain = lambda: "".join(" ".join(map(str, row)) + "\n" for row in rows)
        _print_result(args, {"spec": spec.to_json(), "rows": rows}, plain)
        return 0

    if args.action == "reconstruct" and args.q is None:
        raise UsageError("reconstruct needs --q")
    n = args.n if args.n is not None else 2
    _check_aug_dimension(n * n, n)
    if object_dim(spec, max(n + 1, 2)) ** 2 > MAX_ARROW_ENTRIES:  # the certificate's largest arrow
        raise UsageError(f"the {spec.label()} arrow exceeds the size limit {MAX_ARROW_ENTRIES}")

    def query():
        module = extract_morita_module(spec, n, seed=args.seed)
        if args.action == "extract":
            inv = module.group_invariants()
            passed = module.check_multiplicativity(pairs=10, seed=args.seed)
            out = {"generators": module.generators, "multiplicative": passed}
        else:
            inv = reconstruct(module, args.q)
            expected = object_dim(spec, args.q)
            passed = inv.free_rank == expected and not inv.torsion
            out = {"q": args.q, "expected_rank": expected, "matches": passed}
        out.update(spec=spec.to_json(), n=n, free_rank=inv.free_rank, torsion=list(inv.torsion))
        return passed, out

    # as in a verify cell, a check that raises is a failure with its message
    passed, out = _verdict(query)
    _print_result(args, out if isinstance(out, dict) else {"error": out})
    return 0 if passed else 1


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
