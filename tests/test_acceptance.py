"""Acceptance gate: one test per criterion, all exact (tolerance zero).

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion.  Sampled checks are seeded and deterministic.
"""
import random
import time
from itertools import product
from math import factorial

from functorlab.augmentation import AugAlgebra
from functorlab.combinatorics import binomial, multisets_up_to
from functorlab.deviations import alternating_sum
from functorlab.functors import (
    Const,
    DirectSum,
    Div,
    Ext,
    Sym,
    Tensor,
    arrow_map,
    extract_gamma_structure,
    extract_morita_module,
    object_dim,
    reconstruct,
    restrict_scalars,
    scaling_cross_check,
)
from functorlab.gamma_section import (
    cokernel_of_pi_gamma,
    gamma_epsilon_pair,
    gamma_matrix,
    kernel_of_gamma,
    quadratic_split,
    quasi_homogeneity_test,
    ring_hom_checks,
    verify_section,
)
from functorlab.intlinalg import Matrix, saturation
from oracles import stirling2, stirling_sum_identity

CATALOG = {n: [Tensor(n), Sym(n), Ext(n), Div(n)] for n in (1, 2, 3)}


def rand_square(rng, side, bound=1):
    return Matrix(
        [[rng.randint(-bound, bound) for _ in range(side)] for _ in range(side)]
    )


def arrow_deviation(spec, mats, side):
    """Alternating difference of the arrow map over subset sums of mats."""
    return alternating_sum(
        lambda s: arrow_map(spec, s), list(mats), Matrix.zeros(side, side)
    )


def test_criterion_01_section_identity():
    # product of the two maps is the identity on the divided module,
    # on the stated grid, in under a minute
    start = time.perf_counter()
    grid = [(k, n) for k in (1, 2, 3, 4) for n in (1, 2, 3)] + [(9, 3)]
    for k, n in grid:
        assert verify_section(gamma_epsilon_pair(k, n)), (k, n)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"section grid took {elapsed:.1f}s"


def test_criterion_02_kernel_lattice():
    # kernel of the comparison map == saturated span of the scaling classes,
    # as lattices in canonical (triangular) form
    cells = [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
    for k, n in cells + [(2, 4), (2, 5), (2, 6), (3, 5)]:
        rep = kernel_of_gamma(k, n)
        assert saturation(rep.generated).basis == rep.kernel.basis, (k, n)
        assert rep.match, (k, n)


def test_criterion_03_cokernel_invariants():
    for k in (1, 2, 3):
        for n in (1, 2, 3):
            rep = cokernel_of_pi_gamma(k, n)
            assert rep.injective, (k, n)
            assert rep.invariants == rep.quotient_invariants, (k, n)
    pinned = cokernel_of_pi_gamma(1, 2)
    assert pinned.invariants.torsion == (2,)
    assert pinned.invariants.free_rank == 0


def test_criterion_04_stirling_identity():
    # the library's table of gamma's coordinate factors, the surjection
    # counts, equals the alternating sum, which is m! times a Stirling
    # number: the rank-1 gamma at degree n is its row n
    for n in range(9):
        row = gamma_matrix(1, n).rows[0]
        for m in range(9):
            want = stirling_sum_identity(n, m)
            assert want == factorial(m) * stirling2(n, m), (n, m)
            assert (row[m] if m <= n else 0) == want, (n, m)


def test_criterion_05_ring_homomorphisms():
    for n in (2, 3):
        rep = ring_hom_checks(2, n, pairs=20, seed=0)
        assert rep.pairs_checked >= 20
        assert rep.gamma_multiplicative, rep.witness
        assert rep.epsilon_multiplicative, rep.witness
        assert rep.top_deviation_identity, rep.witness


def test_criterion_06_numericality_equivalences():
    # the scaling law, value and functor form, on the full window; its
    # interpolation form is the repeated-deviation form by a binomial
    # identity, checked in test_deviations.py
    rng = random.Random(6)
    for n in (1, 2, 3):
        for spec in CATALOG[n]:
            for alpha in (
                Matrix.identity(n),
                Matrix.identity(n + 1),
                rand_square(rng, n + 1),
            ):
                rep = scaling_cross_check(spec, n, alpha)
                assert rep.passed, (spec, alpha.rows, rep.witness)

    # the three cubic deviation expansions, verbatim, on seeded samples
    for spec in CATALOG[3]:
        side = 3 if spec == Ext(3) else 2
        for _ in range(3):
            a1, a2, a3 = (rng.randint(-3, 3) for _ in range(3))
            x1, x2, x3 = (rand_square(rng, side) for _ in range(3))

            lhs = arrow_deviation(spec, [x1.scale(a1)], side)
            rhs = (
                arrow_deviation(spec, [x1], side).scale(binomial(a1, 1))
                + arrow_deviation(spec, [x1, x1], side).scale(binomial(a1, 2))
                + arrow_deviation(spec, [x1, x1, x1], side).scale(binomial(a1, 3))
            )
            assert lhs == rhs, (spec, "one argument", a1)

            lhs = arrow_deviation(spec, [x1.scale(a1), x2.scale(a2)], side)
            rhs = (
                arrow_deviation(spec, [x1, x2], side).scale(
                    binomial(a1, 1) * binomial(a2, 1)
                )
                + arrow_deviation(spec, [x1, x1, x2], side).scale(
                    binomial(a1, 2) * binomial(a2, 1)
                )
                + arrow_deviation(spec, [x1, x2, x2], side).scale(
                    binomial(a1, 1) * binomial(a2, 2)
                )
            )
            assert lhs == rhs, (spec, "two arguments", (a1, a2))

            lhs = arrow_deviation(
                spec, [x1.scale(a1), x2.scale(a2), x3.scale(a3)], side
            )
            rhs = arrow_deviation(spec, [x1, x2, x3], side).scale(
                binomial(a1, 1) * binomial(a2, 1) * binomial(a3, 1)
            )
            assert lhs == rhs, (spec, "three arguments", (a1, a2, a3))


def test_criterion_07_multiset_deviation_formula():
    # deviation at scaled arguments == sum over full-support multisets of
    # size <= n of the multiset binomial times the word deviation,
    # exhaustively over the scalar box
    for n in (1, 2, 3):
        for spec in CATALOG[n]:
            side = 3 if spec == Ext(3) else 2
            rng = random.Random(70 + n)
            for k in (1, 2, 3):
                alphas = [rand_square(rng, side) for _ in range(k)]
                words = {
                    X: arrow_deviation(spec, [alphas[i] for i in X.indices()], side)
                    for X in multisets_up_to(k, n)
                    if X.support == tuple(range(k))
                }
                dim = object_dim(spec, side)
                zero = Matrix.zeros(dim, dim)
                for a in product(range(-3, 4), repeat=k):
                    lhs = arrow_deviation(
                        spec, [alphas[i].scale(a[i]) for i in range(k)], side
                    )
                    rhs = zero
                    for X, d in words.items():
                        coeff = 1
                        for i, m in X.pairs:
                            coeff *= binomial(a[i], m)
                        if coeff:
                            rhs = rhs + d.scale(coeff)
                    assert lhs == rhs, (spec, k, a)


def test_criterion_08_morita_round_trip():
    for spec in CATALOG[2]:
        module = extract_morita_module(spec, 2)
        for q in (1, 2, 3):
            inv = reconstruct(module, q)
            assert inv.free_rank == object_dim(spec, q), (spec, q, inv)
            assert inv.torsion == (), (spec, q, inv)
    assert reconstruct(extract_morita_module(Ext(2), 2), 3).free_rank == 3


def test_criterion_09_quasi_homogeneity():
    for spec in CATALOG[2]:
        module = extract_morita_module(spec, 2)
        assert quasi_homogeneity_test(module, 2), spec
    mixed = extract_morita_module(DirectSum(Const(1), Sym(2)), 2)
    assert not quasi_homogeneity_test(mixed, 2)


def test_criterion_10_quadratic_phenomenon():
    for k in (1, 2, 4):
        rep = quadratic_split(k)
        assert rep.surjective, k
        assert rep.split_integrally, k
    for spec in (Sym(2), Ext(2)):
        direct = extract_morita_module(spec, 2)
        restricted = restrict_scalars(extract_gamma_structure(spec, 2))
        assert restricted.presentation == direct.presentation, spec
        assert restricted.action == direct.action, spec


def test_full_cli_verify_under_five_minutes(capsys):
    from functorlab.cli import main

    start = time.perf_counter()
    code = main(["verify", "all", "--max-k", "3", "--max-n", "3"])
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert code == 0
    assert elapsed < 300.0, f"verify all took {elapsed:.1f}s"
