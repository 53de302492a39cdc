"""The comparison map onto divided powers, its rational section, kernel and
cokernel structure, multiplicativity, and the degree-two splitting."""
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from functorlab.augmentation import AugAlgebra, aug_dimension
from functorlab.combinatorics import Multiset, multisets_exactly, multisets_up_to
from functorlab.divided_powers import GammaModule
from functorlab import cli, gamma_section, intlinalg
from functorlab.gamma_section import (
    GammaEpsilonPair,
    VerificationError,
    _scaling_rows,
    apply_epsilon,
    apply_gamma,
    cokernel_of_pi_gamma,
    epsilon_matrix,
    gamma_epsilon_pair,
    gamma_kernel,
    gamma_matrix,
    image_epsilon_decomposition,
    kernel_of_gamma,
    products_quotient_invariants,
    products_sublattice,
    quadratic_split,
    quasi_homogeneity_test,
    ring_hom_checks,
    stacked_pi_gamma,
    truncation_matrix,
    verify_section,
)
from functorlab.intlinalg import (
    Lattice,
    Matrix,
    cokernel_invariants,
    kernel_lattice,
    lattice_index,
    relation_invariants,
    saturation,
    solve_int,
)
from functorlab.functors import Ext, Sym, extract_morita_module
from oracles import stirling2, stirling_sum_identity

GRID = [(k, n) for k in (1, 2, 3) for n in (1, 2, 3)]
# the cells of the benchmark's invariants workload
INVARIANT_CELLS = [(2, 4), (3, 4), (4, 3), (2, 5), (3, 5), (5, 3), (4, 4), (6, 2), (7, 2)]
# rank 0, degree 0 and degree 1
EDGES = [(0, 0), (0, 1), (0, 3), (3, 0), (1, 1), (4, 1)]
# the grid of `verify all --max-k 4 --max-n 3`
VERIFY_GRID = [(k, n) for k in range(1, 5) for n in range(1, 4)]


def count(X, i):
    """Multiplicity of i in the multiset X."""
    return dict(X.pairs).get(i, 0)


def brute_space_deviation(space, value_of, xs):
    """The deviation of value_of at the points xs of Z^rank, folded densely:
    sign times value_of(subset sum) over every subset of xs, the subset sums
    as int tuples."""
    total = [0] * space.dimension()
    for size in range(len(xs) + 1):
        for subset in combinations(xs, size):
            point = tuple(sum(x[i] for x in subset) for i in range(space.rank))
            sign = (-1) ** (len(xs) - size)
            total = [a + sign * b for a, b in zip(total, value_of(point).vector)]
    return space.from_vector(total)


def brute_gamma_matrix(rank, degree):
    """gamma as it was built before its closed form: column X is the
    deviation of the divided power map at X's word of unit vectors."""
    space = GammaModule(rank, degree)
    cols = []
    for X in multisets_up_to(rank, degree):
        vectors = [tuple(int(j == i) for j in range(rank)) for i in X.indices()]
        cols.append(brute_space_deviation(space, space.divided_power, vectors).vector)
    return Matrix.from_cols(cols, space.dimension())


def brute_truncation_matrix(rank, degree):
    """The truncation as it was built from the two algebras' bases."""
    source = AugAlgebra(rank, degree)
    target = AugAlgebra(rank, degree - 1)
    cols = []
    for X in source.basis:
        col = [0] * target.dimension()
        if X.size <= degree - 1:
            col[target.basis_index[X]] = 1
        cols.append(col)
    return Matrix.from_cols(cols, target.dimension())


def brute_products_sublattice(rank, degree):
    """The span of every product x_1 ... x_n of 0/1 vectors, one divided
    power product per multiset of factors, then a Hermite form."""
    space = GammaModule(rank, degree)
    combos = combinations_with_replacement(list(product((0, 1), repeat=rank)), degree)
    rows = [space.product_of_elements(combo).vector for combo in combos]
    return Lattice.from_rows(space.dimension(), rows)


@st.composite
def points(draw):
    """(rank, points of Z^rank): random points or one point repeated."""
    rank = draw(st.integers(1, 3))
    point = st.tuples(*[st.integers(-3, 3)] * rank)
    if draw(st.booleans()):
        return rank, draw(st.lists(point, max_size=4))
    return rank, [draw(point)] * draw(st.integers(0, 4))


class TestSpaceDeviationOracle:
    """Both deviations of the multiset spaces, as deviations of set maps,
    against the dense fold."""

    @settings(max_examples=150, deadline=None)
    @given(points(), st.integers(0, 3))
    def test_class_of_deviation(self, drawn, degree):
        rank, xs = drawn
        alg = AugAlgebra(rank, degree)
        assert alg.class_of_deviation(xs) == brute_space_deviation(alg, alg.class_of, xs)

    @settings(max_examples=150, deadline=None)
    @given(points())
    def test_product_of_elements(self, drawn):
        rank, xs = drawn
        space = GammaModule(rank, len(xs))
        oracle = brute_space_deviation(space, space.divided_power, xs)
        assert space.product_of_elements(xs) == oracle

    @pytest.mark.parametrize("rank,degree", [(r, n) for r in range(1, 5) for n in range(1, 5)])
    def test_product_of_elements_on_seeded_points(self, rank, degree):
        # the closed form against the alternating sum over the 2^n subsets,
        # on distinct points, a repeated point and a zero among them
        rng = random.Random(100 * rank + degree)
        space = GammaModule(rank, degree)
        x = tuple(rng.randint(-3, 3) for _ in range(rank))
        draws = [[tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(degree)]]
        draws += [[x] * degree, [(0,) * rank] + [x] * (degree - 1)]
        for xs in draws:
            oracle = brute_space_deviation(space, space.divided_power, xs)
            assert space.product_of_elements(xs) == oracle, xs

    def test_empty_list(self):
        for rank in range(4):
            alg, space = AugAlgebra(rank, 2), GammaModule(rank, 0)
            assert alg.class_of_deviation([]) == alg.one()
            assert brute_space_deviation(alg, alg.class_of, []) == alg.one()
            unit = space.basis_element(Multiset())
            assert space.product_of_elements([]) == unit
            assert brute_space_deviation(space, space.divided_power, []) == unit


class TestGammaMatrix:
    def test_frozen_rank_one_degree_two(self):
        assert gamma_matrix(1, 2).rows == ((0, 1, 2),)

    def test_sends_classes_to_divided_powers(self):
        rng = random.Random(3)
        for k, n in [(1, 2), (2, 2), (2, 3)]:
            pair = gamma_epsilon_pair(k, n)
            alg = AugAlgebra(k, n)
            space = GammaModule(k, n)
            for _ in range(5):
                x = tuple(rng.randint(-3, 3) for _ in range(k))
                assert apply_gamma(pair, alg.class_of(x)) == space.divided_power(x)

    def test_integral(self):
        for k, n in GRID:
            assert gamma_matrix(k, n).is_integral

    @pytest.mark.parametrize("k,n", GRID + INVARIANT_CELLS + [(9, 2), (2, 6)] + EDGES)
    def test_closed_form_against_deviation_route(self, k, n):
        gam = gamma_matrix(k, n)
        assert gam.rows == brute_gamma_matrix(k, n).rows
        assert gam.shape == (len(GammaModule(k, n).basis), aug_dimension(k, n))

    @pytest.mark.parametrize("degree", [0, 1, 2, 5, 12, 30])
    def test_surjection_table(self, degree):
        # the rank-1 gamma at degree a is row a of the table off the
        # recurrence: the alternating sum, which is x! S(a, x)
        for a in range(degree + 1):
            row = [stirling_sum_identity(a, x) for x in range(a + 1)]
            assert gamma_matrix(1, a).rows == (tuple(row),)
            assert row == [factorial(x) * stirling2(a, x) for x in range(a + 1)]

    @pytest.mark.parametrize(
        "k,n", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (4, 4), (2, 5), (1, 40), (2, 20)]
    )
    def test_stirling_closed_form(self, k, n):
        # row A, column X holds prod_i x_i! S(a_i, x_i): the deviation of
        # x -> x^[n] at X's word, with S the Stirling numbers of the second kind
        rows = [
            [
                prod(factorial(count(X, i)) * stirling2(count(A, i), count(X, i)) for i in range(k))
                for X in multisets_up_to(k, n)
            ]
            for A in GammaModule(k, n).basis
        ]
        assert gamma_matrix(k, n) == Matrix(rows, aug_dimension(k, n))


class TestSection:
    def test_frozen_rank_one_degree_two(self):
        eps = epsilon_matrix(1, 2)
        assert eps.rows == ((0,), (0,), (Fraction(1, 2),))

    def test_identity_on_grid(self):
        for k in (1, 2, 3, 4):
            for n in (1, 2, 3):
                assert verify_section(gamma_epsilon_pair(k, n))

    def test_doctored_section_rejected(self):
        pair = gamma_epsilon_pair(2, 2)
        bad = GammaEpsilonPair(2, 2, pair.gamma, pair.epsilon.scale(2))
        assert not verify_section(bad)

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3)])
    def test_every_single_entry_change_is_caught(self, k, n):
        # one changed entry (i, j) moves column j of gamma @ epsilon by a
        # multiple of gamma's column i, which is zero only for the empty word
        pair = gamma_epsilon_pair(k, n)
        gam, eps = pair.gamma, pair.epsilon
        for i in range(eps.nrows):
            for j in range(eps.ncols):
                rows = eps.to_lists()
                rows[i][j] += Fraction(1, 3)
                bad = GammaEpsilonPair(k, n, gam, Matrix(rows, eps.ncols))
                assert verify_section(bad) == (not any(row[i] for row in gam.rows)), (i, j)
                assert verify_section(bad) == (gam @ bad.epsilon == Matrix.identity(gam.nrows))

    def test_denominators_divide_factorial(self):
        for k, n in GRID:
            assert factorial(n) % epsilon_matrix(k, n).denominator_lcm() == 0

    @pytest.mark.parametrize(
        "k,n", [(1, 3), (2, 3), (3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (0, 2), (3, 0), (2, 1)]
    )
    def test_closed_form_against_deviation_route(self, k, n):
        # the route epsilon_matrix took before its closed form: the deviation
        # class of A's word, divided by prod(a_i!), is the basis class of A
        # divided by prod(a_i!)
        alg = AugAlgebra(k, n)
        cols = []
        for A in GammaModule(k, n).basis:
            units = [tuple(int(j == i) for j in range(k)) for i in A.indices()]
            delta = alg.class_of_deviation(units)
            assert delta == alg.basis_element(A)
            denom = 1
            for _, m in A.pairs:
                denom *= factorial(m)
            cols.append(tuple(Fraction(c, denom) for c in delta.vector))
        assert epsilon_matrix(k, n) == Matrix.from_cols(cols, alg.dimension())

    def test_pointwise_round_trip(self):
        rng = random.Random(4)
        for k, n in [(2, 2), (3, 2), (2, 3)]:
            pair = gamma_epsilon_pair(k, n)
            space = GammaModule(k, n)
            for _ in range(5):
                g = space.from_vector(
                    tuple(rng.randint(-4, 4) for _ in range(space.dimension()))
                )
                assert apply_gamma(pair, apply_epsilon(pair, g)) == g


def box_scaling_rows(rank, degree):
    """The generating set kernel_of_gamma used before the simplex: the
    classes [r z] - r^degree [z] over 0/1 vectors z and |r| <= degree + 1."""
    alg = AugAlgebra(rank, degree)
    rows = []
    for z in product((0, 1), repeat=rank):
        base = alg.class_of(z).vector
        for r in range(-(degree + 1), degree + 2):
            scaled = alg.class_of(tuple(r * c for c in z)).vector
            rows.append(tuple(a - r**degree * b for a, b in zip(scaled, base)))
    return rows


def brute_scaling_rows(rank, degree):
    """_scaling_rows as it was built before its closed form: the classes of
    2z and z from an AugAlgebra, one per z in the simplex |z| <= degree - 1."""
    alg = AugAlgebra(rank, degree)
    rows = []
    for Z in multisets_up_to(rank, degree - 1):
        z = tuple(count(Z, i) for i in range(rank))
        doubled = alg.class_of(tuple(2 * c for c in z)).vector
        base = alg.class_of(z).vector
        rows.append(tuple(a - 2**degree * b for a, b in zip(doubled, base)))
    return rows


def dense_rows(rows, dim):
    return [tuple(row.get(j, 0) for j in range(dim)) for row in rows]


def brute_kernel_report(rank, degree):
    """(match, kernel) as kernel_of_gamma read them before the rank
    certificate: the saturation of the span of the scaling classes, compared
    as a lattice with the kernel lattice of gamma."""
    kernel = kernel_lattice(gamma_matrix(rank, degree))
    dim = aug_dimension(rank, degree)
    rows = dense_rows(_scaling_rows(rank, degree).values(), dim)
    return saturation(Lattice.from_rows(dim, rows)) == kernel, kernel


def brute_kernel_index(rank, degree):
    """[Ker gamma : L] from the Smith form of L's coordinates over the
    kernel's Hermite basis."""
    rep = kernel_of_gamma(rank, degree)
    basis = rep.kernel.basis.transpose()
    coords = Matrix([solve_int(basis, row) for row in rep.generated.basis.rows], rep.kernel.rank)
    invariants = cokernel_invariants(coords)
    assert invariants.free_rank == 0
    return prod(invariants.torsion)


def eager_kernel_report(rank, degree):
    """(match, witness, index, kernel) as kernel_of_gamma read them when it
    built Ker gamma itself: the rank witness names the kernel's rank, and
    the index is the quotient of the two pivot products."""
    gam = gamma_matrix(rank, degree)
    kernel = kernel_lattice(gam)
    rows = gamma_section._scaling_rows(rank, degree)
    dim = gam.ncols
    generated = Lattice.from_rows(dim, dense_rows(rows.values(), dim))
    for z, row in zip(rows, dense_rows(rows.values(), dim)):
        if any(gam.matvec(row)):
            return False, ("escape", z), None, kernel
    if generated.rank != kernel.rank:
        return False, ("rank", generated.rank, kernel.rank), None, kernel
    pivots = lambda lat: prod(row[min(row)] for row in lat.basis.sparse_rows)
    return True, None, pivots(generated) // pivots(kernel), kernel


def report_fields(rep):
    return rep.match, rep.witness, rep.index, rep.kernel


def inject(monkeypatch, edit):
    """Route kernel_of_gamma through scaling rows changed by edit(rows, dim)."""
    real = gamma_section._scaling_rows

    def rows(rank, degree):
        out = real(rank, degree)
        edit(out, aug_dimension(rank, degree))
        return out

    monkeypatch.setattr(gamma_section, "_scaling_rows", rows)


def drop_last_row(rows, dim):
    rows.popitem()


def perturb_first_row(rows, dim):
    # gamma's last column, the class of a size-n multiset, is nonzero
    row = next(iter(rows.values()))
    row[dim - 1] = row.get(dim - 1, 0) + 1


class TestKernel:
    @pytest.mark.parametrize("k,n", VERIFY_GRID + INVARIANT_CELLS + [(9, 2), (9, 3)] + EDGES)
    def test_scaling_rows_against_class_of(self, k, n):
        rows = _scaling_rows(k, n)
        assert list(rows) == [tuple(count(Z, i) for i in range(k)) for Z in multisets_up_to(k, n - 1)]
        assert all(all(row.values()) for row in rows.values())
        assert dense_rows(rows.values(), aug_dimension(k, n)) == brute_scaling_rows(k, n)

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(5) for n in range(9)])
    def test_verdict_against_saturation(self, k, n):
        match, kernel = brute_kernel_report(k, n)
        rep = kernel_of_gamma(k, n)
        assert (rep.match, rep.kernel) == (match, kernel)
        dim = aug_dimension(k, n)
        assert rep.generated == Lattice.from_rows(dim, dense_rows(_scaling_rows(k, n).values(), dim))

    @pytest.mark.parametrize("k,n", [(k, n) for k in range(5) for n in range(9)] + [(2, 12), (4, 10)])
    def test_against_the_eager_kernel(self, k, n):
        # the rank from the dimension count is the kernel's, and the report
        # reads what the route that built the kernel first read
        gam = gamma_matrix(k, n)
        assert gam.ncols - gam.nrows == kernel_lattice(gam).rank
        assert report_fields(kernel_of_gamma(k, n)) == eager_kernel_report(k, n)

    def test_the_verdict_builds_no_kernel(self, monkeypatch):
        # every cell of the gamma-epsilon suite passes without kernel_lattice,
        # with the summary of a run that may call it
        grid = [(3, 5), (4, 4)]
        summaries: dict = {}
        cells = cli.suite_gamma_epsilon(grid, summaries)

        def refused(mat):
            raise AssertionError("kernel_lattice called")

        gamma_kernel.cache_clear()
        monkeypatch.setattr(gamma_section, "kernel_lattice", refused)
        monkeypatch.setattr(intlinalg, "kernel_lattice", refused)
        without: dict = {}
        assert cli.suite_gamma_epsilon(grid, without) == cells
        assert all(c["verdict"] == "pass" for c in cells)
        assert without == summaries
        assert gamma_kernel.cache_info().currsize == 0

    def test_one_kernel_per_cell(self):
        # two modules over the same algebra read one Ker gamma
        gamma_kernel.cache_clear()
        modules = [extract_morita_module(spec, 2) for spec in (Sym(2), Ext(2))]
        assert all(quasi_homogeneity_test(module, 2) for module in modules)
        info = gamma_kernel.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert kernel_of_gamma(4, 2).kernel is gamma_kernel(4, 2)

    @pytest.mark.parametrize(
        "k,n,index", [(2, 3, 224), (2, 4, 3010560), (3, 4, 2762200842240), (2, 5, 12844233916416)]
    )
    def test_index_pinned(self, k, n, index):
        assert kernel_of_gamma(k, n).index == index

    @pytest.mark.parametrize("k,n", GRID + EDGES + [(2, 4), (3, 4), (4, 4), (2, 5)])
    def test_index_against_smith_form(self, k, n):
        assert kernel_of_gamma(k, n).index == brute_kernel_index(k, n)

    def test_matches_scaling_classes_on_grid(self):
        for k, n in GRID:
            rep = kernel_of_gamma(k, n)
            assert rep.match, (k, n, rep)

    @pytest.mark.parametrize(
        "k,n",
        [(2, 4), (3, 4), (4, 4), (2, 5), (3, 5), (2, 6), (2, 7), (3, 6), (5, 4), (9, 2)],
    )
    def test_matches_past_degree_three(self, k, n):
        rep = kernel_of_gamma(k, n)
        assert rep.match and rep.witness is None, (k, n)
        assert rep.kernel.rank == aug_dimension(k, n - 1)

    @pytest.mark.parametrize(
        "k,n,rank", [(3, 0, 0), (0, 0, 0), (1, 1, 1), (4, 1, 1), (0, 1, 1), (0, 3, 1)]
    )
    def test_edges(self, k, n, rank):
        # degree 0, degree 1 and rank 0
        rep = kernel_of_gamma(k, n)
        assert rep.match and rep.kernel.rank == rank, (k, n)

    @pytest.mark.parametrize("k,n", [(0, 2), (1, 4), (2, 3), (2, 4), (3, 3), (3, 5), (4, 3)])
    def test_square_generating_set(self, k, n):
        # one row per point of the simplex |z| <= n - 1, each killed by gamma
        rows = _scaling_rows(k, n)
        assert len(rows) == aug_dimension(k, n - 1) == kernel_of_gamma(k, n).kernel.rank
        gam = gamma_matrix(k, n)
        for row in dense_rows(rows.values(), gam.ncols):
            assert all(v == 0 for v in gam.matvec(row))

    @pytest.mark.parametrize("k,n,enough", [(2, 4, False), (3, 5, False), (2, 3, True), (4, 3, True)])
    def test_box_rows_fall_short_past_degree_three(self, k, n, enough):
        # z in {0,1}^k is too small a set once n >= 4, whatever the range of r
        box = saturation(Lattice.from_rows(aug_dimension(k, n), box_scaling_rows(k, n)))
        assert (box == kernel_of_gamma(k, n).kernel) is enough

    def test_explicit_scaling_class_membership(self):
        alg = AugAlgebra(2, 2)
        rep = kernel_of_gamma(2, 2)
        for z in [(1, 0), (1, 1), (2, -1)]:
            for r in (-2, 2, 3):
                vec = (
                    alg.class_of(tuple(r * c for c in z))
                    - alg.class_of(z).scale(r**2)
                ).vector
                assert rep.kernel.contains(vec)

    def test_no_witness_on_a_match(self):
        assert kernel_of_gamma(2, 3).witness is None

    def test_witness_on_the_failing_cell(self, monkeypatch):
        # one scaling class fewer leaves the span a rank short of the kernel
        inject(monkeypatch, drop_last_row)
        rep = kernel_of_gamma(2, 4)
        assert not rep.match and rep.index is None
        assert rep.witness == ("rank", 9, 10)
        assert (rep.generated.rank, rep.kernel.rank) == (9, 10)
        assert report_fields(rep) == eager_kernel_report(2, 4)

    def test_witness_on_an_escaping_row(self, monkeypatch):
        # a class that gamma does not kill names its point z
        inject(monkeypatch, perturb_first_row)
        rep = kernel_of_gamma(2, 4)
        assert not rep.match and rep.index is None
        assert rep.witness == ("escape", (0, 0))
        assert report_fields(rep) == eager_kernel_report(2, 4)
        gam = gamma_matrix(2, 4)
        rows = gamma_section._scaling_rows(2, 4)
        escaping = [z for z, row in zip(rows, dense_rows(rows.values(), gam.ncols)) if any(gam.matvec(row))]
        assert escaping == [(0, 0)]

    def test_kernel_annihilated_by_gamma(self):
        for k, n in GRID:
            gam = gamma_matrix(k, n)
            for row in kernel_of_gamma(k, n).kernel.basis.rows:
                assert all(v == 0 for v in gam.matvec(row))


def brute_cokernel_report(rank, degree):
    """(injective, torsion, free rank, quotient invariants, index) as
    cokernel_of_pi_gamma read them before everything came off one Smith form:
    injectivity from the kernel lattice, the index from the image lattice's
    Hermite form, the quotient from the products sublattice."""
    stacked = stacked_pi_gamma(rank, degree)
    invariants = cokernel_invariants(stacked)
    image = Lattice.from_rows(stacked.nrows, stacked.transpose().rows)
    quotient = cokernel_invariants(products_sublattice(rank, degree).basis.transpose())
    injective = kernel_lattice(stacked).rank == 0
    return injective, invariants, quotient, lattice_index(image)


class TestCokernel:
    @pytest.mark.parametrize(
        "k,n", VERIFY_GRID + INVARIANT_CELLS + [(9, 2), (9, 3), (0, 1), (0, 3), (3, 1)]
    )
    def test_report_against_lattice_route(self, k, n):
        rep = cokernel_of_pi_gamma(k, n)
        injective, invariants, quotient, index = brute_cokernel_report(k, n)
        assert (rep.injective, rep.invariants, rep.quotient_invariants) == (
            injective, invariants, quotient
        )
        assert rep.index == index and type(rep.index) is type(index)
        assert rep.match == (injective and invariants == quotient)

    def test_non_square_stack_is_a_verification_error(self, monkeypatch):
        # the index is |det| only for a square map
        monkeypatch.setattr(
            gamma_section, "stacked_pi_gamma", lambda k, n: Matrix([[1, 0, 0], [0, 2, 0]], 3)
        )
        with pytest.raises(VerificationError, match="not square"):
            cokernel_of_pi_gamma(1, 2)

    def test_singular_square_stack_has_no_index(self, monkeypatch):
        singular = Matrix([[2, 4], [1, 2]], 2)
        monkeypatch.setattr(gamma_section, "stacked_pi_gamma", lambda k, n: singular)
        rep = cokernel_of_pi_gamma(1, 1)
        assert not rep.injective and rep.index is None and not rep.match
        assert rep.invariants.free_rank == 1

    def test_truncation_frozen(self):
        assert truncation_matrix(1, 2).rows == ((1, 0, 0), (0, 1, 0))

    @pytest.mark.parametrize("k,n", GRID + [(4, 4), (0, 1), (0, 3), (1, 1), (4, 1)])
    def test_truncation_against_the_two_bases(self, k, n):
        assert truncation_matrix(k, n) == brute_truncation_matrix(k, n)
        assert truncation_matrix(k, n).shape == (aug_dimension(k, n - 1), aug_dimension(k, n))

    def test_truncation_needs_positive_degree(self):
        with pytest.raises(ValueError):
            truncation_matrix(2, 0)

    def test_stack_is_square(self):
        for k, n in GRID:
            m = stacked_pi_gamma(k, n)
            assert m.nrows == m.ncols

    def test_frozen_rank_one_degree_two(self):
        rep = cokernel_of_pi_gamma(1, 2)
        assert rep.injective
        assert rep.invariants.torsion == (2,)
        assert rep.invariants.free_rank == 0
        assert rep.index == 2
        assert rep.match

    def test_grid_match_and_index_is_torsion_product(self):
        expected_index = {
            (1, 1): 1, (1, 2): 2, (1, 3): 6,
            (2, 1): 1, (2, 2): 4, (2, 3): 144,
            (3, 1): 1, (3, 2): 8, (3, 3): 13824,
        }
        for k, n in GRID:
            rep = cokernel_of_pi_gamma(k, n)
            assert rep.injective and rep.match, (k, n)
            assert rep.index == expected_index[k, n]
            prod = 1
            for t in rep.invariants.torsion:
                prod *= t
            assert rep.index == prod

    def test_products_quotient_rank_one_cubes(self):
        inv = products_quotient_invariants(1, 3)
        assert inv.torsion == (6,) and inv.free_rank == 0

    @pytest.mark.parametrize("k,n", GRID + INVARIANT_CELLS + [(10, 5)] + EDGES)
    def test_products_quotient_is_the_smith_form_of_the_diagonal(self, k, n):
        # the relations a! e^[A], reduced by the sparse Smith form
        basis = multisets_exactly(k, n)
        diagonal = ({j: A.factorial} for j, A in enumerate(basis))
        assert products_quotient_invariants(k, n) == relation_invariants(len(basis), diagonal)

    @pytest.mark.parametrize("k,n", [(1, 3), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3), (2, 5)])
    def test_products_closed_form_against_brute_force(self, k, n):
        brute = brute_products_sublattice(k, n)
        assert products_sublattice(k, n) == brute
        assert products_quotient_invariants(k, n) == cokernel_invariants(brute.basis.transpose())


class TestRingHoms:
    def test_scalar_side(self):
        for n in (2, 3):
            rep = ring_hom_checks(1, n, pairs=10, seed=1)
            assert rep.passed, rep.witness

    def test_matrix_side(self):
        for n in (2, 3):
            rep = ring_hom_checks(2, n, pairs=8, seed=2)
            assert rep.passed, rep.witness


class TestDecomposition:
    def test_consistent_and_kernel_part_vanishes(self):
        for k, n in [(1, 2), (2, 2), (1, 3), (2, 3)]:
            rep = image_epsilon_decomposition(k, n)
            assert rep.consistent
            assert rep.kernel_part_rank_projector == 0
            assert rep.kernel_part_rank_lattice == 0
            assert rep.image_rank == rep.gamma_side_rank


class TestQuadratic:
    def test_surjective_with_integral_section(self):
        for k in range(1, 7):
            rep = quadratic_split(k)
            assert rep.surjective
            assert rep.split_integrally
            gam = gamma_matrix(k, 2)
            assert cokernel_invariants(gam).trivial
            assert gam @ rep.integral_section == Matrix.identity(gam.nrows)
            assert rep.integral_section.is_integral

    def test_a_section_that_does_not_invert_gamma_is_refused(self, monkeypatch):
        eps, doubled = epsilon_matrix(3, 2), gamma_matrix(3, 2).scale(2)
        monkeypatch.setattr(gamma_section, "gamma_matrix", lambda rank, degree: doubled)
        monkeypatch.setattr(gamma_section, "epsilon_matrix", lambda rank, degree: eps)
        with pytest.raises(VerificationError, match="does not invert gamma"):
            quadratic_split(3)

    def test_canonical_section_is_not_integral(self):
        # the splitting exists integrally even though the canonical rational
        # section has genuine denominators
        for k in (1, 2, 4):
            assert not quadratic_split(k).epsilon_integral


def test_verification_error_is_arithmetic_error():
    assert issubclass(VerificationError, ArithmeticError)
