"""Functor catalog, degree certificates, and the two-way dictionary between
functors and modules over the truncated algebras."""
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st
import oracles
from oracles import _tensor_relation_rows, composition_tables, transpose_route_arrow

import functorlab.augmentation as augmentation
from functorlab.augmentation import AugAlgebra
from functorlab.combinatorics import Multiset, multisets_up_to
from functorlab.deviations import alternating_sum
from functorlab.divided_powers import GammaModule, gamma_of_hom, schur_product
from functorlab.functors import (
    Const,
    DirectSum,
    Div,
    Ext,
    FunctorSpec,
    MoritaModule,
    Sym,
    Tensor,
    arrow_map,
    degree_certificate,
    extend_scalars,
    extract_gamma_structure,
    extract_morita_module,
    object_dim,
    reconstruct,
    restrict_scalars,
    scaling_cross_check,
    spec_from_json,
)
import functorlab.functors as functors
from functorlab.gamma_section import VerificationError, gamma_matrix
from functorlab.intlinalg import (
    Lattice,
    Matrix,
    block_diag,
    cokernel_invariants,
    hermite_normal_form,
    rational_inverse,
    relation_hermite_form,
    relation_invariants,
    smith_normal_form,
)

CATALOG2 = [Tensor(2), Sym(2), Ext(2), Div(2)]
MIXED2 = [
    DirectSum(Const(1), Sym(2)),
    DirectSum(Sym(1), Ext(2)),
    DirectSum(Const(2), Tensor(1), Div(2)),
]
CUBIC3 = [
    Sym(3), Ext(3), Div(3), Tensor(3), Sym(2),
    DirectSum(Sym(1), Sym(3)),
    DirectSum(Const(1), Ext(2), Div(3)),
]


def flat(m: Matrix) -> tuple:
    return tuple(v for row in m.rows for v in row)


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


@lru_cache(maxsize=None)
def morita(spec):
    return extract_morita_module(spec, 2)


@lru_cache(maxsize=None)
def gamma_struct(spec, n=2):
    return extract_gamma_structure(spec, n)


def brute_tensor_arrow_map(mat: Matrix, power: int) -> Matrix:
    """Entry (jj, ii) of the power-th tensor power is prod mat[j_t, i_t] over
    lexicographic index tuples, one product per entry."""
    p, q = mat.ncols, mat.nrows
    src = tuple(product(range(p), repeat=power))
    tgt = tuple(product(range(q), repeat=power))
    rows = []
    for jj in tgt:
        row = []
        for ii in src:
            v = 1
            for jt, it in zip(jj, ii):
                v *= mat[jt, it]
                if not v:
                    break
            row.append(v)
        rows.append(row)
    return Matrix(rows, len(src))


def brute_ext_arrow(mat: Matrix, power: int) -> Matrix:
    """Entry (J, I) of the power-th exterior power is the minor of mat at
    rows J and columns I, one Bareiss determinant per entry, over
    strictly increasing index tuples."""
    dense = mat.rows
    src = tuple(combinations(range(mat.ncols), power))
    tgt = tuple(combinations(range(mat.nrows), power))
    minor = lambda jj, ii: Matrix([[dense[j][i] for i in ii] for j in jj], power).det()
    return Matrix([[minor(jj, ii) for ii in src] for jj in tgt], len(src))


def assert_canonical(mat: Matrix):
    """What the checking constructor builds from the dense read-out: the same
    shape and entries, no stored zero, ints stored as int."""
    fresh = Matrix(mat.rows, mat.ncols)
    assert mat.shape == fresh.shape
    typed = lambda m: [sorted((j, type(v), v) for j, v in r.items()) for r in m.sparse_rows]
    assert typed(mat) == typed(fresh)


small_hom = st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(
    lambda qp: st.tuples(
        st.just(qp),
        st.lists(
            st.lists(st.integers(-3, 3), min_size=qp[1], max_size=qp[1]),
            min_size=qp[0],
            max_size=qp[0],
        ),
    )
)


def brute_unit_word_deviation(spec, n: int, X: Multiset) -> Matrix:
    """The deviation of the arrow map at X's word of matrix units, as an
    alternating sum over all 2^|X| subsets of the word."""
    units = [
        Matrix([[int(divmod(u, n) == (i, j)) for j in range(n)] for i in range(n)])
        for u in X.indices()
    ]
    return alternating_sum(lambda a: arrow_map(spec, a), units, Matrix.zeros(n, n))


def brute_reconstruct(module, q: int):
    """The dense route for reconstruct: Hermite form of the densified
    balanced-product relations, then the Smith diagonal of its transpose.
    Returns (torsion, free rank)."""
    n = module.n
    products = composition_tables(q, n, n, n)
    width = len(products) * module.generators
    rows = _tensor_relation_rows(
        module.generators,
        products,
        module.action,
        module.algebra.basis,
        module.presentation,
    )
    reduced = hermite_normal_form(Matrix(rows, width)).transpose()
    s = smith_normal_form(reduced)
    diag = [s[i, i] for i in range(min(s.shape))]
    return tuple(d for d in diag if d > 1), width - sum(1 for d in diag if d)


def _interpolated_action(spec, n: int, A: Multiset) -> Matrix:
    """Oracle for the divided-power structure: the coefficient of t^a in the
    matrix polynomial arrow_map(spec, t_1 U_1 + ... + t_r U_r), U_i the
    support units of A and a its multiplicities, read off by exact
    interpolation on the integer grid {0..n}^r."""
    pts = range(n + 1)
    vinv = rational_inverse(Matrix([[Fraction(p) ** j for j in pts] for p in pts]))
    units = [
        Matrix([[int(divmod(u, n) == (i, j)) for j in range(n)] for i in range(n)])
        for u in A.support
    ]
    grid = {}
    for key in product(pts, repeat=len(units)):
        s = Matrix.zeros(n, n)
        for t, u in zip(key, units):
            s = s + u.scale(t)
        grid[key] = arrow_map(spec, s)
    gens = object_dim(spec, n)
    for axis in range(len(units)):
        new = {}
        for key in grid:
            total = Matrix.zeros(gens, gens)
            for p in pts:
                value = grid[key[:axis] + (p,) + key[axis + 1 :]]
                total = total + value.scale(vinv[key[axis], p])
            new[key] = total
        grid = new
    return grid[tuple(m for _, m in A.pairs)]


class TestSpecs:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tensor(-1)
        with pytest.raises(ValueError):
            Const(-2)
        with pytest.raises(ValueError):
            DirectSum()
        with pytest.raises(ValueError):
            DirectSum(Sym(1), "nope")

    def test_json_round_trips(self):
        specs = [
            Tensor(3),
            Sym(0),
            Ext(2),
            Div(1),
            Const(4),
            DirectSum(Const(1), DirectSum(Sym(2), Ext(1))),
        ]
        for s in specs:
            assert spec_from_json(s.to_json()) == s
        with pytest.raises(ValueError):
            spec_from_json({"spam": 2})
        with pytest.raises(ValueError):
            spec_from_json({"sym": 1, "ext": 2})

    @pytest.mark.parametrize("power", [True, False, "2", 2.0, None, -1])
    def test_json_powers_must_be_integers(self, power):
        with pytest.raises(ValueError):
            spec_from_json({"sym": power})
        with pytest.raises(ValueError):
            spec_from_json({"sum": [{"const": power}]})

    def test_labels(self):
        assert Tensor(2).label() == "tensor^2"
        assert Const(1).label() == "const(1)"
        assert DirectSum(Sym(1), Ext(2)).label() == "(sym^1 + ext^2)"

    def test_natural_degree(self):
        assert Div(3).degree() == 3
        assert Const(5).degree() == 0
        assert DirectSum(Sym(1), Ext(2)).degree() == 2

    def test_object_dims(self):
        assert object_dim(Tensor(2), 3) == 9
        assert object_dim(Sym(2), 3) == 6
        assert object_dim(Ext(2), 3) == 3
        assert object_dim(Div(2), 3) == 6
        assert object_dim(Ext(3), 2) == 0
        assert object_dim(Const(4), 7) == 4
        assert object_dim(DirectSum(Const(1), Sym(2)), 2) == 4
        with pytest.raises(ValueError):
            object_dim(Sym(2), -1)


class TestArrowMap:
    def test_frozen_values(self):
        m = Matrix([[1, 2], [3, 4]])
        assert arrow_map(Sym(2), m).rows == ((1, 2, 4), (6, 10, 16), (9, 12, 16))
        assert arrow_map(Div(2), m).rows == ((1, 4, 4), (3, 10, 8), (9, 24, 16))
        assert arrow_map(Ext(2), m).rows == ((-2,),)
        assert arrow_map(Tensor(2), Matrix([[3]])).rows == ((9,),)
        assert arrow_map(Const(3), m) == Matrix.identity(3)

    def test_rejects_fractions(self):
        with pytest.raises(ValueError):
            arrow_map(Sym(2), Matrix([[Fraction(1, 2)]]))

    def test_identity_to_identity(self):
        for spec in CATALOG2 + [Ext(1), Div(3), DirectSum(Const(2), Sym(2))]:
            for q in (1, 2, 3):
                dim = object_dim(spec, q)
                assert arrow_map(spec, Matrix.identity(q)) == Matrix.identity(dim)

    def test_functorial_including_rectangles(self):
        rng = random.Random(13)
        specs = CATALOG2 + [Tensor(1), Ext(1), Sym(3), DirectSum(Const(1), Ext(2))]
        for spec in specs:
            for p, q, s in [(2, 2, 2), (2, 3, 2), (3, 2, 3), (1, 2, 2)]:
                a = rand_matrix(rng, q, p, -2, 2)
                b = rand_matrix(rng, p, s, -2, 2)
                assert arrow_map(spec, a @ b) == arrow_map(spec, a) @ arrow_map(spec, b)

    def test_direct_sum_is_block_diagonal(self):
        rng = random.Random(14)
        parts = (Sym(2), Ext(1), Const(2))
        m = rand_matrix(rng, 2, 2)
        assert arrow_map(DirectSum(*parts), m) == block_diag(
            *(arrow_map(p, m) for p in parts)
        )

    @pytest.mark.parametrize("power", [1, 2, 3, 4])
    def test_tensor_matches_entrywise_products(self, power):
        rng = random.Random(100 + power)
        for q, p in [(1, 1), (2, 2), (3, 2), (2, 3), (1, 3), (3, 3), (0, 2), (2, 0)]:
            if max(p, q) ** power > 81:
                continue
            for lo in (-1, -3):
                a = rand_matrix(rng, q, p, lo, -lo) if q else Matrix((), p)
                assert arrow_map(Tensor(power), a) == brute_tensor_arrow_map(a, power)

    @settings(max_examples=150, deadline=None)
    @given(small_hom, st.integers(0, 4))
    def test_exterior_powers_are_the_minors(self, case, power):
        # power may pass min(q, p): then the map or its source is zero
        (q, p), rows = case
        alpha = Matrix(rows, p)
        got = arrow_map(Ext(power), alpha)
        assert got == brute_ext_arrow(alpha, power)
        assert got.shape == (object_dim(Ext(power), q), object_dim(Ext(power), p))
        assert_canonical(got)

    @settings(max_examples=100, deadline=None)
    @given(small_hom, st.integers(0, 3))
    def test_symmetric_powers_are_dual_divided_powers(self, case, power):
        (q, p), rows = case
        alpha = Matrix(rows, p)
        got = arrow_map(Sym(power), alpha)
        assert got == gamma_of_hom(alpha.transpose(), power).transpose()
        assert got.shape == (object_dim(Sym(power), q), object_dim(Sym(power), p))
        assert_canonical(got)

    @pytest.mark.parametrize("power", range(5))
    def test_arrows_match_the_transpose_route(self, power):
        rng = random.Random(200 + power)
        for q, p in [(0, 0), (0, 3), (3, 0), (1, 4), (4, 1), (2, 3), (3, 2), (4, 4)]:
            for _ in range(3):
                rows = [[rng.randint(-3, 3) for _ in range(p)] for _ in range(q)]
                if q and p:  # one zero row and one zero column
                    rows[rng.randrange(q)] = [0] * p
                    zero = rng.randrange(p)
                    rows = [[v if j != zero else 0 for j, v in enumerate(r)] for r in rows]
                alpha = Matrix(rows, p)
                for spec in (Sym(power), Div(power), Ext(power)):
                    got = arrow_map(spec, alpha)
                    assert got == transpose_route_arrow(spec, alpha), (spec, q, p)
                    assert got.shape == (object_dim(spec, q), object_dim(spec, p))

    def test_catalog_arrows_are_canonical(self):
        rng = random.Random(15)
        specs = CATALOG2 + [Tensor(3), Const(2), DirectSum(Const(1), Ext(2), Sym(3))]
        for spec in specs:
            for q, p in [(0, 2), (2, 0), (2, 3), (3, 3)]:
                assert_canonical(arrow_map(spec, rand_matrix(rng, q, p) if q else Matrix((), p)))

    def test_zeroth_powers_are_constant_one(self):
        m = Matrix([[5, 1], [0, 2]])
        for spec in (Tensor(0), Sym(0), Ext(0), Div(0)):
            assert arrow_map(spec, m).rows == ((1,),)


class TestDegreeCertificates:
    def test_catalog_passes_at_its_power(self):
        for maker in (Tensor, Sym, Ext, Div):
            for n in (1, 2, 3):
                rep = degree_certificate(maker(n), n)
                assert rep.passed, (maker, n, rep.witness)

    def test_catalog_fails_one_below(self):
        for maker in (Tensor, Sym, Ext, Div):
            for n in (1, 2, 3):
                rep = degree_certificate(maker(n), n - 1)
                assert not rep.passed, (maker, n)
                assert rep.witness is not None

    def test_constants_have_degree_zero(self):
        assert degree_certificate(Const(1), 0).passed
        assert degree_certificate(Const(3), 0).passed

    def test_mixed_sum_bounded_by_top_part(self):
        spec = DirectSum(Ext(0), Ext(1), Ext(2))
        assert degree_certificate(spec, 2).passed
        assert not degree_certificate(spec, 1).passed

    def test_scaling_window_laws(self):
        for spec in CATALOG2:
            assert scaling_cross_check(spec, 2, Matrix.identity(2)).passed
        assert not scaling_cross_check(Sym(2), 1, Matrix.identity(1)).passed


class TestCertificateMemo:
    """degree_certificate is memoized per (spec, n, seed), in
    functors._certificate, however seed is passed."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        functors._certificate.cache_clear()
        yield
        functors._certificate.cache_clear()

    def test_repeated_call_returns_the_same_report(self):
        first = degree_certificate(Sym(2), 2, seed=4)
        assert degree_certificate(Sym(2), 2, seed=4) is first
        info = functors._certificate.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_memo_equals_a_fresh_run(self):
        fresh = functors._certificate.__wrapped__
        for spec in CATALOG2 + [Sym(3), DirectSum(Const(1), Sym(2))]:
            for n in (1, 2):
                assert degree_certificate(spec, n, seed=2) == fresh(spec, n, 2)

    def test_each_key_has_its_own_entry(self):
        calls = [
            (Sym(2), 2, 0),
            (Div(2), 2, 0),
            (Tensor(2), 2, 0),
            (Sym(2), 1, 0),
            (Sym(2), 2, 1),
        ]
        reports = [degree_certificate(spec, n, seed=seed) for spec, n, seed in calls]
        assert functors._certificate.cache_info().currsize == len(calls)
        assert functors._certificate.cache_info().hits == 0
        assert [r.passed for r in reports] == [True, True, True, False, True]

    def test_raising_call_is_not_cached(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="nonnegative"):
                degree_certificate(Sym(2), -1)
        info = functors._certificate.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 2, 0)

    def test_extraction_reuses_the_certificate(self):
        degree_certificate(Sym(2), 2, seed=3)
        extract_morita_module(Sym(2), 2, seed=3)
        info = functors._certificate.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_a_positional_call_shares_the_entry(self):
        # extraction passes seed by keyword, the caller here by default
        degree_certificate(Tensor(2), 2)
        extract_morita_module(Tensor(2), 2)
        info = functors._certificate.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_failed_certificate_raises_on_every_extraction(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="fails the degree-2 certificate"):
                extract_morita_module(Sym(3), 2, seed=1)
        info = functors._certificate.cache_info()
        assert (info.hits, info.misses) == (2, 1)


@dataclass(frozen=True)
class BlockDiagonal(FunctorSpec):
    """A direct sum as one black box: its arrow is the block diagonal of the
    parts' arrows, so its certificate and table never go through the parts'."""

    parts: tuple

    def dim(self, q: int) -> int:
        return sum(p.dim(q) for p in self.parts)

    def arrow(self, mat: Matrix) -> Matrix:
        return block_diag(*(p.arrow(mat) for p in self.parts))


@dataclass(frozen=True)
class OffDiagonalQuartic(FunctorSpec):
    """Not a functor: the 1 x 1 arrow holds the sum of the fourth powers of
    the off-diagonal entries.  It is 0 at every r * I, so the scaling law
    holds at every degree, and only a sampled deviation fails below 4."""

    def label(self) -> str:
        return "offdiag^4"

    def dim(self, q: int) -> int:
        return 1

    def arrow(self, mat: Matrix) -> Matrix:
        rows = mat.sparse_rows
        return Matrix([[sum(v**4 for i, r in enumerate(rows) for j, v in r.items() if i != j)]])


SUMS = [
    (Const(1), Sym(2)),
    (Const(0), Const(2), Ext(1)),
    (DirectSum(Sym(1), Const(1)), DirectSum(Ext(2), Div(1))),
    (Sym(2), Sym(3)),  # ("A", r) below degree 3
    (Sym(1), OffDiagonalQuartic()),  # ("deviation", ...) below degree 4
    (OffDiagonalQuartic(), Sym(3)),  # both: the scaling step comes first
    (Ext(4), Sym(1)),  # Ext^4 vanishes on every rank sampled at n <= 2
]


class TestDirectSumsByParts:
    """A direct sum is certified and tabulated from its parts; the black-box
    route through the block-diagonal arrow must give the same results."""

    @pytest.mark.parametrize("parts", SUMS, ids=lambda parts: DirectSum(*parts).label())
    def test_certificate_equals_the_black_box_route(self, parts):
        fresh = functors._certificate.__wrapped__
        for n in range(4):
            for seed in (0, 1, 9):
                got = degree_certificate(DirectSum(*parts), n, seed)
                assert got == fresh(BlockDiagonal(parts), n, seed), (n, seed)

    def test_the_grid_meets_every_outcome(self):
        reports = [degree_certificate(DirectSum(*parts), n) for parts in SUMS for n in range(4)]
        kinds = {r.witness[0] if r.witness else None for r in reports}
        assert kinds == {None, "A", "deviation"}
        assert degree_certificate(DirectSum(Ext(4), Sym(1)), 2).passed

    @pytest.mark.parametrize("parts", SUMS, ids=lambda parts: DirectSum(*parts).label())
    def test_table_equals_the_black_box_route(self, parts):
        for n in range(4):
            got = functors._difference_table(DirectSum(*parts), n)
            assert got == functors._difference_table.__wrapped__(BlockDiagonal(parts), n), n

    def test_a_failing_scaling_law_samples_no_part(self):
        functors._certificate.cache_clear()
        assert degree_certificate(DirectSum(Tensor(2), Sym(3)), 2).witness[0] == "A"
        assert functors._certificate.cache_info().currsize == 1

    def test_cached_part_evaluates_no_arrow(self, monkeypatch):
        functors._certificate.cache_clear()
        functors._difference_table.cache_clear()
        degree_certificate(Sym(2), 2, seed=6)
        functors._difference_table(Sym(2), 2)
        calls = Counter()
        for kind in (Sym, Const):

            def counted(self, mat, real=kind.arrow):
                calls[type(self)] += 1
                return real(self, mat)

            monkeypatch.setattr(kind, "arrow", counted)
        extract_morita_module(DirectSum(Const(1), Sym(2)), 2, seed=6)
        assert calls[Sym] == 0 and calls[Const] > 0


class TestModuleExtraction:
    def test_certificate_gate(self):
        with pytest.raises(ValueError):
            extract_morita_module(Sym(2), 1)

    def test_action_realizes_arrow_map(self):
        rng = random.Random(15)
        for spec in CATALOG2:
            mod = morita(spec)
            for _ in range(5):
                sigma = rand_matrix(rng, 2, 2)
                cls = mod.algebra.class_of(flat(sigma))
                assert mod.act(cls) == arrow_map(spec, sigma)

    @pytest.mark.parametrize("spec", CATALOG2 + [DirectSum(Const(1), Sym(2))], ids=lambda spec: spec.label())
    def test_action_is_the_unit_word_deviation(self, spec):
        module = morita(spec)
        for X in module.algebra.basis:
            assert module.action[X] == brute_unit_word_deviation(spec, 2, X), X

    def test_cubic_action_is_the_unit_word_deviation(self):
        deviations = extract_morita_module(Sym(3), 3).action
        for X in random.Random(5).sample(sorted(deviations, key=str), 40):
            assert deviations[X] == brute_unit_word_deviation(Sym(3), 3, X), X

    @pytest.mark.parametrize(
        "spec, n",
        [(kind(n), n) for n in range(4) for kind in (Tensor, Sym, Ext, Div)]
        + [(Const(2), n) for n in range(4)]
        + [(DirectSum(Sym(1), Sym(3)), 3), (DirectSum(Const(1), Ext(2), Div(3)), 3), (Ext(4), 4)],
        ids=lambda x: x.label() if isinstance(x, FunctorSpec) else str(x),
    )
    def test_difference_table_is_the_unit_word_deviation(self, spec, n):
        # n = 0 has no units: the table is the arrow at the empty matrix
        table = functors._difference_table(spec, n)
        basis = multisets_up_to(n * n, n)
        assert len(table) == len(basis)
        for X, dev in zip(basis, table):
            assert dev == brute_unit_word_deviation(spec, n, X), X

    @pytest.mark.parametrize(
        "spec, n",
        [(Sym(2), 2), (Div(3), 3)],
        ids=lambda x: x.label() if isinstance(x, FunctorSpec) else str(x),
    )
    def test_extractions_share_one_arrow_per_multiplicity_matrix(self, spec, n, monkeypatch):
        degree_certificate(spec, n)  # the certificate's sampled arrows are not counted
        functors._difference_table.cache_clear()
        calls = Counter()
        real = functors.arrow_map

        def counted(functor, alpha):
            calls[alpha] += 1
            return real(functor, alpha)

        monkeypatch.setattr(functors, "arrow_map", counted)
        extract_morita_module(spec, n)
        extract_gamma_structure(spec, n)
        simplex = {
            Matrix([[dict(X.pairs).get(i * n + j, 0) for j in range(n)] for i in range(n)])
            for X in multisets_up_to(n * n, n)
        }
        assert {a: c for a, c in calls.items() if a in simplex} == dict.fromkeys(simplex, 1)
        # the homogeneity check's scaled identities are the only other arrows
        assert set(calls) - simplex == {Matrix.identity(n).scale(r) for r in (2, 3)}

    def test_top_exterior_acts_by_determinant(self):
        rng = random.Random(16)
        mod = morita(Ext(2))
        for _ in range(8):
            sigma = rand_matrix(rng, 2, 2)
            assert mod.act(mod.algebra.class_of(flat(sigma))) == Matrix([[sigma.det()]])

    def test_multiplicative_on_basis_pairs(self):
        for spec in CATALOG2:
            assert morita(spec).check_multiplicativity(pairs=12, seed=3)

    def test_multiplicativity_walks_one_entry_per_pair(self, monkeypatch):
        # at n = 4 the whole composition table would take half a minute: the
        # check walks only the entries of its pairs, on a fresh cache here
        walks = []
        missing = augmentation._EntryRow.__missing__

        def counted(row, j):
            walks.append(j)
            return missing(row, j)

        fresh = lru_cache(maxsize=None)(augmentation.composition_entries.__wrapped__)
        monkeypatch.setattr(augmentation, "composition_entries", fresh)
        monkeypatch.setattr(augmentation._EntryRow, "__missing__", counted)
        assert extract_morita_module(Sym(2), 4).check_multiplicativity(pairs=10)
        assert 1 <= len(walks) <= 10

    def test_wrong_algebra_rejected(self):
        mod = morita(Ext(2))
        other = AugAlgebra(4, 1)
        with pytest.raises(ValueError):
            mod.act(other.one())
        with pytest.raises(ValueError):
            mod.act(GammaModule(4, 2).divided_power(flat(Matrix.identity(2))))

    def test_identity_check_catches_tampering(self):
        mod = morita(Ext(2))
        bad = dict(mod.action)
        bad[Multiset.from_indices((0, 3))] = Matrix([[5]])
        with pytest.raises(VerificationError):
            MoritaModule(2, mod.algebra, mod.presentation, bad)

    def test_descent_check_catches_an_action_off_the_relations(self):
        # the relation kills e_0, but every class sends e_0 to e_1
        alg = AugAlgebra(4, 2)
        action = {X: Matrix([[0, 0], [1, 0]]) for X in alg.basis}
        with pytest.raises(VerificationError, match="does not preserve the relations"):
            MoritaModule(2, alg, Matrix([[1], [0]]), action)

    def test_action_must_cover_basis(self):
        mod = morita(Ext(2))
        partial = dict(mod.action)
        partial.pop(Multiset())
        with pytest.raises(ValueError):
            MoritaModule(2, mod.algebra, mod.presentation, partial)

    def test_group_invariants_free_of_object_rank(self):
        for spec in CATALOG2:
            inv = morita(spec).group_invariants()
            assert inv.free_rank == object_dim(spec, 2)
            assert inv.torsion == ()


def zero_module() -> MoritaModule:
    alg = AugAlgebra(4, 2)
    action = {X: Matrix.zeros(1, 1) for X in alg.basis}
    return MoritaModule(2, alg, Matrix.identity(1), action)


class TestReconstruction:
    def test_catalog_round_trip_small_ranks(self):
        for spec in CATALOG2:
            for q in (1, 2):
                inv = reconstruct(morita(spec), q)
                assert inv.free_rank == object_dim(spec, q), (spec, q, inv)
                assert inv.torsion == ()

    def test_exterior_square_rank_three(self):
        inv = reconstruct(morita(Ext(2)), 3)
        assert inv.free_rank == 3 and inv.torsion == ()

    def test_rank_zero_collapses(self):
        inv = reconstruct(morita(Sym(2)), 0)
        assert inv.free_rank == 0 and inv.torsion == ()

    def test_zero_module_reconstructs_to_zero(self):
        for q in (1, 2):
            inv = reconstruct(zero_module(), q)
            assert inv.free_rank == 0 and inv.torsion == ()

    @pytest.mark.parametrize("spec", CATALOG2 + MIXED2, ids=lambda spec: spec.label())
    def test_matches_dense_route(self, spec):
        module = morita(spec)
        for q in range(7):
            inv = reconstruct(module, q)
            assert (inv.torsion, inv.free_rank) == brute_reconstruct(module, q), q
            assert inv.free_rank == object_dim(spec, q) and inv.torsion == ()

    @pytest.mark.parametrize(
        "spec,n",
        [(spec, 3) for spec in CUBIC3]
        + [(Sym(1), 1), (Tensor(1), 1), (Const(2), 1), (Const(2), 0), (Sym(2), 2)],
        ids=lambda x: x.label() if isinstance(x, FunctorSpec) else str(x),
    )
    def test_matches_dense_route_at_other_degrees(self, spec, n):
        module = extract_morita_module(spec, n)
        for q in range(4):
            inv = reconstruct(module, q)
            assert (inv.torsion, inv.free_rank) == brute_reconstruct(module, q), q
            assert inv.free_rank == object_dim(spec, q) and inv.torsion == ()

    @pytest.mark.parametrize("k", [2, 4, 6, 12])
    def test_torsion_presentations_match_dense_route(self, k):
        # Sym^2 with every generator of order k: Z/k in each of dim Sym^2(Z^q)
        # places, so the chain of cross effects is put back together
        base = morita(Sym(2))
        module = MoritaModule(2, base.algebra, Matrix.identity(3).scale(k), base.action)
        for q in range(4):
            inv = reconstruct(module, q)
            assert (inv.torsion, inv.free_rank) == brute_reconstruct(module, q), q
            assert inv.torsion == (k,) * object_dim(Sym(2), q) and inv.free_rank == 0

    @pytest.mark.parametrize("spec", CATALOG2, ids=lambda spec: spec.label())
    def test_scalar_round_trip_matches_dense_route(self, spec):
        # restrict(extend(M)) carries the Hermite presentation of the extension
        module = restrict_scalars(extend_scalars(morita(spec)))
        for q in range(4):
            inv = reconstruct(module, q)
            assert (inv.torsion, inv.free_rank) == brute_reconstruct(module, q), q

    def test_coprime_torsion_is_one_chain(self):
        # Z/2 + (Z/3)^q from const(1) mod 2 and the identity functor mod 3:
        # cr_0 = Z/2 and cr_1 = Z/3 merge into one chain, (6,) at q = 1 and
        # (3, 6) at q = 2
        base = extract_morita_module(DirectSum(Const(1), Sym(1)), 2)
        presentation = Matrix([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
        module = MoritaModule(2, base.algebra, presentation, base.action)
        for q, torsion in [(0, (2,)), (1, (6,)), (2, (3, 6))]:
            inv = reconstruct(module, q)
            assert (inv.torsion, inv.free_rank) == brute_reconstruct(module, q) == (torsion, 0)

    def test_non_idempotent_cross_effect_is_refused(self):
        # the unit [I] acts as A_0 + A_{E11} + A_{E22} + A_{E11,E22} = 0 + 2 - 1 + 0,
        # the identity, so construction passes; d_0 = 0 is idempotent, d_1 = 2 is not
        alg = AugAlgebra(4, 2)
        action = {X: Matrix.zeros(1, 1) for X in alg.basis}
        action[Multiset.from_indices((0,))] = Matrix([[2]])
        action[Multiset.from_indices((3,))] = Matrix([[-1]])
        module = MoritaModule(2, alg, Matrix.zeros(1, 0), action)
        assert reconstruct(module, 0) == reconstruct(zero_module(), 0)
        with pytest.raises(VerificationError, match="d_1 "):
            reconstruct(module, 1)

    def test_reads_no_table_and_no_relations(self, monkeypatch):
        # the cost does not grow with q: no composition table, no relation rows
        def refuse(*args):
            raise AssertionError("reconstruct built a balanced product")

        module = morita(Sym(2))
        monkeypatch.setattr(augmentation, "composition_entries", refuse)
        monkeypatch.setattr(functors, "composition_entries", refuse)
        monkeypatch.setattr(functors, "relation_hermite_form", refuse)
        monkeypatch.setattr(oracles, "_tensor_relation_rows", refuse)
        inv = reconstruct(module, 10**30)
        assert inv.free_rank == object_dim(Sym(2), 10**30) and inv.torsion == ()


class TestDividedStructure:
    def test_homogeneity_gate(self):
        with pytest.raises(ValueError):
            extract_gamma_structure(Const(1), 2)
        with pytest.raises(ValueError):
            extract_gamma_structure(DirectSum(Const(1), Sym(2)), 2)

    def test_action_realizes_arrow_map_via_divided_powers(self):
        rng = random.Random(17)
        space = GammaModule(4, 2)
        for spec in CATALOG2:
            struct = gamma_struct(spec)
            for _ in range(5):
                sigma = rand_matrix(rng, 2, 2)
                assert struct.act(space.divided_power(flat(sigma))) == arrow_map(
                    spec, sigma
                )

    def test_multiplicative_on_basis_pairs(self):
        for spec in CATALOG2:
            assert gamma_struct(spec).check_multiplicativity(pairs=12, seed=4)

    def test_wrong_space_rejected(self):
        with pytest.raises(ValueError):
            gamma_struct(Sym(2)).act(GammaModule(4, 1).zero())
        with pytest.raises(ValueError):
            gamma_struct(Sym(2)).act(AugAlgebra(4, 2).one())

    @pytest.mark.parametrize("spec", CATALOG2)
    def test_closed_form_matches_interpolation(self, spec):
        struct = gamma_struct(spec)
        for A in struct.algebra.basis:
            assert struct.action[A] == _interpolated_action(spec, 2, A), A

    def test_cubic_closed_form_matches_interpolation(self):
        struct = gamma_struct(Sym(3), 3)
        classes = [A for A in struct.algebra.basis if len(A.pairs) <= 2]
        assert len(classes) == 81
        for A in classes:
            assert struct.action[A] == _interpolated_action(Sym(3), 3, A), A

    def test_indivisible_deviation_is_rejected(self, monkeypatch):
        # a deviation at a repeated unit that a! does not divide cannot come
        # from a homogeneous functor
        real = functors._difference_table
        monkeypatch.setattr(
            functors,
            "_difference_table",
            lambda spec, n: tuple(
                dev + Matrix.identity(object_dim(spec, n)) for dev in real(spec, n)
            ),
        )
        with pytest.raises(VerificationError, match="not divisible"):
            extract_gamma_structure(Sym(2), 2)

    def test_distinct_units_reuse_the_table(self):
        # a! = 1 leaves the deviation as it is; the others are divided
        table = functors._difference_table(Sym(3), 3)
        struct = extract_gamma_structure(Sym(3), 3)
        tail = table[len(table) - len(struct.algebra.basis) :]
        for A, dev in zip(struct.algebra.basis, tail):
            assert (struct.action[A] is dev) == (A.factorial == 1), A

    def test_cubic_extraction(self):
        rng = random.Random(18)
        struct = gamma_struct(Sym(3), 3)
        space = GammaModule(9, 3)
        for _ in range(3):
            sigma = rand_matrix(rng, 3, 3, -2, 2)
            assert struct.act(space.divided_power(flat(sigma))) == arrow_map(
                Sym(3), sigma
            )


@lru_cache(maxsize=None)
def schur_product_tables(n: int):
    """Schur products on Gamma^n of n x n matrices through schur_product, the
    tensor-embedding route, one product per entry: (products, left), where
    products[ai][xi] lists the nonzero (index, coefficient) pairs of basis
    class A times the divided power image of the xi-th augmentation basis
    class, and left[di][ai] those of D times A (functors._schur_tables)."""
    space = GammaModule(n * n, n)
    basis = [space.basis_element(A) for A in space.basis]
    images = [space.from_vector(col) for col in gamma_matrix(n * n, n).transpose().rows]
    products = tuple(tuple(tuple(schur_product(a, img).nonzero()) for img in images) for a in basis)
    left = tuple(tuple(tuple(schur_product(d, a).nonzero()) for a in basis) for d in basis)
    return products, left


def brute_extend_scalars(module):
    """The per-class route for extend_scalars: the balanced relations of every
    basis class of B, whose divided power image acts on the right, and the
    left action, both read off schur_product_tables.  Returns (presentation,
    action)."""
    n, gens = module.n, module.generators
    products, left = schur_product_tables(n)
    width = len(products) * gens
    rows = _tensor_relation_rows(
        gens, products, module.action, module.algebra.basis, module.presentation
    )
    presentation = relation_hermite_form(width, rows).transpose()
    action = {}
    for D, left_d in zip(GammaModule(n * n, n).basis, left):
        entries: list[dict] = [{} for _ in range(width)]
        for ai, pairs in enumerate(left_d):
            for ci, v in pairs:
                for g in range(gens):
                    entries[ci * gens + g][ai * gens + g] = v
        action[D] = Matrix(entries, width)
    return presentation, action


def _left_mul(left, u: dict, v: dict) -> dict:
    """Product of two sparse elements {index: coefficient} through the table."""
    out: dict = {}
    for i, c in u.items():
        for j, d in v.items():
            for t, w in left[i][j]:
                out[t] = out.get(t, 0) + c * d * w
    return {t: c for t, c in out.items() if c}


class TestGreensRule:
    """functors._schur_tables (Green's product rule) against schur_product."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_tables_equal_the_tensor_route(self, n):
        assert functors._schur_tables(n) == schur_product_tables(n)[1]

    def test_cubic_entries_on_sampled_pairs(self):
        left = functors._schur_tables(3)
        space = GammaModule(9, 3)
        basis = [space.basis_element(A) for A in space.basis]
        rng = random.Random(27)
        nonzero = [(i, j) for i, row in enumerate(left) for j, e in enumerate(row) if e]
        pairs = rng.sample(nonzero, 20) + [
            (rng.randrange(len(left)), rng.randrange(len(basis))) for _ in range(20)
        ]
        for i, j in pairs:
            assert left[i][j] == tuple(schur_product(basis[i], basis[j]).nonzero()), (i, j)

    def test_cubic_closed_form_has_unit_and_associates(self):
        left = functors._schur_tables(3)
        space = GammaModule(9, 3)
        one = dict(space.divided_power(flat(Matrix.identity(3))).nonzero())
        for i in range(len(left)):
            assert _left_mul(left, one, {i: 1}) == {i: 1} == _left_mul(left, {i: 1}, one)
        rng = random.Random(28)
        for _ in range(4):
            u, v, w = (
                {rng.randrange(len(left)): rng.randint(1, 3) for _ in range(20)} for _ in range(3)
            )
            uv_w = _left_mul(left, _left_mul(left, u, v), w)
            assert uv_w == _left_mul(left, u, _left_mul(left, v, w))


class TestScalarChange:
    def test_restriction_equals_direct_extraction(self):
        for spec in CATALOG2:
            direct = morita(spec)
            restricted = restrict_scalars(gamma_struct(spec))
            assert restricted.presentation == direct.presentation
            assert restricted.action == direct.action

    def test_extension_recovers_divided_invariants(self):
        for spec in CATALOG2:
            extended = extend_scalars(morita(spec))
            assert extended.group_invariants() == gamma_struct(spec).group_invariants()

    def test_round_trip_preserves_invariants(self):
        for spec in (Sym(2), Ext(2)):
            mod = morita(spec)
            back = restrict_scalars(extend_scalars(mod))
            assert back.group_invariants() == mod.group_invariants()

    def test_extension_of_zero_module_is_trivial(self):
        inv = extend_scalars(zero_module()).group_invariants()
        assert inv.free_rank == 0 and inv.torsion == ()

    @pytest.mark.parametrize(
        "make",
        [
            *(pytest.param(lambda s=s: morita(s), id=s.label()) for s in CATALOG2),
            pytest.param(lambda: morita(DirectSum(Const(1), Sym(2))), id="const1+sym2"),
            pytest.param(zero_module, id="zero"),
            pytest.param(
                lambda: MoritaModule(
                    2, morita(Sym(2)).algebra, Matrix.identity(3).scale(6), morita(Sym(2)).action
                ),
                id="sym2-mod-6",
            ),
            *(
                pytest.param(lambda s=s, n=n: extract_morita_module(s, n), id=f"{s.label()}-n{n}")
                for s, n in [
                    (Const(2), 0), (Sym(1), 1), (DirectSum(Const(1), Sym(1)), 1),
                    (Sym(3), 3), (Ext(3), 3), (Div(3), 3),
                ]
            ),
        ],
    )
    def test_extension_equals_the_per_class_route(self, make):
        module = make()
        extended = extend_scalars(module)
        presentation, action = brute_extend_scalars(module)
        assert extended.presentation == presentation
        assert extended.action == action

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_generator_classes_generate_the_algebra(self, n):
        # close span{[I]} under left composition by the generator classes: it
        # reaches B(n^2, n) itself, whose Hermite basis is the identity
        alg = AugAlgebra(n * n, n)
        classes = [cls for cls, _ in functors._monoid_generators(n)]
        span = Lattice.from_rows(alg.dimension(), [alg.class_of(flat(Matrix.identity(n))).vector])
        for _ in range(10):
            elems = [alg.from_vector(row) for row in span.basis.rows]
            grown = [alg.product_mul(g, e).vector for g in classes for e in elems]
            span, old = Lattice.from_rows(alg.dimension(), span.basis.rows + tuple(grown)), span
            if span == old:
                break
        assert span.basis == Matrix.identity(alg.dimension())

    def test_at_most_n_plus_four_generators(self):
        assert [len(functors._monoid_generators(n)) for n in range(5)] == [0, 2, 5, 7, 8]

    def test_div3_torsion_through_both_routes(self, monkeypatch):
        """Gamma^3 (x)_B M(div^3) = Z^10 + (Z/2)^9 through the generator
        relations, whose right actions come from gamma_of_hom with no Schur
        product and no composition table read (once the left table is
        cached), and through the per-class relations over schur_product: the
        torsion is not a defect of a Schur-product table."""
        module = extract_morita_module(Div(3), 3)
        functors._schur_tables(3)

        def refuse(*args):
            raise AssertionError("read a Schur-product table")

        with monkeypatch.context() as patch:
            patch.setattr(augmentation, "composition_entries", refuse)
            patch.setattr(functors, "composition_entries", refuse)
            patch.setattr(functors, "schur_product", refuse)
            extended = extend_scalars(module).group_invariants()
        brute = cokernel_invariants(brute_extend_scalars(module)[0])
        assert extended == brute
        assert (extended.torsion, extended.free_rank) == ((2,) * 9, 10)

    def test_cubic_extension_presentation_of_sym3(self):
        """The presentation extend_scalars builds for sym^3 at n = 3, on its
        own: the Hermite form of the per-class balanced-product relations of
        the oracle (77,295 relations on 1,650 generators) has rank 1,640, and
        its cokernel is Z^10 = Sym^3(Z^3), also when read off the relations by
        unit-pivot substitution."""
        module = extract_morita_module(Sym(3), 3)
        products, _ = schur_product_tables(3)
        rows = _tensor_relation_rows(
            module.generators,
            products,
            module.action,
            module.algebra.basis,
            module.presentation,
        )
        width = len(products) * module.generators
        assert (len(rows), width) == (77295, 1650)
        hermite = relation_hermite_form(width, rows)
        assert hermite.shape == (1640, 1650)
        inv = relation_invariants(width, hermite.sparse_rows)
        assert (inv.torsion, inv.free_rank) == ((), object_dim(Sym(3), 3)) == ((), 10)
        assert relation_invariants(width, rows) == inv

    def test_cubic_round_trip_of_sym3(self):
        """extend_scalars at n = 3 with its 165 sparse 1,650 x 1,650 actions,
        each checked against the relations by one product, then back by
        restrict_scalars: both sides present Sym^3(Z^3) = Z^10."""
        module = extract_morita_module(Sym(3), 3)
        extended = extend_scalars(module)
        assert extended.presentation.shape == (1650, 1640)
        assert len(extended.action) == 165
        assert extended.group_invariants() == extract_gamma_structure(Sym(3), 3).group_invariants()
        inv = restrict_scalars(extended).group_invariants()
        assert inv == module.group_invariants()
        assert (inv.torsion, inv.free_rank) == ((), 10)
