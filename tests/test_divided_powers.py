"""Divided power modules, the induced matrix on multiset bases, the tensor
orbit-sum embedding, and the composition product built on it."""
import random
from itertools import combinations_with_replacement
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from functorlab.augmentation import AugAlgebra
from functorlab.combinatorics import Multiset
from functorlab.divided_powers import (
    GammaModule,
    _monomial_rows,
    _word_index,
    distinct_permutations,
    gamma_dimension,
    gamma_of_hom,
    schur_product,
    tensor_embedding,
    tensor_readoff,
)
from functorlab.intlinalg import Matrix


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def flat(m: Matrix) -> tuple:
    return tuple(v for row in m.rows for v in row)


def brute_gamma_of_hom(alpha: Matrix, degree: int) -> Matrix:
    """Gamma^degree(alpha) entry by entry, through the tensor embedding: the
    entry at (B, A) is the sum over the distinct rearrangements w of A of
    prod_t alpha[b_t, w_t], b the sorted word of B.  Oracle for gamma_of_hom
    and, through the transpose, for the symmetric powers."""
    source = GammaModule(alpha.ncols, degree)
    target = GammaModule(alpha.nrows, degree)
    rows = []
    for B in target.basis:
        b = B.indices()
        row = []
        for A in source.basis:
            total = 0
            for w in distinct_permutations(A.indices()):
                term = 1
                for bt, wt in zip(b, w):
                    term *= alpha[bt, wt]
                total += term
            row.append(total)
        rows.append(row)
    return Matrix(rows, source.dimension())


def brute_monomial_rows(forms, nvars: int, degree: int):
    """The product of forms b_1..b_n for each sorted word b, expanded term by
    term with every monomial keyed by its sorted variable word.  Oracle for
    the integer-coded, prefix-sharing expansion of _monomial_rows."""
    monomials = {
        w: i for i, w in enumerate(combinations_with_replacement(range(nvars), degree))
    }
    rows = []
    for b in combinations_with_replacement(range(len(forms)), degree):
        acc = {(): 1}
        for t in b:
            nxt: dict = {}
            for word, c in acc.items():
                for j, v in forms[t]:
                    key = tuple(sorted(word + (j,)))
                    nxt[key] = nxt.get(key, 0) + c * v
            acc = nxt
        row = [0] * len(monomials)
        for word, c in acc.items():
            row[monomials[word]] = c
        rows.append(row)
    return rows, len(monomials)


sparse_forms = st.integers(0, 5).flatmap(
    lambda nvars: st.tuples(
        st.just(nvars),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, max(nvars - 1, 0)), st.integers(-4, 4).filter(bool)),
                max_size=nvars,
                unique_by=lambda term: term[0],
            ),
            max_size=5,
        ),
        st.integers(0, 4),
    )
)


def monomial_matrix(forms, nvars: int, degree: int) -> Matrix:
    """_monomial_rows on forms given as (variable, coefficient) lists."""
    return Matrix(*_monomial_rows([dict(form) for form in forms], nvars, degree))


class TestMonomialRows:
    @settings(max_examples=300, deadline=None)
    @given(sparse_forms)
    def test_matches_sorted_word_expansion(self, case):
        nvars, forms, degree = case
        expected = Matrix(*brute_monomial_rows(forms, nvars, degree))
        assert monomial_matrix(forms, nvars, degree) == expected

    def test_edges(self):
        for nvars in range(4):
            for degree in range(4):
                for forms in ([], [[]], [[], []], [[(0, -1)]] if nvars else [[]]):
                    got = monomial_matrix(forms, nvars, degree)
                    assert got == Matrix(*brute_monomial_rows(forms, nvars, degree))

    def test_repeated_calls_share_the_index_not_the_rows(self):
        forms = [[(0, 2), (1, -1)], [(1, 3)]]
        first, width = _monomial_rows([dict(form) for form in forms], 2, 3)
        first[0][0] = 99
        assert monomial_matrix(forms, 2, 3) == Matrix(*brute_monomial_rows(forms, 2, 3))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("q,p", [(0, 0), (0, 1), (0, 3), (1, 0), (3, 0)])
    def test_sym_and_div_on_empty_matrices(self, q, p, n):
        from functorlab.functors import Div, Sym, arrow_map, object_dim

        alpha = Matrix((), p) if q == 0 else Matrix.zeros(q, 0)
        assert alpha.shape == (q, p)
        for spec in (Sym(n), Div(n)):
            got = arrow_map(spec, alpha)
            assert got.shape == (object_dim(spec, q), object_dim(spec, p))
            assert got.is_zero == (n > 0)
        assert arrow_map(Div(n), alpha) == brute_gamma_of_hom(alpha, n)
        assert arrow_map(Sym(n), alpha) == brute_gamma_of_hom(alpha.transpose(), n).transpose()


class TestBasics:
    def test_dimension_frozen(self):
        assert gamma_dimension(2, 2) == 3
        assert gamma_dimension(2, 3) == 4
        assert gamma_dimension(3, 2) == 6
        assert gamma_dimension(1, 5) == 1
        assert gamma_dimension(4, 0) == 1

    def test_basis_order_rank_two(self):
        gm = GammaModule(2, 2)
        assert [A.pairs for A in gm.basis] == [
            (((0, 2),)),
            ((0, 1), (1, 1)),
            (((1, 2),)),
        ]

    def test_divided_power_rank_two(self):
        gm = GammaModule(2, 2)
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert gm.divided_power((a, b)).vector == (a * a, a * b, b * b)

    def test_divided_power_is_homogeneous(self):
        gm = GammaModule(3, 2)
        x = (1, -2, 3)
        for r in range(-3, 4):
            scaled = gm.divided_power(tuple(r * c for c in x))
            assert scaled == gm.divided_power(x).scale(r**2)

    def test_product_of_elements_degree_two_formula(self):
        gm = GammaModule(2, 2)
        x, y = (1, 2), (3, -1)
        xy = tuple(a + b for a, b in zip(x, y))
        expected = gm.divided_power(xy) - gm.divided_power(x) - gm.divided_power(y)
        assert gm.product_of_elements([x, y]) == expected

    def test_product_of_elements_arity_checked(self):
        gm = GammaModule(2, 2)
        with pytest.raises(ValueError):
            gm.product_of_elements([(1, 0)])

    def test_validation(self):
        gm = GammaModule(2, 2)
        with pytest.raises(ValueError):
            gm.element({Multiset.from_indices((0,)): 1})
        with pytest.raises(ValueError):
            gm.from_vector((1, 2))
        with pytest.raises(ValueError):
            GammaModule(3, 2).matrix_side


class TestInducedMatrix:
    def test_frozen_two_by_two(self):
        alpha = Matrix([[1, 2], [3, 4]])
        assert gamma_of_hom(alpha, 2).rows == ((1, 4, 4), (3, 10, 8), (9, 24, 16))

    def test_scalar_matrix(self):
        for n in (1, 2, 3):
            for r in range(-3, 4):
                got = gamma_of_hom(Matrix.identity(2).scale(r), n)
                assert got == Matrix.identity(gamma_dimension(2, n)).scale(r**n)

    def test_functorial_including_rectangles(self):
        rng = random.Random(5)
        for n in (1, 2, 3):
            for p, q, s in [(2, 2, 2), (2, 3, 2), (3, 1, 2), (1, 2, 3)]:
                a = rand_matrix(rng, q, p)
                b = rand_matrix(rng, p, s)
                assert gamma_of_hom(a @ b, n) == gamma_of_hom(a, n) @ gamma_of_hom(b, n)

    def test_natural_on_divided_powers(self):
        rng = random.Random(6)
        for n in (2, 3):
            src, dst = GammaModule(2, n), GammaModule(3, n)
            alpha = rand_matrix(rng, 3, 2)
            mat = gamma_of_hom(alpha, n)
            for _ in range(5):
                x = tuple(rng.randint(-3, 3) for _ in range(2))
                pushed = dst.from_vector(mat.matvec(src.divided_power(x).vector))
                assert pushed == dst.divided_power(alpha.matvec(x))

    def test_transpose_duality_with_symmetric_power(self):
        # Sym^n(alpha^T)^T against the rearrangement sum, computed apart
        # from the monomial expansion that Sym and Gamma share
        from functorlab.functors import Sym, arrow_map

        rng = random.Random(7)
        for n in (1, 2, 3, 4):
            for p, q in [(2, 2), (2, 3), (3, 2)]:
                alpha = rand_matrix(rng, q, p)
                dual = arrow_map(Sym(n), alpha.transpose()).transpose()
                assert brute_gamma_of_hom(alpha, n) == dual

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_rearrangement_sum(self, n):
        rng = random.Random(20 + n)
        for q, p in [(1, 1), (2, 2), (3, 2), (2, 3), (1, 3), (3, 3), (0, 2), (2, 0)]:
            alpha = rand_matrix(rng, q, p) if q else Matrix((), p)
            assert gamma_of_hom(alpha, n) == brute_gamma_of_hom(alpha, n)


def brute_tensor_embedding(elem) -> Matrix:
    """The orbit sum of each basis class, over the distinct rearrangements
    of its unit word, entry by entry.  Oracle for the cached positions of
    tensor_embedding."""
    side, n = elem.space.matrix_side, elem.space.degree
    rows = [[0] * side**n for _ in range(side**n)]
    for A, c in elem.coeffs.items():
        for word in distinct_permutations(A.indices()):
            r = _word_index([u // side for u in word], side)
            rows[r][_word_index([u % side for u in word], side)] += c
    return Matrix(rows, side**n)


def brute_tensor_readoff(space, tensor: Matrix) -> tuple:
    """Each basis coefficient read at the position of the sorted unit word."""
    side = space.matrix_side
    return tuple(
        tensor[_word_index([u // side for u in A.indices()], side),
               _word_index([u % side for u in A.indices()], side)]
        for A in space.basis
    )


class TestEmbedding:
    @pytest.mark.parametrize("side,n", [(1, 3), (2, 0), (2, 1), (2, 2), (2, 4), (3, 2), (3, 3)])
    def test_matches_the_rearrangement_route(self, side, n):
        rng = random.Random(40 + 10 * side + n)
        gm = GammaModule(side * side, n)
        for _ in range(4):
            u = gm.from_vector(tuple(rng.randint(-3, 3) for _ in range(gm.dimension())))
            emb = tensor_embedding(u)
            assert emb == brute_tensor_embedding(u)
            # read off a tensor outside the image too: a random one
            t = rand_matrix(rng, side**n, side**n)
            assert tensor_readoff(gm, t).vector == brute_tensor_readoff(gm, t)
            assert tensor_readoff(gm, emb) == u

    def test_round_trip_on_random_elements(self):
        rng = random.Random(8)
        for n in (1, 2, 3):
            gm = GammaModule(4, n)
            for _ in range(5):
                u = gm.from_vector(
                    tuple(rng.randint(-3, 3) for _ in range(gm.dimension()))
                )
                assert tensor_readoff(gm, tensor_embedding(u)) == u

    def test_embedding_of_power_is_kronecker_power(self):
        # x^[n] embeds as the n-fold tensor (Kronecker) power of x
        gm = GammaModule(4, 2)
        x = Matrix([[1, 2], [0, 3]])
        emb = tensor_embedding(gm.divided_power(flat(x)))
        for i1 in range(2):
            for i2 in range(2):
                for j1 in range(2):
                    for j2 in range(2):
                        assert emb[i1 * 2 + i2, j1 * 2 + j2] == x[i1, j1] * x[i2, j2]

    def test_orbit_sum_counts(self):
        word = (0, 0, 1, 2)
        n = len(word)
        counts = {}
        for w in word:
            counts[w] = counts.get(w, 0) + 1
        expected = factorial(n)
        for c in counts.values():
            expected //= factorial(c)
        assert len(distinct_permutations(word)) == expected


class TestSchurProduct:
    def test_defining_identity(self):
        rng = random.Random(9)
        for n in (1, 2, 3):
            gm = GammaModule(4, n)
            for _ in range(6):
                a = rand_matrix(rng, 2, 2)
                b = rand_matrix(rng, 2, 2)
                lhs = schur_product(gm.divided_power(flat(a)), gm.divided_power(flat(b)))
                assert lhs == gm.divided_power(flat(a @ b))

    def test_unit_and_associativity(self):
        rng = random.Random(10)
        gm = GammaModule(4, 2)
        one = gm.divided_power((1, 0, 0, 1))
        elems = [
            gm.from_vector(tuple(rng.randint(-2, 2) for _ in range(gm.dimension())))
            for _ in range(3)
        ]
        u, v, w = elems
        assert schur_product(one, u) == u
        assert schur_product(u, one) == u
        assert schur_product(schur_product(u, v), w) == schur_product(u, schur_product(v, w))

    def test_embedding_is_multiplicative(self):
        rng = random.Random(12)
        gm = GammaModule(4, 2)
        for _ in range(4):
            u = gm.from_vector(tuple(rng.randint(-2, 2) for _ in range(gm.dimension())))
            v = gm.from_vector(tuple(rng.randint(-2, 2) for _ in range(gm.dimension())))
            assert tensor_embedding(schur_product(u, v)) == (
                tensor_embedding(u) @ tensor_embedding(v)
            )

    def test_cross_space_rejected(self):
        with pytest.raises(ValueError):
            schur_product(GammaModule(4, 2).zero(), GammaModule(4, 1).zero())
        # the augmentation algebra of the same size is another space
        assert AugAlgebra(2, 2) != GammaModule(2, 2)
        with pytest.raises(ValueError):
            AugAlgebra(2, 2).one() + GammaModule(2, 2).divided_power((1, 1))


def test_element_to_json():
    from fractions import Fraction

    gm = GammaModule(2, 3)
    u = gm.divided_power((2, -1)).scale(Fraction(3, 4)) + gm.basis_element(gm.basis[0])
    # (a, b)^[3] has monomial coefficients a^3, a^2 b, a b^2, b^3 = 8, -4, 2, -1
    assert list(u.to_json().items()) == [
        ("1^3", "7"), ("1^2,2", "-3"), ("1,2^2", "3/2"), ("2^3", "-3/4"),
    ]
