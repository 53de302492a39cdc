"""Truncated augmentation algebras: bases, normal forms, both products,
and induced maps."""
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from functorlab.augmentation import (
    AugAlgebra,
    _class_vector,
    aug_dimension,
    pushforward,
)
from functorlab.combinatorics import Multiset, binomial, multiset_binomial, multisets_up_to
from functorlab.deviations import deviation, is_numerical_degree
from functorlab.intlinalg import Matrix
from functorlab.modules import FreeModule, SetMap
from oracles import composition_tables, sub_multisets


class TestDimensions:
    def test_frozen_counts(self):
        assert aug_dimension(1, 2) == 3
        assert aug_dimension(2, 2) == 6
        assert aug_dimension(3, 3) == 20
        for n in range(4):
            assert aug_dimension(0, n) == 1

    def test_matches_basis_length(self):
        for k in range(4):
            for n in range(4):
                assert AugAlgebra(k, n).dimension() == aug_dimension(k, n)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            AugAlgebra(-1, 2)
        with pytest.raises(ValueError):
            AugAlgebra(2, -1)


class TestNormalForm:
    def test_rank_one_coefficients_are_binomials(self):
        alg = AugAlgebra(1, 2)
        for r in range(-4, 5):
            assert alg.class_of((r,)).vector == (1, r, binomial(r, 2))

    def test_class_of_zero_is_unit(self):
        alg = AugAlgebra(2, 2)
        assert alg.class_of((0, 0)) == alg.one()

    def test_scaling_relation(self):
        # [r z] expands through binomials of the repeated deviation classes
        alg = AugAlgebra(2, 2)
        z = (2, -1)
        for r in range(-3, 4):
            expected = alg.zero()
            for m in range(alg.degree + 1):
                expected = expected + alg.class_of_deviation([z] * m).scale(binomial(r, m))
            assert alg.class_of(tuple(r * c for c in z)) == expected

    def test_deviation_class_of_basis_word_is_basis_element(self):
        alg = AugAlgebra(2, 3)
        X = Multiset.from_indices((0, 0, 1))
        word = [(1, 0), (1, 0), (0, 1)]
        assert alg.class_of_deviation(word) == alg.basis_element(X)

    def test_element_validation(self):
        alg = AugAlgebra(1, 1)
        big = Multiset.from_indices((0, 0, 0))
        with pytest.raises(ValueError):
            alg.element({big: 1})
        with pytest.raises(ValueError):
            alg.from_vector((1, 2, 3, 4))

    def test_vector_round_trip(self):
        alg = AugAlgebra(2, 2)
        u = alg.class_of((3, -2))
        assert alg.from_vector(u.vector) == u


def brute_class_of_deviation(alg: AugAlgebra, xs) -> tuple:
    """The deviation of the set map x -> [x] at the points xs, as the
    alternating sum of the classes of all 2^m subset sums.  Oracle for the
    product of the [x_i] - 1 in class_of_deviation."""
    points = FreeModule(alg.rank)
    phi = SetMap(points, alg, lambda x: alg.class_of(x.vector))
    return deviation(phi, [points.from_vector(x) for x in xs]).vector


class TestDeviationClass:
    @pytest.mark.parametrize("k,n", [(k, n) for k in range(4) for n in range(4)])
    def test_no_points_give_the_unit(self, k, n):
        alg = AugAlgebra(k, n)
        unit = alg.basis_element(Multiset())
        assert alg.class_of_deviation([]) == unit
        assert brute_class_of_deviation(alg, []) == unit.vector

    @pytest.mark.parametrize("k,n", [(1, 0), (1, 3), (2, 2), (2, 4), (3, 3), (4, 2)])
    def test_repeated_points(self, k, n):
        # a point repeated past the degree gives zero, as a product of more
        # than n elements of the augmentation ideal
        rng = random.Random(10 * k + n)
        alg = AugAlgebra(k, n)
        for _ in range(3):
            x = tuple(rng.randint(-3, 3) for _ in range(k))
            y = tuple(rng.randint(-3, 3) for _ in range(k))
            for m in range(n + 3):
                got = alg.class_of_deviation([x] * m)
                assert got.vector == brute_class_of_deviation(alg, [x] * m), (x, m)
                assert got.is_zero or m <= n
                mixed = [x] * m + [y]
                assert alg.class_of_deviation(mixed).vector == brute_class_of_deviation(alg, mixed)

    def test_does_not_read_the_unit(self, monkeypatch):
        # the sampled cells of the CLI tests break AugAlgebra.one on purpose
        alg = AugAlgebra(2, 2)
        cases = [[], [(1, 2)], [(1, 2), (0, -1)]]
        expected = [brute_class_of_deviation(alg, xs) for xs in cases]
        monkeypatch.setattr(AugAlgebra, "one", lambda self: self.zero())
        assert [alg.class_of_deviation(xs).vector for xs in cases] == expected


def brute_class_vector(coords, rank: int, degree: int) -> list:
    """The coefficients of [x], one product of C(x_i, m) over the (i, m)
    pairs per basis multiset X.  Oracle for the one-step recurrence of
    _class_vector."""
    basis = multisets_up_to(rank, degree)
    return [prod(binomial(coords[i], m) for i, m in X.pairs) for X in basis]


def brute_sum_mul(alg: AugAlgebra, u, v) -> tuple:
    """The sum product on basis multisets: X and Y go to the union of their
    (index, multiplicity) pairs, merged by a Counter, or to zero past the
    degree.  Oracle for the integer codes of sum_mul."""
    out = [0] * alg.dimension()
    for i, c in u.nonzero():
        X = alg.basis[i]
        for j, d in v.nonzero():
            Y = alg.basis[j]
            if X.size + Y.size <= alg.degree:
                counts = Counter(dict(X.pairs))
                counts.update(dict(Y.pairs))
                out[alg.basis_index[Multiset(tuple(sorted(counts.items())))]] += c * d
    return tuple(int(c) if c == int(c) else c for c in out)


rank_degree = st.tuples(st.integers(0, 4), st.integers(0, 4))
coefficient = st.one_of(
    st.just(0), st.integers(-5, 5), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


class TestClassVector:
    @settings(max_examples=150)
    @given(rank_degree.flatmap(lambda kn: st.tuples(
        st.just(kn), st.lists(st.integers(-6, 6), min_size=kn[0], max_size=kn[0])
    )))
    def test_matches_the_per_multiset_product(self, case):
        (k, n), coords = case
        expected = brute_class_vector(coords, k, n)
        assert _class_vector(coords, n) == expected
        assert AugAlgebra(k, n).class_of(coords).vector == tuple(expected)


class TestSumProduct:
    @settings(max_examples=150)
    @given(rank_degree.flatmap(lambda kn: st.tuples(
        st.just(kn),
        *[st.lists(coefficient, min_size=aug_dimension(*kn), max_size=aug_dimension(*kn))] * 2,
    )))
    def test_matches_the_merged_pairs(self, case):
        (k, n), a, b = case
        alg = AugAlgebra(k, n)
        u, v = alg.from_vector(a), alg.from_vector(b)
        got = alg.sum_mul(u, v).vector
        expected = brute_sum_mul(alg, u, v)
        assert got == expected
        assert list(map(type, got)) == list(map(type, expected))


    @settings(max_examples=60)
    @given(st.tuples(*[st.integers(-3, 3)] * 4))
    def test_defining_identity(self, coords):
        a, b, c, d = coords
        alg = AugAlgebra(2, 2)
        lhs = alg.sum_mul(alg.class_of((a, b)), alg.class_of((c, d)))
        assert lhs == alg.class_of((a + c, b + d))

    def test_unit_commutativity_associativity(self):
        alg = AugAlgebra(2, 2)
        xs = [alg.class_of(v) for v in [(1, 0), (0, 2), (-1, 1)]]
        u = xs[0] - xs[1].scale(2)
        v = xs[2] + alg.one()
        w = xs[1]
        mul = alg.sum_mul
        assert mul(u, alg.one()) == u
        assert mul(alg.one(), u) == u
        assert mul(u, v) == mul(v, u)
        assert mul(mul(u, v), w) == mul(u, mul(v, w))

    def test_cross_algebra_rejected(self):
        a = AugAlgebra(2, 2)
        b = AugAlgebra(2, 1)
        with pytest.raises(ValueError):
            a.sum_mul(a.one(), b.one())
        with pytest.raises(ValueError):
            a.sum_mul(b.one(), a.one())


class TestCompositionProduct:
    def test_defining_identity_seeded(self):
        import random

        rng = random.Random(11)
        alg = AugAlgebra(4, 2)
        for _ in range(8):
            s = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            t = Matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
            flat = lambda m: tuple(v for row in m.rows for v in row)
            lhs = alg.product_mul(alg.class_of(flat(s)), alg.class_of(flat(t)))
            assert lhs == alg.class_of(flat(s @ t))

    def test_identity_matrix_class_is_unit(self):
        alg = AugAlgebra(4, 2)
        e = alg.class_of((1, 0, 0, 1))
        u = alg.class_of((2, 1, 0, -1)) - alg.class_of((0, 3, 1, 1)).scale(2)
        assert alg.product_mul(e, u) == u
        assert alg.product_mul(u, e) == u

    def test_associativity(self):
        alg = AugAlgebra(4, 2)
        a = alg.class_of((1, 1, 0, 1))
        b = alg.class_of((2, 0, 1, 1)) + alg.one()
        c = alg.class_of((0, 1, -1, 2))
        mul = alg.product_mul
        assert mul(mul(a, b), c) == mul(a, mul(b, c))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_diagonal_deviation_classes_are_idempotent(self, n):
        # d_s, the deviation class of E_11..E_ss, is the idempotent whose image
        # is the s-th cross effect (functors.reconstruct): the d_s are
        # orthogonal idempotents, and d_s [E_11 + ... + E_ss] = d_s
        alg = AugAlgebra(n * n, n)
        units = [tuple(int(u == i * (n + 1)) for u in range(n * n)) for i in range(n)]
        d = [alg.class_of_deviation(units[:s]) for s in range(n + 1)]
        for s in range(n + 1):
            for t in range(n + 1):
                assert alg.product_mul(d[s], d[t]) == (d[s] if s == t else alg.zero()), (s, t)
            eps = alg.class_of(tuple(int(u % (n + 1) == 0 and u < s * (n + 1)) for u in range(n * n)))
            assert alg.product_mul(d[s], eps) == d[s]

    def test_non_square_rank_rejected(self):
        alg = AugAlgebra(3, 2)
        with pytest.raises(ValueError):
            alg.product_mul(alg.one(), alg.one())


# Oracles: the inclusion-exclusion definitions of both products, expanded
# over subsets of the basis words and normalised one multiset-binomial at a
# time, independently of the closed forms and binomial rows under test.


@lru_cache(maxsize=None)
def _oracle_class(coords: tuple, rank: int, degree: int) -> tuple:
    return tuple(multiset_binomial(coords, X) for X in multisets_up_to(rank, degree))


def _signed_words(X: Multiset, width: int):
    """(sign, coordinate sum) over the subsets of X's word of unit vectors."""
    word = X.indices()
    out = []
    for mask in range(1 << len(word)):
        coords = [0] * width
        for bit, i in enumerate(word):
            if mask >> bit & 1:
                coords[i] += 1
        out.append(((-1) ** (len(word) - bin(mask).count("1")), coords))
    return out


def _signed_class_sum(terms, rank: int, degree: int) -> tuple:
    acc = [0] * aug_dimension(rank, degree)
    for sign, coords in terms:
        for t, c in enumerate(_oracle_class(tuple(coords), rank, degree)):
            acc[t] += sign * c
    return tuple(acc)


def _oracle_sum_column(X: Multiset, Y: Multiset, rank: int, degree: int) -> tuple:
    terms = [
        (sx * sy, [p + q for p, q in zip(vx, vy)])
        for sx, vx in _signed_words(X, rank)
        for sy, vy in _signed_words(Y, rank)
    ]
    return _signed_class_sum(terms, rank, degree)


def _oracle_product_column(X, Y, a: int, b: int, c: int, degree: int) -> tuple:
    """Basis class of X (a x b) composed with that of Y (b x c), in B(ac)."""
    terms = []
    for sx, vx in _signed_words(X, a * b):
        s = Matrix([vx[i * b : (i + 1) * b] for i in range(a)], b)
        for sy, vy in _signed_words(Y, b * c):
            t = Matrix([vy[j * c : (j + 1) * c] for j in range(b)], c)
            terms.append((sx * sy, [v for row in (s @ t).rows for v in row]))
    return _signed_class_sum(terms, a * c, degree)


def brute_composition_tables(a: int, b: int, c: int, degree: int):
    """The composition tables by sub-multiset expansion, in the layout of
    oracles.composition_tables: expanding both basis classes over
    sub-multisets leaves classes [AB] of integer matrix products, each
    normalised once."""
    left_basis = multisets_up_to(a * b, degree)
    right_basis = multisets_up_to(b * c, degree)
    out_basis = multisets_up_to(a * c, degree)
    left_index = {X: i for i, X in enumerate(left_basis)}
    right_subs = [sub_multisets(Y) for Y in right_basis]

    def class_of_product(A: Multiset, B: Multiset) -> list:
        coords = [0] * (a * c)
        for u, m in A.pairs:
            for v, p in B.pairs:
                if u % b == v // c:
                    coords[u // b * c + v % c] += m * p
        return _oracle_class(tuple(coords), a * c, degree)

    def combine(terms, vector_of) -> list:
        acc = [0] * len(out_basis)
        for A, w in terms:
            for t, v in enumerate(vector_of(A)):
                if v:
                    acc[t] += w * v
        return acc

    # half[i][y]: the class of left_basis[i] times the basis class of right_basis[y]
    half = [
        [combine(subs, lambda B: class_of_product(A, B)) for subs in right_subs]
        for A in left_basis
    ]
    products = (
        [combine(subs, lambda A: half[left_index[A]][y]) for y in range(len(right_basis))]
        for subs in map(sub_multisets, left_basis)
    )
    return tuple(
        tuple(tuple((t, v) for t, v in enumerate(col) if v) for col in row)
        for row in products
    )


class TestRelationSumRule:
    """The composition entries (relation sums), read in full through
    oracles.composition_tables, against the sub-multiset expansion: square
    shapes read them as they are, the others through zero padding."""

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 1, 3), (2, 2, 2, 2), (2, 2, 2, 3), (2, 3, 2, 3), (3, 2, 3, 3), (1, 3, 2, 3),
         (3, 3, 3, 2), (2, 2, 2, 4), (1, 2, 2, 4), (2, 2, 1, 4), (1, 1, 1, 5), (1, 2, 1, 5),
         (2, 1, 2, 5), (1, 2, 2, 5), (2, 2, 1, 5), (2, 2, 2, 5)]
        + [(q, 2, 2, 2) for q in range(1, 6)] + [(3, 2, 2, 3), (5, 2, 2, 3)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_tables_equal_the_expansion(self, shape):
        assert composition_tables(*shape) == brute_composition_tables(*shape)

    def test_cubic_square_table_on_sampled_pairs(self):
        # the expansion takes seconds at (3, 3, 3, 3), so seeded basis pairs
        # go to the subset-sum oracle instead: half with a nonzero product
        table = composition_tables(3, 3, 3, 3)
        basis = multisets_up_to(9, 3)
        rng = random.Random(33)
        nonzero = [(x, y) for x, row in enumerate(table) for y, entry in enumerate(row) if entry]
        pairs = rng.sample(nonzero, 12) + [
            (rng.randrange(len(basis)), rng.randrange(len(basis))) for _ in range(12)
        ]
        for x, y in pairs:
            col = [0] * len(basis)
            for t, v in table[x][y]:
                col[t] = v
            assert tuple(col) == _oracle_product_column(basis[x], basis[y], 3, 3, 3, 3)


class TestTablesAgainstOracles:
    @pytest.mark.parametrize("k,n", [(1, 3), (2, 3), (3, 2), (4, 3), (2, 4)])
    def test_sum_tables(self, k, n):
        alg = AugAlgebra(k, n)
        for X in alg.basis:
            for Y in alg.basis:
                product = alg.sum_mul(alg.basis_element(X), alg.basis_element(Y))
                assert product.vector == _oracle_sum_column(X, Y, k, n), (X, Y)

    @pytest.mark.parametrize("n", [2, 3])
    def test_square_composition_tables(self, n):
        alg = AugAlgebra(4, n)
        for X in alg.basis:
            for Y in alg.basis:
                product = alg.product_mul(alg.basis_element(X), alg.basis_element(Y))
                assert product.vector == _oracle_product_column(X, Y, 2, 2, 2, n), (X, Y)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_rectangular_tables_used_by_reconstruct(self, q):
        n = 2
        table = composition_tables(q, n, n, n)
        left_basis = multisets_up_to(q * n, n)
        right_basis = multisets_up_to(n * n, n)
        assert len(table) == len(left_basis)
        for x, X in enumerate(left_basis):
            assert len(table[x]) == len(right_basis)
            for y, Y in enumerate(right_basis):
                col = [0] * aug_dimension(q * n, n)
                for t, v in table[x][y]:
                    assert v, (X, Y)
                    col[t] = v
                assert tuple(col) == _oracle_product_column(X, Y, q, n, n, n), (X, Y)

    @pytest.mark.parametrize("side,n", [(1, 3), (2, 3), (3, 2)])
    def test_product_mul_on_random_elements(self, side, n):
        # product_mul reads entries on demand; the whole-table oracle reads all
        alg = AugAlgebra(side * side, n)
        table = brute_composition_tables(side, side, side, n)
        rng = random.Random(side * 10 + n)
        for _ in range(6):
            u, v = [0] * len(table), [0] * len(table)
            for vec in (u, v):
                for _ in range(4):
                    vec[rng.randrange(len(table))] += rng.randint(-3, 3)
            expected = [0] * len(table)
            for i, c in enumerate(u):
                for j, d in enumerate(v):
                    for t, w in table[i][j]:
                        expected[t] += c * d * w
            product = alg.product_mul(alg.from_vector(u), alg.from_vector(v))
            assert product.vector == tuple(expected), (u, v)


class TestPushforward:
    def test_identity_map(self):
        alg = AugAlgebra(2, 2)
        p = pushforward(Matrix.identity(2), alg, alg)
        assert p == Matrix.identity(alg.dimension())

    def test_tracks_classes(self):
        src = AugAlgebra(2, 2)
        dst = AugAlgebra(3, 2)
        chi = Matrix([[1, 2], [0, 1], [-1, 3]])
        p = pushforward(chi, src, dst)
        for x in [(1, 0), (2, -1), (3, 3)]:
            assert p.matvec(src.class_of(x).vector) == dst.class_of(chi.matvec(x)).vector

    def test_functoriality(self):
        a, b, c = AugAlgebra(2, 2), AugAlgebra(2, 2), AugAlgebra(1, 2)
        f = Matrix([[1, 1], [0, 2]])
        g = Matrix([[3, -1]])
        assert pushforward(g @ f, a, c) == pushforward(g, b, c) @ pushforward(f, a, b)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pushforward(Matrix.identity(2), AugAlgebra(2, 2), AugAlgebra(2, 1))

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pushforward(Matrix([[1, 0]]), AugAlgebra(2, 2), AugAlgebra(2, 2))
        with pytest.raises(ValueError, match="does not fit"):
            pushforward(Matrix([[1, 0]]), AugAlgebra(1, 2), AugAlgebra(2, 2))

    def test_non_integer_map_rejected(self):
        with pytest.raises(ValueError, match="integer matrices"):
            pushforward(Matrix([[Fraction(1, 2), 0], [0, 1]]), AugAlgebra(2, 2), AugAlgebra(2, 2))


class TestUniversalMapDegree:
    def test_class_map_is_numerical_of_the_truncation_degree(self):
        for k, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            alg = AugAlgebra(k, n)
            phi = SetMap(FreeModule(k), alg, lambda x: alg.class_of(x.vector))
            rep = is_numerical_degree(phi, n)
            assert rep.passed, (k, n, rep.witness)

    def test_and_the_degree_is_sharp(self):
        alg = AugAlgebra(1, 2)
        phi = SetMap(FreeModule(1), alg, lambda x: alg.class_of(x.vector))
        rep = is_numerical_degree(phi, 1)
        assert not rep.passed


def test_element_to_json():
    alg = AugAlgebra(2, 2)
    u = alg.class_of((2, 1)).scale(Fraction(1, 2)) + alg.one()
    # [x] = sum_X C(x, X) delta_X: 1, 2, 1, C(2,2), 2*1, C(1,2) halved, plus
    # the unit on the empty multiset; zeros are left out, basis order kept
    assert list(u.to_json().items()) == [
        ("", "3/2"), ("1", "1"), ("2", "1/2"), ("1^2", "1/2"), ("1,2", "1"),
    ]
