import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from functorlab.combinatorics import (
    Multiset,
    binomial,
    format_multiset,
    format_rational,
    multiset_binomial,
    multiset_codes,
    multiset_products,
    multisets_exactly,
    multisets_up_to,
    signed_subset_sums,
)
from functorlab.augmentation import AugAlgebra
from functorlab.deviations import alternating_sum
from functorlab.divided_powers import GammaModule
from functorlab.intlinalg import Matrix
from functorlab.modules import FreeModule
from oracles import stirling2, stirling_sum_identity


def set_partitions(items):
    """All set partitions, by direct recursion.  Oracle for the oracle stirling2."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


class TestBinomial:
    def test_matches_comb_for_nonnegative(self):
        for r in range(0, 12):
            for k in range(0, 12):
                assert binomial(r, k) == math.comb(r, k)

    def test_negative_upper_index(self):
        assert binomial(-1, 2) == 1
        assert binomial(-1, 3) == -1
        assert binomial(-2, 3) == -4
        assert binomial(-3, 0) == 1

    def test_negative_lower_index_rejected(self):
        with pytest.raises(ValueError):
            binomial(5, -1)

    @given(st.integers(-30, 30), st.integers(0, 12))
    def test_pascal_rule(self, r, k):
        lhs = binomial(r, k)
        rhs = binomial(r - 1, k) + (binomial(r - 1, k - 1) if k > 0 else 0)
        if k == 0:
            rhs = binomial(r - 1, 0)
        assert lhs == rhs

    @given(st.integers(-20, 20), st.integers(0, 10))
    def test_falling_factorial_definition(self, r, k):
        num = 1
        for i in range(k):
            num *= r - i
        assert binomial(r, k) * math.factorial(k) == num


class TestStirling:
    def test_small_frozen_values(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(0, 0) == 1
        assert stirling2(4, 0) == 0
        assert stirling2(2, 5) == 0

    def test_against_partition_enumeration(self):
        for n in range(0, 7):
            counts = {}
            for part in set_partitions(range(n)):
                counts[len(part)] = counts.get(len(part), 0) + 1
            for m in range(0, n + 1):
                assert stirling2(n, m) == counts.get(m, 0)

    def test_alternating_sum_equals_factorial_times_stirling(self):
        for n in range(0, 9):
            for m in range(0, 9):
                assert stirling_sum_identity(n, m) == math.factorial(m) * stirling2(n, m)


class TestMultiset:
    def test_canonical_form_enforced(self):
        with pytest.raises(ValueError):
            Multiset(((1, 0),))
        with pytest.raises(ValueError):
            Multiset(((2, 1), (1, 1)))
        with pytest.raises(ValueError):
            Multiset(((0, 1), (0, 2)))

    def test_from_indices_sorts_and_groups(self):
        X = Multiset.from_indices((3, 0, 0, 3, 1))
        assert X.pairs == ((0, 2), (1, 1), (3, 2))
        assert X.size == 5
        assert X.support == (0, 1, 3)
        assert X.indices() == (0, 0, 1, 3, 3)

    def test_empty(self):
        assert Multiset().size == 0
        assert Multiset().indices() == ()
        assert Multiset.from_indices(()) == Multiset()

    def test_enumeration_counts(self):
        for k in range(1, 5):
            for n in range(0, 5):
                assert len(multisets_exactly(k, n)) == math.comb(k + n - 1, n)
                assert len(multisets_up_to(k, n)) == sum(
                    math.comb(k + m - 1, m) for m in range(n + 1)
                )

    def test_enumeration_order_is_by_size_then_word(self):
        got = multisets_up_to(2, 2)
        expected = [
            (),
            ((0, 1),),
            ((1, 1),),
            ((0, 2),),
            ((0, 1), (1, 1)),
            ((1, 2),),
        ]
        assert [X.pairs for X in got] == expected

    def test_serialization_one_based(self):
        X = Multiset(((0, 2), (2, 1)))
        assert format_multiset(X) == "1^2,3"
        assert format_multiset(Multiset()) == ""

    @given(st.lists(st.integers(0, 6), max_size=6))
    def test_serialization_round_trip(self, idx):
        # read back: "i^m" is the 1-based index i taken m times, "i" once
        X = Multiset.from_indices(idx)
        word = []
        for chunk in filter(None, format_multiset(X).split(",")):
            i, _, m = chunk.partition("^")
            word += [int(i) - 1] * int(m or 1)
        assert word == sorted(idx)

    def test_multiset_binomial(self):
        X = Multiset(((0, 2), (1, 1)))
        assert multiset_binomial((3, -1), X) == binomial(3, 2) * binomial(-1, 1)
        assert multiset_binomial((5, 5), Multiset()) == 1
        with pytest.raises(IndexError):
            multiset_binomial((3,), X)


def test_rational_serialization():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(7) == "7"


def _subset_walk_cases(m, rng):
    """(args, zero) over ints, Matrix and FreeModule elements."""
    module = FreeModule(3)
    return [
        ([rng.randint(-5, 5) for _ in range(m)], 0),
        (
            [Matrix([[rng.randint(-5, 5) for _ in range(2)] for _ in range(3)], 2) for _ in range(m)],
            Matrix.zeros(3, 2),
        ),
        ([module.from_vector([rng.randint(-5, 5) for _ in range(3)]) for _ in range(m)], module.zero()),
    ]


class TestSignedSubsetSums:
    @pytest.mark.parametrize("m", range(6))
    def test_matches_subsets_from_combinations(self, m):
        # definition: subset I at the position whose bit i marks args[i] in I
        rng = random.Random(m)
        for args, zero in _subset_walk_cases(m, rng):
            expected = {}
            for size in range(m + 1):
                for subset in combinations(range(m), size):
                    total = zero
                    for i in subset:
                        total = total + args[i]
                    expected[sum(1 << i for i in subset)] = ((-1) ** (m - size), total)
            terms = signed_subset_sums(args, zero)
            assert len(terms) == 2**m
            assert dict(enumerate(terms)) == expected

    def test_alternating_sum_of_no_arguments_is_the_value_at_zero(self):
        fn = lambda s: 7 * s + 3  # noqa: E731
        assert alternating_sum(fn, [], 0) == fn(0)
        square = lambda s: s @ s.transpose()  # noqa: E731
        zero = Matrix.zeros(2, 3)
        assert alternating_sum(square, [], zero) == square(zero)


RANK_DEGREE = list(product(range(5), range(5)))


class TestMultisetCodes:
    @pytest.mark.parametrize("rank, degree", RANK_DEGREE)
    def test_codes_positions_and_the_size_degree_tail(self, rank, degree):
        basis = multisets_up_to(rank, degree)
        codes, sizes, index = multiset_codes(rank, degree)
        assert codes == tuple(sum(m * (degree + 1) ** i for i, m in X.pairs) for X in basis)
        assert sizes == tuple(X.size for X in basis)
        # the codes are distinct and the positions invert them
        assert len(index) == len(basis)
        assert [index[c] for c in codes] == list(range(len(basis)))
        # the basis of Gamma^degree comes last, in its own order
        tail = multisets_exactly(rank, degree)
        assert basis[len(basis) - len(tail) :] == tail
        assert all(size == degree for size in sizes[len(basis) - len(tail) :])

    @pytest.mark.parametrize("rank, degree", RANK_DEGREE)
    def test_the_code_of_a_union_is_the_sum(self, rank, degree):
        basis = multisets_up_to(rank, degree)
        codes, _, index = multiset_codes(rank, degree)
        for X, cx in zip(basis, codes):
            for Y, cy in zip(basis, codes):
                if X.size + Y.size <= degree:
                    union = Multiset.from_indices(X.indices() + Y.indices())
                    assert basis[index[cx + cy]] == union


def _walk_points(rank, rng):
    """Points of Z^rank with zero and negative coordinates."""
    points = [(0,) * rank, (-1,) * rank, tuple((-1) ** i * (i + 2) for i in range(rank))]
    return points + [tuple(rng.randint(-4, 4) for _ in range(rank)) for _ in range(6)]


class TestMultisetProducts:
    @pytest.mark.parametrize("rank, degree", RANK_DEGREE)
    def test_class_vectors_are_multiset_binomials(self, rank, degree):
        basis = multisets_up_to(rank, degree)
        for x in _walk_points(rank, random.Random(rank * 5 + degree)):
            rows = [[binomial(v, m) for m in range(degree + 1)] for v in x]
            expected = [multiset_binomial(x, X) for X in basis]
            assert multiset_products(rows, degree) == expected
            assert AugAlgebra(rank, degree).class_of(x).vector == tuple(expected)

    @pytest.mark.parametrize("rank, degree", RANK_DEGREE)
    def test_divided_powers_are_monomials(self, rank, degree):
        basis = multisets_up_to(rank, degree)
        for x in _walk_points(rank, random.Random(rank * 5 + degree)):
            rows = [[v**m for m in range(degree + 1)] for v in x]
            expected = [math.prod(x[i] ** m for i, m in X.pairs) for X in basis]
            assert multiset_products(rows, degree) == expected
            divided = [math.prod(x[i] ** m for i, m in A.pairs) for A in multisets_exactly(rank, degree)]
            assert GammaModule(rank, degree).divided_power(x).vector == tuple(divided)
