"""Exact integer linear algebra: normal forms, lattices, solvers.

Frozen expectations were computed by hand (cofactor expansions, row
reductions) or follow from uniqueness of the canonical forms.
"""
import hashlib
import itertools
import random
from dataclasses import FrozenInstanceError, fields
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from operator import add, mul, sub

import pytest
from hypothesis import given, settings, strategies as st

from functorlab.intlinalg import (
    Lattice,
    Matrix,
    _echelon,
    _norm,
    block_diag,
    cokernel_invariants,
    hermite_normal_form,
    hnf_with_transform,
    hstack,
    kernel_lattice,
    lattice_index,
    lattice_intersection,
    left_kernel,
    linear_combination,
    rational_inverse,
    relation_hermite_form,
    relation_invariants,
    saturation,
    smith_normal_form,
    solve_int,
    solve_rational,
    vstack,
)

small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-4, 4), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)

exact_entry = st.one_of(
    st.integers(-50, 50),
    st.booleans(),
    st.integers(-50, 50).map(Fraction),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)

exact_rows = st.integers(0, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(exact_entry, min_size=n, max_size=n), max_size=4),
    )
)

small_row_set = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4),
    )
)


def diagonal(mat):
    return tuple(mat.rows[i][i] for i in range(min(mat.shape)))


def minor(mat, row_idx, col_idx):
    """Bareiss determinant of mat at the given rows and columns."""
    rows = mat.rows
    return Matrix([[rows[i][j] for j in col_idx] for i in row_idx], len(col_idx)).det()


def permutation_det(mat):
    """Leibniz expansion; independent of the Bareiss code path."""
    n = mat.nrows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= mat[i, perm[i]]
        total += term
    return total


class TestMatrixBasics:
    def test_normalization_collapses_integral_fractions(self):
        m = Matrix([[Fraction(4, 2), 1]], 2)
        assert isinstance(m[0, 0], int) and m[0, 0] == 2
        assert m.is_integral
        flags = Matrix([[True, False]])
        assert flags.rows == ((1, 0),) and list(map(type, flags.rows[0])) == [int, int]

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            Matrix([[1.5]], 1)

    @settings(max_examples=150)
    @given(exact_rows)
    def test_constructor_matches_per_entry_norm(self, case):
        width, rows = case
        m = Matrix(rows, width)
        expected = tuple(tuple(_norm(v) for v in row) for row in rows)
        assert m.rows == expected
        assert [list(map(type, r)) for r in m.rows] == [list(map(type, r)) for r in expected]
        assert m.is_integral == all(isinstance(v, int) for r in m.rows for v in r)

    @pytest.mark.parametrize("bad", [1.0, 0.5, "1", None])
    def test_inexact_entries_rejected_in_any_position(self, bad):
        cases = ([[bad]], [[1, bad, 2]], [[1, 2], [3, bad]], [[Fraction(1, 2), bad]], [{1: 1, 0: bad}])
        for rows in cases:
            with pytest.raises(TypeError, match=f"exact scalar required, got {type(bad).__name__}$"):
                Matrix(rows)

    @pytest.mark.parametrize("bad", [2.5, "7"])
    @pytest.mark.parametrize("before", [0, 1, 40])
    def test_inexact_entry_after_int_rows_rejected(self, bad, before):
        message = f"exact scalar required, got {type(bad).__name__}$"
        ints = [[1, 2, 3]] * before
        for rows in (ints + [[1, 2, bad]], ints + [[bad, 0, 0]] + ints):
            with pytest.raises(TypeError, match=message):
                Matrix(rows)
            with pytest.raises(TypeError, match=message):
                Matrix.from_cols(rows)

    def test_integral_fractions_collapse_after_int_rows(self):
        m = Matrix([[1, 2]] * 30 + [[Fraction(6, 3), Fraction(1, 2)]], 2)
        assert m.rows[-1] == (2, Fraction(1, 2))
        assert type(m.rows[-1][0]) is int and type(m.rows[0][0]) is int
        assert not m.is_integral
        assert Matrix([[1, 2], [Fraction(-4, 2), 0]], 2).is_integral

    @pytest.mark.parametrize(
        "rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []], [[Fraction(1, 2)], [1, 2]]]
    )
    def test_ragged_rows_rejected(self, rows):
        with pytest.raises(ValueError, match="ragged rows"):
            Matrix(rows)

    @pytest.mark.parametrize("cols", [[(1,), (2, 3)], [(1, 2), (3,)], [(1, 2), (3, 4), ()]])
    def test_ragged_columns_rejected(self, cols):
        with pytest.raises(ValueError, match="ragged columns"):
            Matrix.from_cols(cols)

    @pytest.mark.parametrize(
        "rows, ncols", [([{3: 1}], 3), ([{-1: 1}], 3), ([{0: 1}, {5: 2}], 2), ([{0: 1}], 0)]
    )
    def test_sparse_columns_outside_the_range_rejected(self, rows, ncols):
        with pytest.raises(ValueError, match="outside range"):
            Matrix(rows, ncols)

    def test_declared_width_must_match_dense_rows(self):
        with pytest.raises(ValueError, match="declared 3 columns, rows have 2"):
            Matrix([[1, 2]], 3)
        with pytest.raises(ValueError, match="declared 1 columns"):
            Matrix([[1, 2], {0: 1}], 1)

    def test_from_cols(self):
        assert Matrix.from_cols([(1, 2, 3), (4, 5, 6)]).rows == ((1, 4), (2, 5), (3, 6))
        assert Matrix.from_cols(iter([[Fraction(2, 1)]])).rows == ((2,),)
        assert Matrix.from_cols([], 3).shape == (3, 0)
        assert Matrix.from_cols([]).shape == (0, 0)
        assert Matrix.from_cols([(), ()], 0).shape == (0, 2)
        m = Matrix([[1, -2, 0], [3, 1, 2]], 3)
        assert Matrix.from_cols(m.transpose().rows, m.nrows) == m

    def test_shape_arithmetic(self):
        a = Matrix([[1, 2], [3, 4]], 2)
        b = Matrix([[0, 1], [1, 0]], 2)
        assert (a + b).rows == ((1, 3), (4, 4))
        assert (a - b).rows == ((1, 1), (2, 4))
        assert (-a).rows == ((-1, -2), (-3, -4))
        assert a.scale(2).rows == ((2, 4), (6, 8))
        assert (a @ b).rows == ((2, 1), (4, 3))
        assert a.matvec((1, 1)) == (3, 7)

    def test_empty_transpose_keeps_shape(self):
        z = Matrix.zeros(0, 3)
        assert z.shape == (0, 3)
        assert z.transpose().shape == (3, 0)
        assert z.transpose().transpose().shape == (0, 3)

    def test_block_and_stack(self):
        a = Matrix([[1]], 1)
        b = Matrix([[2, 3]], 2)
        assert block_diag(a, b).rows == ((1, 0, 0), (0, 2, 3))
        assert hstack(a, Matrix([[9]], 1)).rows == ((1, 9),)
        assert vstack(Matrix([[1, 0]], 2), b).rows == ((1, 0), (2, 3))

    def test_det_frozen(self):
        assert Matrix([[1, 2], [3, 4]], 2).det() == -2
        assert Matrix([[2, 0, 1], [1, 1, 0], [0, 3, 1]], 3).det() == 5
        assert Matrix.zeros(0, 0).det() == 1

    @settings(max_examples=60)
    @given(small_matrix)
    def test_det_matches_leibniz(self, rows):
        if len(rows) != len(rows[0]):
            return
        m = Matrix(rows, len(rows[0]))
        assert m.det() == permutation_det(m)

    def test_rank(self):
        assert Matrix([[1, 2], [2, 4]], 2).rank() == 1
        assert Matrix.identity(3).rank() == 3
        assert Matrix.zeros(2, 5).rank() == 0
        # rational entries, rows with different denominators
        assert Matrix([[Fraction(1, 2), Fraction(1, 3)], [3, 2]], 2).rank() == 1
        assert Matrix([[Fraction(1, 2), 0], [0, Fraction(1, 3)]], 2).rank() == 2


# -- the dense arithmetic that Matrix had before its rows became sparse, kept
# as an oracle on tuples of tuples; every result goes through the per-entry
# normalization the dense constructor applied.


def dense(rows):
    return tuple(tuple(map(_norm, row)) for row in rows)


def dense_zip_with(a, b, op):
    return dense(tuple(map(op, r, s)) for r, s in zip(a, b))


def dense_scale(a, c):
    return dense(tuple(map(mul, repeat(_norm(c)), r)) for r in a)


def dense_matmul(a, b, ncols):
    out = []
    for row in a:
        acc = (0,) * ncols
        for x, brow in zip(row, b):
            if x:
                acc = tuple(map(add, acc, map(mul, repeat(x), brow)))
        out.append(acc)
    return dense(out)


def dense_matvec(a, vec):
    support = [t for t, v in enumerate(vec) if v]
    return tuple(sum(row[t] * vec[t] for t in support) for row in a)


def dense_transpose(a, ncols):
    return dense(zip(*a)) if a else ((),) * ncols


def dense_hstack(*mats):
    return dense(tuple(chain.from_iterable(rows)) for rows in zip(*mats))


def dense_vstack(*mats):
    return dense(chain.from_iterable(mats))


def dense_block_diag(*mats_and_widths):
    total = sum(w for _, w in mats_and_widths)
    out, left = [], 0
    for rows, w in mats_and_widths:
        out += [(0,) * left + tuple(r) + (0,) * (total - left - w) for r in rows]
        left += w
    return dense(out)


oracle_entry = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
)


def oracle_rows(nrows, ncols):
    row = st.lists(oracle_entry, min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows).map(dense)


shapes = st.tuples(st.integers(0, 3), st.integers(0, 3))
same_shape_pair = shapes.flatmap(lambda s: st.tuples(st.just(s), oracle_rows(*s), oracle_rows(*s)))
product_pair = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda s: st.tuples(st.just(s), oracle_rows(s[0], s[1]), oracle_rows(s[1], s[2]))
)
one_matrix = shapes.flatmap(lambda s: st.tuples(st.just(s), oracle_rows(*s)))


def assert_oracle(mat, expected, ncols):
    """Same dense read-out with the same entry types, and no stored zero."""
    assert mat.shape == (len(expected), ncols)
    assert mat.rows == expected
    assert [list(map(type, r)) for r in mat.rows] == [list(map(type, r)) for r in expected]
    assert all(all(row.values()) for row in mat.sparse_rows)


class TestSparseAgainstDense:
    @settings(max_examples=120)
    @given(same_shape_pair, oracle_entry)
    def test_sums_and_scaling(self, case, c):
        (nrows, ncols), a, b = case
        A, B = Matrix(a, ncols), Matrix(b, ncols)
        assert_oracle(A, a, ncols)
        assert_oracle(A + B, dense_zip_with(a, b, add), ncols)
        assert_oracle(A - B, dense_zip_with(a, b, sub), ncols)
        assert_oracle(-A, dense_scale(a, -1), ncols)
        assert_oracle(A.scale(c), dense_scale(a, c), ncols)
        combo = linear_combination([(c, A), (0, B), (-3, B)], nrows, ncols)
        assert_oracle(combo, dense_zip_with(dense_scale(a, c), dense_scale(b, -3), add), ncols)
        with pytest.raises(ValueError):
            linear_combination([(1, A)], nrows + 1, ncols)

    @settings(max_examples=120)
    @given(product_pair)
    def test_product_and_matvec(self, case):
        (_, inner, ncols), a, b = case
        A, B = Matrix(a, inner), Matrix(b, ncols)
        assert_oracle(A @ B, dense_matmul(a, b, ncols), ncols)
        # the columns of b: ints, Fractions and zeros.  matvec does not
        # normalize, so the values agree and an int may meet an integral Fraction
        for vec in dense_transpose(b, ncols):
            assert A.matvec(vec) == dense_matvec(a, vec)

    @settings(max_examples=120)
    @given(one_matrix)
    def test_transpose_and_columns(self, case):
        (nrows, ncols), a = case
        A = Matrix(a, ncols)
        assert_oracle(A.transpose(), dense_transpose(a, ncols), nrows)
        assert_oracle(Matrix.from_cols(a, ncols), dense_transpose(a, ncols), nrows)

    @settings(max_examples=120)
    @given(same_shape_pair, one_matrix)
    def test_stacking(self, case, other):
        ((nrows, ncols), a, b), ((_, width), c) = case, other
        A, B, C = Matrix(a, ncols), Matrix(b, ncols), Matrix(c, width)
        assert_oracle(hstack(A, B), dense_hstack(a, b), 2 * ncols)
        assert_oracle(vstack(A, B), dense_vstack(a, b), ncols)
        assert_oracle(block_diag(A, C), dense_block_diag((a, ncols), (c, width)), ncols + width)
        assert_oracle(block_diag(), (), 0)

    @settings(max_examples=120)
    @given(same_shape_pair)
    def test_equality_and_hash(self, case):
        (_, ncols), a, b = case
        A, B = Matrix(a, ncols), Matrix(b, ncols)
        assert (A == B) == (a == b)
        keyed = Matrix([dict(enumerate(row)) for row in a], ncols)
        assert keyed == A and hash(keyed) == hash(A)
        if a == b:
            assert hash(A) == hash(B)
        assert Matrix(a + ((0,) * ncols,), ncols) != A


def assert_canonical(mat):
    """What the checking constructor builds from the dense read-out: the same
    shape and entries, each stored as that constructor stores it (no zero,
    an integral Fraction as int)."""
    fresh = Matrix(mat.rows, mat.ncols)
    assert mat.shape == fresh.shape
    typed = lambda m: [sorted((j, type(v), v) for j, v in r.items()) for r in m.sparse_rows]
    assert typed(mat) == typed(fresh)


class TestInternalBuildsAreCanonical:
    """Results the package builds from its own rows skip the constructor's
    checks; each must equal what the checking constructor would make."""

    @settings(max_examples=150)
    @given(product_pair, oracle_entry)
    def test_arithmetic_and_stacking(self, case, c):
        (nrows, inner, ncols), a, b = case
        A, B = Matrix(a, inner), Matrix(b, ncols)
        results = [A + A.scale(-1), A - A, A.scale(c), -A, A @ B, A.transpose(), B.transpose()]
        results += [vstack(A, A.scale(c)), block_diag(A, B), block_diag(), hstack(A, A)]
        results += [linear_combination([(c, A), (-c, A), (3, A)], nrows, inner)]
        results += [Matrix.zeros(nrows, ncols), Matrix.identity(nrows)]
        for result in results:
            assert_canonical(result)

    @settings(max_examples=80)
    @given(small_matrix)
    def test_normal_forms_and_kernels(self, rows):
        m = Matrix(rows, len(rows[0]))
        other = Matrix(list(reversed(rows)), m.ncols)
        results = [hermite_normal_form(m), *hnf_with_transform(m), left_kernel(m)]
        results += [smith_normal_form(m), kernel_lattice(m).basis]
        results += [relation_hermite_form(m.ncols, m.sparse_rows)]
        lat = Lattice.from_rows(m.ncols, m.sparse_rows)
        results += [saturation(lat).basis]
        results += [lattice_intersection(lat, Lattice.from_rows(m.ncols, other.sparse_rows)).basis]
        for result in results:
            assert_canonical(result)


class TestHermite:
    def test_frozen_example(self):
        h = hermite_normal_form(Matrix([[2, 4], [1, 3]], 2))
        assert h.rows == ((1, 1), (0, 2))

    def test_zero_rows_dropped(self):
        h = hermite_normal_form(Matrix([[1, 2], [2, 4], [3, 6]], 2))
        assert h.rows == ((1, 2),)

    @settings(max_examples=60)
    @given(small_matrix)
    def test_canonical_under_row_operations(self, rows):
        m = Matrix(rows, len(rows[0]))
        h1 = hermite_normal_form(m)
        shuffled = Matrix(list(reversed(rows)), m.ncols)
        assert hermite_normal_form(shuffled) == h1
        # adding one row to another preserves the row lattice
        if m.nrows >= 2:
            bumped = [list(r) for r in rows]
            bumped[0] = [a + b for a, b in zip(bumped[0], bumped[1])]
            assert hermite_normal_form(Matrix(bumped, m.ncols)) == h1

    @settings(max_examples=60)
    @given(small_matrix)
    def test_transform_is_unimodular(self, rows):
        m = Matrix(rows, len(rows[0]))
        h, u = hnf_with_transform(m)
        assert u @ m == h
        assert abs(u.det()) == 1

    def test_pivot_normalization(self):
        h = hermite_normal_form(Matrix([[-2, 1]], 2))
        # pivot made positive
        assert h.rows == ((2, -1),)


class TestKernels:
    def test_left_kernel_frozen(self):
        k = left_kernel(Matrix([[1], [1]], 1))
        assert k.rows == ((1, -1),)

    def test_kernel_lattice_frozen(self):
        lat = kernel_lattice(Matrix([[1, 1]], 2))
        assert lat.basis.rows == ((1, -1),)
        lat2 = kernel_lattice(Matrix([[2, 4]], 2))
        assert lat2.basis.rows == ((2, -1),)

    @settings(max_examples=60)
    @given(small_matrix)
    def test_kernel_annihilates(self, rows):
        m = Matrix(rows, len(rows[0]))
        lat = kernel_lattice(m)
        for v in lat.basis.rows:
            assert m.matvec(v) == tuple([0] * m.nrows)
        assert lat.rank + m.rank() == m.ncols


class TestSmith:
    def test_frozen_diagonals(self):
        s = smith_normal_form(Matrix([[2, 0], [0, 3]], 2))
        assert diagonal(s) == (1, 6)
        s = smith_normal_form(Matrix([[4, 0], [0, 6]], 2))
        assert diagonal(s) == (2, 12)

    @settings(max_examples=80)
    @given(small_matrix)
    def test_decomposition_properties(self, rows):
        """S against its determinantal divisors: d_1 ... d_i is the gcd of
        all i x i minors (Bareiss determinants), and d_i = 0 past the rank."""
        m = Matrix(rows, len(rows[0]))
        s = smith_normal_form(m)
        assert s.shape == m.shape
        assert all(
            s[i, j] == 0 for i in range(s.nrows) for j in range(s.ncols) if i != j
        )
        diag = diagonal(s)
        assert all(x >= 0 for x in diag)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        assert sum(1 for d in diag if d) == m.rank()
        prefix = 1
        for i, d in enumerate(diag, 1):
            prefix *= d
            assert prefix == gcd(
                *(
                    minor(m, r, c)
                    for r in itertools.combinations(range(m.nrows), i)
                    for c in itertools.combinations(range(m.ncols), i)
                )
            )


def random_rows(rng, nrows, ncols, rank=None):
    """Entries in [-9, 9]; with `rank`, a product through Z^rank."""
    def draw(a, b):
        return [[rng.randint(-9, 9) for _ in range(b)] for _ in range(a)]

    if rank is None:
        return draw(nrows, ncols)
    left, right = draw(nrows, rank), draw(rank, ncols)
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]


@pytest.mark.parametrize(
    "nrows, ncols, rank",
    [
        (10, 10, None),
        (8, 12, None),
        (15, 10, 6),
        (20, 20, None),
        (25, 25, 17),
        (12, 30, 9),
        (30, 18, None),
        (30, 30, 20),
    ],
)
def test_smith_matches_sympy_invariant_factors(nrows, ncols, rank):
    pytest.importorskip("sympy")
    from sympy import ZZ, Matrix as SympyMatrix
    from sympy.matrices.normalforms import invariant_factors

    rows = random_rows(random.Random(nrows * 100 + ncols), nrows, ncols, rank)
    expected = invariant_factors(SympyMatrix(rows), domain=ZZ)
    s = smith_normal_form(Matrix(rows, ncols))
    assert diagonal(s) == tuple(int(d) for d in expected)


def assert_hnf_matches_sympy(rows, ncols):
    """Our row HNF spans the lattice of sympy's column HNF of the transpose:
    every sympy column lies in it, the ranks agree and so do the Gram
    determinants, so the two lattices are equal."""
    from sympy import Matrix as SympyMatrix
    from sympy.matrices.normalforms import hermite_normal_form as sympy_hnf

    ours = Lattice.from_rows(ncols, rows)
    theirs = sympy_hnf(SympyMatrix(len(rows), ncols, [v for r in rows for v in r]).T)
    assert theirs.cols == ours.rank
    for j in range(theirs.cols):
        assert ours.contains([int(v) for v in theirs[:, j]])
    basis = SympyMatrix(ours.rank, ncols, [v for r in ours.basis.rows for v in r])
    assert (basis * basis.T).det() == (theirs.T * theirs).det()


@settings(max_examples=60)
@given(small_row_set)
def test_hermite_matches_sympy_on_small_matrices(case):
    pytest.importorskip("sympy")
    ncols, rows = case
    assert_hnf_matches_sympy(rows, ncols)


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("kind", ["tensor", "sym", "ext", "div"])
def test_hermite_matches_sympy_on_relation_matrices(kind, q):
    """The tall, sparse per-class balanced-product relations that the test
    oracles for `reconstruct` and `extend_scalars` reduce."""
    pytest.importorskip("sympy")
    from oracles import _tensor_relation_rows, composition_tables

    from functorlab.functors import extract_morita_module, spec_from_json

    module = extract_morita_module(spec_from_json({kind: 2}), 2)
    products = composition_tables(q, 2, 2, 2)
    rows = _tensor_relation_rows(
        module.generators,
        products,
        module.action,
        module.algebra.basis,
        module.presentation,
    )
    width = len(products) * module.generators
    assert len(rows) > width
    assert_hnf_matches_sympy(Matrix(rows, width).rows, width)


def test_dense_normal_forms_pinned_with_entry_bits():
    """Seeded dense 40 x 40 and 60 x 60 matrices: frozen HNF and Smith forms
    and the largest entry of each, so entry blow-up in the elimination shows
    up here as a failure or a hang."""
    rng = random.Random(0)
    expected = [
        (40, 175, "7de63c4754b5cb45aa830f12e6b203d1b705e504ef16c706eaa0b02745b2331e",
         175, "4c749c65c2282007d2e36ec396e2c8ed76113e5ea509affda7d91151b77e5292"),
        (60, 272, "a667985c41a455e4a788005fa6eda535d4e989977dfc473808e9cf94fc228a9f",
         278, "70b9a27b3a9197f4918d0a0a5f729936fe6722fa3fe5a937970234fc657ac620"),
    ]
    for n, hnf_bits, hnf_digest, smith_bits, smith_digest in expected:
        mat = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], n)
        for form, bits, digest in (
            (hermite_normal_form(mat), hnf_bits, hnf_digest),
            (smith_normal_form(mat), smith_bits, smith_digest),
        ):
            assert max(abs(v).bit_length() for r in form.rows for v in r) == bits
            assert hashlib.sha256(repr(form.rows).encode()).hexdigest() == digest


def hnf_smith_invariants(width, relations):
    """The dense route: Hermite form of the densified relations, then the
    Smith diagonal of its transpose."""
    reduced = hermite_normal_form(Matrix(relations, width))
    diag = diagonal(smith_normal_form(reduced.transpose()))
    return tuple(d for d in diag if d > 1), width - sum(1 for d in diag if d)


# sparse relations over Z^width: unit and non-unit entries, zero entries,
# empty rows, and every other row repeated
sparse_relations = st.integers(0, 6).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(
            st.dictionaries(
                st.integers(0, max(width - 1, 0)),
                st.sampled_from((1, -1, 1, -1, 2, -2, 3, 4, -6, 0)),
                max_size=width,
            ),
            max_size=9,
        ).map(lambda rows: rows + rows[::2]),
    )
)


class TestCokernel:
    def test_frozen(self):
        inv = cokernel_invariants(Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 2]], 3))
        assert inv.torsion == (2,) and inv.free_rank == 0
        inv = cokernel_invariants(Matrix([[2, 4]], 2))
        assert inv.torsion == (2,) and inv.free_rank == 0
        inv = cokernel_invariants(Matrix.zeros(3, 0))
        assert inv.torsion == () and inv.free_rank == 3
        assert inv.trivial is False
        assert cokernel_invariants(Matrix.identity(2)).trivial

    def test_relations_frozen(self):
        inv = relation_invariants(3, [{0: 1, 1: 2}, {1: 2, 2: 4}, {}, {0: 1, 1: 2}])
        assert (inv.torsion, inv.free_rank) == ((2,), 1)
        inv = relation_invariants(2, [{0: 4, 1: 6}, {0: 6, 1: 4}])
        assert (inv.torsion, inv.free_rank) == ((2, 10), 0)
        assert relation_invariants(0, []).trivial
        assert relation_invariants(0, [{}, {}]).trivial
        assert relation_invariants(2, []).free_rank == 2

    def test_relations_rejected(self):
        with pytest.raises(ValueError, match="integer entries"):
            relation_invariants(2, [{0: Fraction(1, 2)}])
        with pytest.raises(ValueError, match="outside"):
            relation_invariants(2, [{2: 1}])
        with pytest.raises(ValueError, match="integer entries"):
            cokernel_invariants(Matrix([[Fraction(1, 2)]], 1))

    @settings(max_examples=200)
    @given(sparse_relations)
    def test_relations_match_dense_route(self, case):
        width, relations = case
        inv = relation_invariants(width, relations)
        assert (inv.torsion, inv.free_rank) == hnf_smith_invariants(width, relations)

    @settings(max_examples=60)
    @given(sparse_relations)
    def test_relations_match_sympy_invariant_factors(self, case):
        pytest.importorskip("sympy")
        from sympy import ZZ, Matrix as SympyMatrix
        from sympy.matrices.normalforms import invariant_factors

        width, relations = case
        dense = Matrix(relations, width)
        factors = ()
        if dense.nrows and width and not dense.is_zero:
            factors = tuple(int(d) for d in invariant_factors(SympyMatrix(dense.to_lists()), domain=ZZ))
        inv = relation_invariants(width, relations)
        assert inv.torsion == tuple(d for d in factors if d > 1)
        assert inv.free_rank == width - sum(1 for d in factors if d)

    @pytest.mark.parametrize("n", [40, 60, 80])
    def test_dense_matches_smith_diagonal(self, n):
        """Dense matrices are full of unit entries, and substituting them out
        grows the rest; the invariants must still be the Smith diagonal's."""
        rng = random.Random(n)
        mat = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], n)
        diag = diagonal(smith_normal_form(mat))
        inv = cokernel_invariants(mat)
        assert inv.torsion == tuple(d for d in diag if d > 1)
        assert inv.free_rank == n - sum(1 for d in diag if d)


def _brute_lead(row, start=0):
    return next((j for j in range(start, len(row)) if row[j]), None)


def brute_echelon(rows, width, transform=None):
    """Oracle for the sparse `_echelon`: the same elimination over dense list
    rows, with the same pivot rule (smallest |entry|, topmost row on ties),
    bucketing by leading column and back-reduction into [0, pivot).  Reduces
    `rows` (and `transform`) in place; returns the pivot columns."""
    stores = (rows, transform) if transform is not None else (rows,)
    at = list(range(len(rows)))  # at[p]: the row standing at position p
    pos = list(range(len(rows)))  # pos[i]: the position of row i
    buckets = [[] for _ in range(width)]
    for i, row in enumerate(rows):
        j = _brute_lead(row)
        if j is not None:
            buckets[j].append(i)
    pivots = []

    def row_sub(i, k, q):
        for store in stores:
            store[i] = [a - q * b for a, b in zip(store[i], store[k])]

    for j in range(width):
        live = buckets[j]
        if not live:
            continue
        r = len(pivots)
        while True:
            best = min(live, key=lambda i: (abs(rows[i][j]), pos[i]))
            other, p = at[r], pos[best]
            at[r], at[p], pos[best], pos[other] = best, other, r, p
            if len(live) == 1:
                break
            a = rows[best][j]
            still = [best]
            for i in live:
                if i != best:
                    row_sub(i, best, rows[i][j] // a)
                    if rows[i][j]:
                        still.append(i)
                    else:
                        lead = _brute_lead(rows[i], j + 1)
                        if lead is not None:
                            buckets[lead].append(i)
            live = still
        if rows[best][j] < 0:
            for store in stores:
                store[best] = [-v for v in store[best]]
        pivots.append(j)

    for store in stores:
        store[:] = [store[i] for i in at]
    for idx, j in enumerate(pivots):
        p = rows[idx][j]
        for i in range(idx):
            q = rows[i][j] // p
            if q:
                row_sub(i, idx, q)
    return pivots


def identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def brute_hnf(rows, width):
    """Nonzero rows of the dense oracle's Hermite form."""
    rows = [list(r) for r in rows]
    return rows[: len(brute_echelon(rows, width))]


def brute_left_kernel(rows, width):
    """Kernel rows off the dense transform, in canonical (Hermite) form."""
    h, u = [list(r) for r in rows], identity_rows(len(rows))
    brute_echelon(h, width, u)
    return brute_hnf([t for r, t in zip(h, u) if not any(r)], len(rows))


def sparse_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


def dense_rows(rows, width):
    return [[row.get(j, 0) for j in range(width)] for row in rows]


# Elimination inputs as (ncols, dense rows):
#  * dense matrices with entries in [-6, 6], 0 x n and n x 0 included;
#  * tall sparse relation-like matrices (up to 24 rows, few entries each);
#  * entries from +-1, +-2 and 0 only, so minimal entries tie and pivots
#    start out negative.
dense_elimination_case = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=5),
    )
)
tall_sparse_case = st.integers(0, 8).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.dictionaries(
                st.integers(0, max(n - 1, 0)),
                st.sampled_from((1, -1, 1, -1, 2, -2, 3, -4, 6, 0)),
                max_size=min(n, 3),
            ).map(lambda row: [row.get(j, 0) for j in range(n)]),
            max_size=24,
        ),
    )
)
tied_case = st.integers(0, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.lists(st.sampled_from((-2, -1, 0, 1, 2)), min_size=n, max_size=n), max_size=6
        ),
    )
)
elimination_case = st.one_of(dense_elimination_case, tall_sparse_case, tied_case)


class TestSparseElimination:
    """The sparse `_echelon` against the dense `brute_echelon`, and every
    normal form built on it against its definition."""

    @settings(max_examples=300)
    @given(elimination_case)
    def test_echelon_matches_dense_oracle(self, case):
        width, rows = case
        dense, dense_u = [list(r) for r in rows], identity_rows(len(rows))
        sparse, sparse_u = sparse_rows(rows), [{i: 1} for i in range(len(rows))]
        assert _echelon(sparse, sparse_u) == brute_echelon(dense, width, dense_u)
        assert dense_rows(sparse, width) == dense
        assert dense_rows(sparse_u, len(rows)) == dense_u
        assert all(0 not in row.values() for row in sparse + sparse_u)
        bare = sparse_rows(rows)
        assert _echelon(bare) == brute_echelon([list(r) for r in rows], width)
        assert dense_rows(bare, width) == dense

    @settings(max_examples=200)
    @given(elimination_case)
    def test_left_kernel_matches_dense_oracle(self, case):
        width, rows = case
        mat = Matrix(rows, width)
        kernel = left_kernel(mat)
        assert kernel.shape == (len(brute_left_kernel(rows, width)), len(rows))
        assert [list(r) for r in kernel.rows] == brute_left_kernel(rows, width)
        for y in kernel.rows:
            assert mat.transpose().matvec(y) == (0,) * width
        lat = kernel_lattice(mat.transpose())
        assert lat.ambient_rank == len(rows) and lat.basis == kernel

    @settings(max_examples=200)
    @given(elimination_case)
    def test_transform_rank_and_solver(self, case):
        width, rows = case
        mat = Matrix(rows, width)
        h, u = hnf_with_transform(mat)
        assert u.shape == (len(rows), len(rows)) and h.shape == mat.shape
        assert u @ mat == h
        assert abs(u.det()) == 1
        pivots = brute_echelon([list(r) for r in rows], width)
        assert mat.rank() == len(pivots)
        assert hermite_normal_form(mat).rows == h.rows[: len(pivots)]
        # targets in the column lattice, and the same moved off it by e_0
        span = [list(c) for c in zip(*rows)]
        for coeffs in ([1] * width, list(range(width)), [(-1) ** j for j in range(width)]):
            target = mat.matvec(coeffs)
            x = solve_int(mat, target)
            assert x is not None and mat.matvec(x) == target
            if rows:
                moved = (target[0] + 1,) + target[1:]
                reachable = brute_hnf(span + [moved], len(rows)) == brute_hnf(span, len(rows))
                x = solve_int(mat, moved)
                assert (x is not None) == reachable
                assert x is None or mat.matvec(x) == moved

    def test_empty_shapes(self):
        for nrows, ncols in ((0, 0), (0, 3), (3, 0)):
            mat = Matrix.zeros(nrows, ncols)
            assert hermite_normal_form(mat).shape == (0, ncols)
            h, u = hnf_with_transform(mat)
            assert h == mat and u == Matrix.identity(nrows)
            assert left_kernel(mat) == Matrix.identity(nrows)
            assert kernel_lattice(mat) == Lattice.from_rows(ncols, Matrix.identity(ncols).rows)
            assert smith_normal_form(mat) == mat
            assert mat.rank() == 0
            assert solve_int(mat, (0,) * nrows) == (0,) * ncols
        assert solve_int(Matrix.zeros(2, 0), (0, 1)) is None

    def test_negative_pivot_and_ties(self):
        h, u = hnf_with_transform(Matrix([[-2, 1], [-2, 3], [2, 0]], 2))
        assert h.rows == ((2, 0), (0, 1), (0, 0))
        assert u @ Matrix([[-2, 1], [-2, 3], [2, 0]], 2) == h
        assert left_kernel(Matrix([[-1], [-1], [1]], 1)).rows == ((1, 0, 1), (0, 1, 1))

    @settings(max_examples=150)
    @given(sparse_relations)
    def test_relation_hermite_form_matches_dense_route(self, case):
        width, relations = case
        assert relation_hermite_form(width, relations) == hermite_normal_form(
            Matrix(relations, width)
        )

    def test_relation_hermite_form_rejects(self):
        with pytest.raises(ValueError, match="integer entries"):
            relation_hermite_form(2, [{0: Fraction(1, 2)}])
        with pytest.raises(ValueError, match="outside"):
            relation_hermite_form(2, [{2: 1}])
        assert relation_hermite_form(3, [{}, {1: 0}]).shape == (0, 3)


lattice_and_vectors = st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=4),
        st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=6),
        st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n), min_size=1, max_size=6),
    )
)


class TestLattices:
    def test_contains(self):
        lat = Lattice.from_rows(2, [(2, 0), (0, 2)])
        assert lat.contains((4, -2))
        assert not lat.contains((1, 0))
        assert lat.contains({1: 6}) and not lat.contains({0: 2, 1: 3})
        for bad in ([(1, 2, 3)], [{2: 1}], [{-1: 1}]):
            with pytest.raises(ValueError):
                Lattice.from_rows(2, bad)
        with pytest.raises(ValueError, match="ambient rank"):
            lat.contains((1,))

    @settings(max_examples=150)
    @given(lattice_and_vectors)
    def test_contains_matches_hermite_oracle(self, case):
        """v lies in L iff appending v to L's basis leaves its Hermite form
        unchanged; vectors are drawn both inside L and anywhere."""
        n, rows, coeffs, free = case
        lat = Lattice.from_rows(n, rows)
        inside = [
            [sum(c * r[j] for c, r in zip(cs, lat.basis.rows)) for j in range(n)]
            for cs in coeffs
        ]
        for vec in inside + free:
            oracle = hermite_normal_form(Matrix(list(lat.basis.rows) + [vec], n)) == lat.basis
            assert lat.contains(vec) == oracle, (lat.basis.rows, vec)
            assert lat.contains(dict(enumerate(vec))) == oracle
        assert all(lat.contains(v) for v in inside)

    def test_pivot_cache_leaves_equality_and_hash(self):
        rows = [(2, 4, 0), (0, 3, 6)]
        used, fresh = Lattice.from_rows(3, rows), Lattice.from_rows(3, rows)
        before = hash(used), repr(used)
        assert used.contains((2, 7, 6)) and not used.contains((1, 0, 0))
        assert (hash(used), repr(used)) == before
        assert used == fresh and hash(used) == hash(fresh)
        assert {used, fresh} == {fresh}
        assert used != Lattice.from_rows(3, [(2, 4, 0)])
        assert [f.name for f in fields(Lattice)] == ["ambient_rank", "basis"]
        with pytest.raises(FrozenInstanceError):
            used.basis = fresh.basis

    def test_intersection_frozen(self):
        two = Lattice.from_rows(1, [(2,)])
        three = Lattice.from_rows(1, [(3,)])
        assert lattice_intersection(two, three).basis.rows == ((6,),)

        evens = Lattice.from_rows(2, [(2, 0), (0, 2)])
        checker = Lattice.from_rows(2, [(1, 1), (1, -1)])
        meet = lattice_intersection(evens, checker)
        assert meet == evens  # evens sit inside the checkerboard lattice

    def test_saturation(self):
        assert saturation(Lattice.from_rows(2, [(2, 0)])).basis.rows == ((1, 0),)
        assert saturation(Lattice.from_rows(2, [(2, 4)])).basis.rows == ((1, 2),)

    @settings(max_examples=80)
    @given(small_row_set)
    def test_saturation_by_definition(self, case):
        """Containing lat, of the same rank and with torsion-free quotient
        pins the saturation down uniquely."""
        n, rows = case
        lat = Lattice.from_rows(n, rows)
        sat = saturation(lat)
        assert all(sat.contains(row) for row in lat.basis.rows)
        assert sat.rank == lat.rank
        assert cokernel_invariants(sat.basis.transpose()).torsion == ()

    def test_saturation_edge_cases(self):
        assert saturation(Lattice.from_rows(3, [])) == Lattice.from_rows(3, [])
        assert saturation(Lattice.from_rows(2, [(2, 1), (1, 3)])) == Lattice.from_rows(2, [(1, 0), (0, 1)])

    def test_index(self):
        assert lattice_index(Lattice.from_rows(2, [(2, 0), (0, 3)])) == 6
        assert lattice_index(Lattice.from_rows(2, [(1, 0)])) is None
        assert lattice_index(Lattice.from_rows(3, Matrix.identity(3).rows)) == 1


class TestSolvers:
    def test_solve_int(self):
        m = Matrix([[2, 0], [0, 2]], 2)
        assert solve_int(m, (2, 4)) == (1, 2)
        assert solve_int(m, (1, 2)) is None
        wide = Matrix([[1, 2, 3]], 3)
        x = solve_int(wide, (7,))
        assert x is not None and wide.matvec(x) == (7,)

    def test_solve_rational(self):
        m = Matrix([[2]], 1)
        assert solve_rational(m, Matrix([[1]], 1)).rows == ((Fraction(1, 2),),)

    def test_rational_inverse(self):
        m = Matrix([[1, 2], [3, 4]], 2)
        inv = rational_inverse(m)
        prod = m @ inv
        assert prod == Matrix.identity(2)
        with pytest.raises(ValueError):
            rational_inverse(Matrix([[1, 2], [2, 4]], 2))
