"""Augmentation algebras of free modules, truncated at a fixed degree.

B(rank, degree) is spanned by classes [x] of module elements subject to the
degree-n relations; the deviation classes of basis vectors, indexed by
multisets of size <= degree, form an integral basis.  class_of writes any [x]
in that basis with multiset-binomial coefficients, the product walk
combinatorics.multiset_products over the rows C(x_i, 0..degree).  Both
products below work on the codes of combinatorics.multiset_codes, which
defines them.

Two multiplications matter: the sum product [x][y] = [x + y] (always), and,
when the module is a matrix algebra, the composition product [s][t] = [st].
The sum product has a closed form on the basis: the classes of X and Y
multiply to the class of their union X + Y, or to zero when |X| + |Y| >
degree, so it needs no table; on the codes the union is one addition.  The
composition product reads composition_entries, one entry per pair of basis
classes, each walked when first read: no whole table is built.

Deviation classes are products.  As x -> [x] turns sums into sum products,
[x + y] = [x][y], the deviation of x -> [x] at x_1..x_m is

  sum_S (-1)^(m - |S|) [sum_S x_i] = sum_S (-1)^(m - |S|) prod_{i in S} [x_i]
                                   = prod_i ([x_i] - 1),

expanding the product over which factors give [x_i] and which give -1
(Passi, LNM 715).  So class_of_deviation makes m class vectors and m - 1
sum products, not 2^m classes; [x] - 1 is the class vector of x with its
coefficient on the empty multiset set to zero.

The basis, the elements (coefficient tuples in basis order) and their
additive structure come from modules.MultisetSpace and
modules.MultisetVector; this module adds the normal form and the two
products, methods of the algebra that take two elements.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .combinatorics import Multiset, binomial, multiset_codes, multiset_products, multisets_up_to
from .intlinalg import Matrix
from .modules import MultisetSpace, MultisetVector, _int_coords


def aug_dimension(rank: int, degree: int) -> int:
    """Closed form for the basis count: the sum of C(rank + m - 1, m) over
    m <= degree, which is C(rank + degree, degree) by the hockey stick."""
    return binomial(rank + degree, degree)


def _class_vector(coords, degree: int) -> list[int]:
    """Coefficients of [x] on the basis of B(len(coords), degree): the
    product of C(x_i, m) over the (i, m) pairs of each X."""
    return multiset_products([[binomial(x, m) for m in range(degree + 1)] for x in coords], degree)


class _EntryRow(dict):
    """Row i of composition_entries: j -> walk(j), walked when first read."""

    def __init__(self, walk):
        self.walk = walk

    def __missing__(self, j):
        return self.setdefault(j, self.walk(j))


@lru_cache(maxsize=None)
def composition_entries(side: int, degree: int) -> tuple:
    """[s][t] = [st] on side x side matrices (flattened row-major) at degree:
    entries[i][j] lists the nonzero (index, coefficient) pairs of [X_i][X_j].

    The relation-sum rule: delta_X delta_Y = sum_R delta_{uv : (u, v) in R},
    R over the relations between the positions of X's word of matrix units
    and those of Y's such that both projections are onto, |R| <= degree and
    every pair is composable (u's column is v's row).  Proof sketch: with
    delta_X = sum_{A <= X} (-1)^(|X| - |A|) [sum_A u], the product is the
    alternating sum over A <= X, B <= Y of [sum_{A x B} uv], and
    [sum_{A x B} uv] = sum_{R <= A x B} delta_R.  Mobius inversion over A and
    B keeps exactly the R whose projections are all of X and all of Y.  A
    deviation with a zero argument (a non-composable pair) vanishes, and so
    does one with more than `degree` arguments.  R is built position by
    position of X, each taking a nonempty set of composable Y positions while
    |R| stays within the degree; partial relations covering the same Y
    positions with the same product word are counted together.  A product
    word is carried as its code (combinatorics): a position of X with
    unit (r, s) adds the code of the chosen Y positions' columns t, the sum
    of (degree+1)^t, shifted up r * side digits to row r, so a step is one
    multiply-add.
    """
    base, basis = degree + 1, multisets_up_to(side * side, degree)
    out_index = multiset_codes(side * side, degree)[2]
    right = []
    for Y in basis:
        # per row s of Y's units: the nonempty sets of Y positions in row s,
        # as (size, mask, code of their columns), smallest first
        by_row: dict = {}
        for pos, v in enumerate(Y.indices()):
            by_row.setdefault(v // side, []).append((pos, v % side))
        options = {
            s: [(k, sum(1 << p for p, _ in sub), sum(base**t for _, t in sub))
                for k in range(1, len(cells) + 1) for sub in combinations(cells, k)]
            for s, cells in by_row.items()
        }
        right.append((options, (1 << Y.size) - 1))

    def relation_sum(word, options, full):
        # onto both ways: X's columns and Y's rows are the same set
        if {s for _, s in word} != options.keys():
            return ()
        states = {(0, 0, 0): 1}
        for k, (shift, s) in enumerate(word):
            room = degree - (len(word) - 1 - k)  # each later position needs a pair
            nxt: dict = {}
            for (mask, code, size), count in states.items():
                for more, m, cols in options[s]:
                    if size + more > room:
                        break
                    key = (mask | m, code + cols * shift, size + more)
                    nxt[key] = nxt.get(key, 0) + count
            states = nxt
        onto = ((out_index[code], count) for (mask, code, _), count in states.items() if mask == full)
        return tuple(sorted(onto))

    # per position of X's word, unit (r, s): (the shift to row r, s)
    words = [[(base ** (u // side * side), u % side) for u in X.indices()] for X in basis]
    return tuple(_EntryRow(lambda j, word=word: relation_sum(word, *right[j])) for word in words)


class AugAlgebra(MultisetSpace):
    """Degree-truncated augmentation algebra of Z^rank."""

    def __init__(self, rank: int, degree: int):
        super().__init__(rank, degree, multisets_up_to)

    def one(self) -> MultisetVector:
        """Unit of the sum product: the class of the zero element."""
        return self.basis_element(Multiset())

    def class_of(self, x) -> MultisetVector:
        """Normal form of [x]: multiset-binomial coefficients on the basis."""
        vec = _class_vector(_int_coords(x, self.rank), self.degree)
        return MultisetVector(self, tuple(vec))

    def class_of_deviation(self, xs) -> MultisetVector:
        """Normal form of the deviation class at the given points of Z^rank,
        the deviation of the set map x -> [x]: the sum product of the
        [x_i] - 1, the unit on no points."""
        out = None
        for x in xs:
            vec = _class_vector(_int_coords(x, self.rank), self.degree)
            vec[0] = 0
            factor = MultisetVector(self, tuple(vec))
            out = factor if out is None else self.sum_mul(out, factor)
        return self.basis_element(Multiset()) if out is None else out

    # -- multiplication -------------------------------------------------------

    def sum_mul(self, u: MultisetVector, v: MultisetVector) -> MultisetVector:
        """Bilinear extension of [x][y] = [x + y]: the basis classes of X and
        Y multiply to that of X + Y, or to zero past the degree.  Works on
        the basis codes of multiset_codes: the code of X + Y is a sum."""
        self._check_pair(u, v)
        codes, sizes, index = multiset_codes(self.rank, self.degree)
        terms = [(codes[j], sizes[j], d) for j, d in v.nonzero()]
        out = [0] * len(codes)
        for i, c in u.nonzero():
            code, room = codes[i], self.degree - sizes[i]
            for other, size, d in terms:  # in basis order, so by size
                if size > room:
                    break
                out[index[code + other]] += c * d
        return self.from_vector(out)

    def product_mul(self, u: MultisetVector, v: MultisetVector) -> MultisetVector:
        """Bilinear extension of [s][t] = [s composed with t] (square rank only)."""
        # skip empty entries before touching coefficients, which may be Fractions
        self._check_pair(u, v)
        entries = composition_entries(self.matrix_side, self.degree)
        terms = v.nonzero()
        out = [0] * len(self.basis)
        for i, c in u.nonzero():
            row = entries[i]
            for j, d in terms:
                if e := row[j]:
                    cd = c * d
                    for t, w in e:
                        out[t] += cd * w
        return self.from_vector(out)

    def _check_pair(self, u: MultisetVector, v: MultisetVector):
        if u.space != self or v.space != self:
            raise ValueError("factors live in a different algebra")


def pushforward(chi: Matrix, source_alg: AugAlgebra, target_alg: AugAlgebra) -> Matrix:
    """Matrix of the induced algebra map [x] -> [chi x] on deviation bases.

    chi is an integer matrix whose columns are the images of the source
    basis vectors.  Needs matching truncation degrees; the basis class of X
    goes to the deviation class of the images of its expanded word.
    """
    if source_alg.degree != target_alg.degree:
        raise ValueError("truncation degrees differ")
    if chi.shape != (target_alg.rank, source_alg.rank):
        raise ValueError(f"matrix shape {chi.shape} does not fit the algebras' ranks")
    if not chi.is_integral:
        raise ValueError("linear maps need integer matrices")
    images = chi.transpose().rows
    words = ([images[i] for i in X.indices()] for X in source_alg.basis)
    cols = [target_alg.class_of_deviation(w).vector for w in words]
    return Matrix.from_cols(cols, target_alg.dimension())
