"""Augmentation algebras of free modules, truncated at a fixed degree.

B(rank, degree) is spanned by classes [x] of module elements subject to the
degree-n relations; the deviation classes of basis vectors, indexed by
multisets of size <= degree, form an integral basis.  class_of writes any [x]
in that basis with multiset-binomial coefficients, read off per-coordinate
rows C(x_i, 0..degree).

Two multiplications matter: the sum product [x][y] = [x + y] (always), and,
when the module is a matrix algebra, the composition product [s][t] = [st].
The sum product has a closed form on the basis: the classes of X and Y
multiply to the class of their union X + Y, or to zero when |X| + |Y| >
degree, so it needs no table.  The composition product has one table per
(a, b, c, degree), for a x b by b x c matrices: entry [i][j] lists the
nonzero coefficients of the product of two basis classes.  It is built once
per process and shared by every algebra and by functors.reconstruct.

The basis, the elements (coefficient tuples in basis order) and their
additive structure come from modules.MultisetSpace and
modules.MultisetVector; this module adds the normal form and the two
products.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import comb, prod

from .combinatorics import Multiset, binomial, multisets_up_to
from .intlinalg import Matrix
from .modules import Hom, MultisetSpace, MultisetVector


def aug_dimension(rank: int, degree: int) -> int:
    """Closed form for the basis count: sum of C(rank + m - 1, m), m <= degree."""
    return sum(binomial(rank + m - 1, m) for m in range(degree + 1))


def _class_vector(coords, basis, degree: int) -> list[int]:
    """Coefficients of [x] on the basis: the product of C(x_i, m) over the
    (i, m) pairs of each X, read off per-coordinate rows C(x_i, 0..degree)."""
    rows = [[binomial(x, m) for m in range(degree + 1)] for x in coords]
    return [prod(rows[i][m] for i, m in X.pairs) for X in basis]


def _sub_multisets(X: Multiset):
    """(A, w) over sub-multisets A of X, with the basis class of X equal to
    the sum of w [A]: w = (-1)^(|X| - |A|) prod C(m_i, a_i)."""
    out = []
    for sub in product(*(range(m + 1) for _, m in X.pairs)):
        w = (-1) ** (X.size - sum(sub)) * prod(comb(m, a) for (_, m), a in zip(X.pairs, sub))
        out.append((Multiset(tuple((i, a) for (i, _), a in zip(X.pairs, sub) if a)), w))
    return out


@lru_cache(maxsize=None)
def composition_tables(a: int, b: int, c: int, degree: int):
    """Table of [s][t] = [st] for a x b matrices s and b x c matrices t
    (flattened row-major), truncated at degree: table[i][j] holds the nonzero
    (index, coefficient) pairs, on the basis of B(ac), of the product of the
    basis classes of the i-th multiset of B(ab) and the j-th of B(bc).
    Expanding both classes over sub-multisets leaves classes [AB] of integer
    matrix products, each normalised once."""
    left_basis = multisets_up_to(a * b, degree)
    right_basis = multisets_up_to(b * c, degree)
    out_basis = multisets_up_to(a * c, degree)
    left_index = {X: i for i, X in enumerate(left_basis)}
    right_subs = [_sub_multisets(Y) for Y in right_basis]
    classes: dict = {}

    def class_of_product(A: Multiset, B: Multiset) -> list[int]:
        coords = [0] * (a * c)
        for u, m in A.pairs:
            for v, p in B.pairs:
                if u % b == v // c:
                    coords[u // b * c + v % c] += m * p
        key = tuple(coords)
        if key not in classes:
            classes[key] = _class_vector(key, out_basis, degree)
        return classes[key]

    dim = len(out_basis)

    def combine(terms, vector_of) -> list[int]:
        acc = [0] * dim
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
        for subs in map(_sub_multisets, left_basis)
    )
    return tuple(
        tuple(tuple((t, v) for t, v in enumerate(col) if v) for col in row)
        for row in products
    )


class AugElement(MultisetVector):
    """Element of an AugAlgebra, with its two products."""

    def sum_mul(self, other: "AugElement") -> "AugElement":
        return self.space.sum_mul(self, other)

    def product_mul(self, other: "AugElement") -> "AugElement":
        return self.space.product_mul(self, other)


class AugAlgebra(MultisetSpace):
    """Degree-truncated augmentation algebra of Z^rank."""

    element_type = AugElement

    def __init__(self, rank: int, degree: int):
        super().__init__(rank, degree, multisets_up_to)

    def one(self) -> "AugElement":
        """Unit of the sum product: the class of the zero element."""
        return self.basis_element(Multiset())

    def class_of(self, x) -> "AugElement":
        """Normal form of [x]: multiset-binomial coefficients on the basis."""
        vec = _class_vector(self._coords_of(x), self.basis, self.degree)
        return AugElement(self, tuple(vec))

    def class_of_deviation(self, xs) -> "AugElement":
        """Normal form of the deviation class at the given module elements."""
        return self.deviation(self.class_of, xs)

    # -- multiplication -------------------------------------------------------

    def sum_mul(self, u: "AugElement", v: "AugElement") -> "AugElement":
        """Bilinear extension of [x][y] = [x + y]: the basis classes of X and
        Y multiply to that of X + Y, or to zero past the degree."""
        self._check_pair(u, v)
        basis = self.basis
        terms = v.nonzero()
        out = [0] * len(basis)
        for i, c in u.nonzero():
            X = basis[i]
            for j, d in terms:
                Y = basis[j]
                if X.size + Y.size <= self.degree:
                    out[self.basis_index[Multiset.from_pairs(X.pairs + Y.pairs)]] += c * d
        return self.from_vector(out)

    def product_mul(self, u: "AugElement", v: "AugElement") -> "AugElement":
        """Bilinear extension of [s][t] = [s composed with t] (square rank only)."""
        # the table is sparse: skip empty entries before touching coefficients,
        # which may be Fractions
        self._check_pair(u, v)
        side = self.matrix_side
        table = composition_tables(side, side, side, self.degree)
        terms = v.nonzero()
        out = [0] * len(self.basis)
        for i, c in u.nonzero():
            row = table[i]
            for j, d in terms:
                if row[j]:
                    cd = c * d
                    for t, w in row[j]:
                        out[t] += cd * w
        return self.from_vector(out)

    def _check_pair(self, u: "AugElement", v: "AugElement"):
        if u.space != self or v.space != self:
            raise ValueError("factors live in a different algebra")


def pushforward(chi: Hom, source_alg: AugAlgebra, target_alg: AugAlgebra) -> Matrix:
    """Matrix of the induced algebra map [x] -> [chi(x)] on deviation bases.

    Needs matching truncation degrees; the basis class of X goes to the
    deviation class of the images of its expanded word.
    """
    if source_alg.degree != target_alg.degree:
        raise ValueError("truncation degrees differ")
    if chi.source.rank != source_alg.rank or chi.target.rank != target_alg.rank:
        raise ValueError("map ranks do not match the algebras")
    cols = []
    for X in source_alg.basis:
        args = [chi(chi.source.basis_vector(i)) for i in X.indices()]
        cols.append(target_alg.class_of_deviation(args).to_vector())
    return Matrix.from_cols(cols, target_alg.dimension())
