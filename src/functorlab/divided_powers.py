"""Divided power modules Gamma^n(Z^rank) and the composition (Schur) product.

The basis is indexed by multisets of size exactly n over the coordinate set,
the size-n tail of the basis of B(rank, n); the n-th divided power of
sum(c_i e_i) has coefficient prod(c_i^(a_i)) on the basis class of A, the
tail of combinatorics.multiset_products, and a monomial is placed by its
code, defined in combinatorics.multiset_codes.  The Schur product on
Gamma^n of a matrix algebra goes through the symmetric-tensor embedding
that sends a basis class to the orbit sum of its expanded word, with no
multinomial prefactor; embedding and read-off are mutually inverse on basis
classes.  It is the independent side of the multiplicativity checks;
functors tabulates it by Green's rule.  Both read one table per (side,
degree): the matrix positions of each basis class's distinct unit words,
the sorted word first.

The basis, the elements (coefficient tuples in basis order) and their
additive structure come from modules.MultisetSpace and
modules.MultisetVector; this module adds the divided powers and the Schur
product.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .combinatorics import binomial, multiset_codes, multiset_products, multisets_exactly
from .intlinalg import Matrix
from .modules import MultisetSpace, MultisetVector, _int_coords


def gamma_dimension(rank: int, degree: int) -> int:
    return binomial(rank + degree - 1, degree)


def distinct_permutations(word):
    """Distinct rearrangements of a small word, in sorted order."""
    return sorted(set(permutations(word)))


class GammaModule(MultisetSpace):
    """Gamma^degree of Z^rank with its multiset basis."""

    def __init__(self, rank: int, degree: int):
        super().__init__(rank, degree, multisets_exactly)

    def divided_power(self, x) -> MultisetVector:
        """The degree-th divided power of a point of Z^rank, given as ints:
        the size-degree tail of the walk over the rows x_i^0..x_i^degree."""
        rows = [[v**m for m in range(self.degree + 1)] for v in _int_coords(x, self.rank)]
        products = multiset_products(rows, self.degree)
        return MultisetVector(self, tuple(products[len(products) - len(self.basis) :]))

    def product_of_elements(self, xs) -> MultisetVector:
        """Deviation of the divided power map at exactly `degree` elements.

        This is the product x_1 * ... * x_n of the arguments inside the
        divided power algebra, landing in Gamma^n: as e_i^[a] e_i^[b] =
        C(a + b, a) e_i^[a + b], its coefficient on the basis class of A is
        A! times the coefficient of t^A in prod_k sum_i x_k[i] t_i, one
        product of linear forms.
        """
        xs = list(xs)
        if len(xs) != self.degree:
            raise ValueError(f"need exactly {self.degree} factors")
        base = self.degree + 1
        forms = [
            [(base**i, v) for i, v in enumerate(_int_coords(x, self.rank)) if v] for x in xs
        ]
        (expansion,) = _word_products(forms, self.degree, _times_coded, repeat=False)
        columns = _monomial_columns(self.rank, self.degree)
        out = [0] * len(self.basis)
        for code, c in expansion.items():
            t = columns[code]
            out[t] = c * self.basis[t].factorial
        return MultisetVector(self, tuple(out))


def _word_products(forms, length: int, times, repeat: bool = True) -> list[dict]:
    """The product of the forms b_1..b_n, as a dict {key: coefficient}, per
    word b of the given length over the forms: sorted words, or strictly
    increasing ones without `repeat`, in lexicographic order (the order of
    multisets_exactly, or of itertools.combinations).  `times(acc, form)`
    multiplies a product by one form; the empty product is {0: 1}.  The
    words grow one level at a time, from each prefix's product once, so
    words sharing a prefix share the product of its forms."""
    level = [({0: 1}, 0)]
    for _ in range(length):
        level = [
            (times(acc, forms[t]), t if repeat else t + 1)
            for acc, start in level
            for t in range(start, len(forms))
        ]
    return [acc for acc, _ in level]


def _times_coded(acc: dict, form) -> dict:
    """The product of a polynomial {monomial code: coefficient} and a linear
    form given as (code step of its variable, coefficient) pairs."""
    nxt: dict = {}
    get = nxt.get
    for code, c in acc.items():
        for step, v in form:
            key = code + step
            nxt[key] = get(key, 0) + c * v
    return nxt


@lru_cache(maxsize=None)
def _monomial_columns(nvars: int, degree: int) -> dict:
    """Column of each degree-`degree` monomial in nvars variables, in the
    order of multisets_exactly, keyed by the multiset code of its variables:
    the size-degree multisets come last in multiset_codes."""
    codes = multiset_codes(nvars, degree)[0]
    offset = len(codes) - gamma_dimension(nvars, degree)
    return {c: t for t, c in enumerate(codes[offset:])}


def gamma_of_hom(alpha: Matrix, degree: int) -> Matrix:
    """Matrix of Gamma^degree(alpha) on multiset bases.

    Row B, with sorted word b_1..b_n, holds the coefficients of the product
    of alpha's rows b_1, ..., b_n read as linear forms, the coefficient of a
    monomial keyed by its sorted index word A.  Through the tensor embedding
    the entry at (B, A) is the sum over the distinct rearrangements w of A of
    prod_t alpha[b_t, w_t], and the expansion collects exactly those terms.
    Sym^n(alpha), the transpose of Gamma^n(alpha^T) (Roby 1963), expands
    alpha's columns the same way.  Integral by construction.
    """
    columns = _monomial_columns(alpha.ncols, degree)
    coded = [[((degree + 1) ** j, v) for j, v in row.items()] for row in alpha.sparse_rows]
    products = _word_products(coded, degree, _times_coded)
    return Matrix._sparse([{columns[c]: v for c, v in acc.items()} for acc in products], len(columns))


def _word_index(word, side: int) -> int:
    idx = 0
    for w in word:
        idx = idx * side + w
    return idx


@lru_cache(maxsize=None)
def _orbit_positions(side: int, degree: int) -> tuple:
    """Per basis class A of Gamma^degree(End Z^side): the (row, column)
    positions, in End of the degree-fold tensor power of Z^side, of every
    distinct unit word of A, the sorted word first.  A unit word w sits at
    the row of its row indices and the column of its column indices, so
    distinct words, of one class or of two, never share a position."""
    return tuple(
        tuple(
            (_word_index([u // side for u in w], side), _word_index([u % side for u in w], side))
            for w in distinct_permutations(A.indices())
        )
        for A in multisets_exactly(side * side, degree)
    )


def tensor_embedding(elem: MultisetVector) -> Matrix:
    """Orbit-sum embedding of Gamma^n(End Z^m) into End of the n-fold tensor
    power of Z^m; basis classes go to sums over distinct unit words."""
    space = elem.space
    side = space.matrix_side
    positions = _orbit_positions(side, space.degree)
    dim = side**space.degree
    t: list[dict] = [{} for _ in range(dim)]
    for i, c in elem.nonzero():
        for row, col in positions[i]:
            t[row][col] = c
    return Matrix._sparse(t, dim)


def tensor_readoff(space: GammaModule, tensor: Matrix) -> MultisetVector:
    """Inverse of the embedding on its image: read each basis coefficient at
    the matrix position of the sorted unit word."""
    positions = _orbit_positions(space.matrix_side, space.degree)
    return space.from_vector(tensor[orbit[0]] for orbit in positions)


def schur_product(u: MultisetVector, v: MultisetVector) -> MultisetVector:
    """Composition product on Gamma^n of a matrix algebra.

    Embed both factors as endomorphisms of the tensor power, compose, and
    read the result off; the composite of two symmetric endomorphisms is
    symmetric, so the read-off loses nothing.
    """
    if u.space != v.space:
        raise ValueError("factors live in different spaces")
    composed = tensor_embedding(u) @ tensor_embedding(v)
    return tensor_readoff(u.space, composed)
