"""Divided power modules Gamma^n(Z^rank) and the composition (Schur) product.

The basis is indexed by multisets of size exactly n over the coordinate set;
the n-th divided power of sum(c_i e_i) has coefficient prod(c_i^(a_i)) on the
basis class of A.  The Schur product on Gamma^n of a matrix algebra goes
through the symmetric-tensor embedding that sends a basis class to the orbit
sum of its expanded word, with no multinomial prefactor; embedding and
read-off are mutually inverse on basis classes.  It is the independent side
of the multiplicativity checks; functors tabulates it by Green's rule.

The basis, the elements (coefficient tuples in basis order) and their
additive structure come from modules.MultisetSpace and
modules.MultisetVector; this module adds the divided powers and the Schur
product.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, permutations

from .combinatorics import binomial, multisets_exactly
from .intlinalg import Matrix
from .deviations import deviation
from .modules import FreeModule, MultisetSpace, MultisetVector, SetMap, _int_coords


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
        """The degree-th divided power of a point of Z^rank, given as ints."""
        coords = _int_coords(x, self.rank)
        out = []
        for A in self.basis:
            c = 1
            for i, m in A.pairs:
                c *= coords[i] ** m
                if not c:
                    break
            out.append(c)
        return MultisetVector(self, tuple(out))

    def product_of_elements(self, xs) -> MultisetVector:
        """Deviation of the divided power map at exactly `degree` elements.

        This is the product x_1 * ... * x_n of the arguments inside the
        divided power algebra, landing in Gamma^n.
        """
        xs = list(xs)
        if len(xs) != self.degree:
            raise ValueError(f"need exactly {self.degree} factors")
        points = FreeModule(self.rank)
        phi = SetMap(points, self, lambda x: self.divided_power(x.vector))
        return deviation(phi, [points.from_vector(x) for x in xs])


@lru_cache(maxsize=None)
def _monomial_columns(nvars: int, degree: int) -> dict:
    """Column of each monomial of the given degree in nvars variables, in
    the order of multisets_exactly, keyed by its code sum_t (degree+1)^w_t
    over its variable word w."""
    base = degree + 1
    return {
        sum(base**j for j in word): i
        for i, word in enumerate(combinations_with_replacement(range(nvars), degree))
    }


def _word_products(forms, length: int, times, repeat: bool = True) -> list[dict]:
    """The product of the forms b_1..b_n, as a dict {key: coefficient}, per
    word b of the given length over the forms: sorted words, or strictly
    increasing ones without `repeat`, in lexicographic order (the order of
    multisets_exactly, or of itertools.combinations).  `times(acc, form)`
    multiplies a product by one form; the empty product is {0: 1}.  The
    words are expanded depth first, so words sharing a prefix share the
    product of its forms."""
    out = []

    def expand(acc: dict, start: int, depth: int):
        if depth == length:
            out.append(acc)
            return
        for t in range(start, len(forms)):
            expand(times(acc, forms[t]), t if repeat else t + 1, depth + 1)

    expand({0: 1}, 0, 0)
    return out


def _monomial_rows(forms, nvars: int, degree: int):
    """(rows, width): per sorted word b over the sparse linear forms
    {variable: coefficient}, the sparse row {monomial: coefficient} of the
    product of forms b_1..b_n over the `width` monomials (both words in the
    order of multisets_exactly).

    A monomial is keyed by the integer whose base-(degree+1) digits are its
    variable multiplicities, so multiplying by variable j adds (degree+1)^j
    to the key."""
    columns = _monomial_columns(nvars, degree)
    base = degree + 1
    coded = [[(base**j, v) for j, v in form.items()] for form in forms]

    def times(acc: dict, form) -> dict:
        nxt: dict = {}
        for code, c in acc.items():
            for step, v in form:
                nxt[code + step] = nxt.get(code + step, 0) + c * v
        return nxt

    products = _word_products(coded, degree, times)
    return [{columns[code]: c for code, c in acc.items()} for acc in products], len(columns)


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
    return Matrix._sparse(*_monomial_rows(alpha.sparse_rows, alpha.ncols, degree))


def _word_index(word, side: int) -> int:
    idx = 0
    for w in word:
        idx = idx * side + w
    return idx


def tensor_embedding(elem: MultisetVector) -> Matrix:
    """Orbit-sum embedding of Gamma^n(End Z^m) into End of the n-fold tensor
    power of Z^m; basis classes go to sums over distinct unit words."""
    space = elem.space
    side = space.matrix_side
    n = space.degree
    dim = side**n
    t: list[dict] = [{} for _ in range(dim)]
    for A, c in elem.coeffs.items():
        for word in distinct_permutations(A.indices()):
            row = t[_word_index([u // side for u in word], side)]
            j = _word_index([u % side for u in word], side)
            row[j] = row.get(j, 0) + c
    return Matrix._sparse(t, dim)


def tensor_readoff(space: GammaModule, tensor: Matrix) -> MultisetVector:
    """Inverse of the embedding on its image: read each basis coefficient at
    the matrix position of the sorted unit word."""
    side = space.matrix_side
    out = []
    for A in space.basis:
        word = A.indices()
        rows = tuple(u // side for u in word)
        colw = tuple(u % side for u in word)
        out.append(tensor[_word_index(rows, side), _word_index(colw, side)])
    return space.from_vector(out)


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
