"""Divided power modules Gamma^n(Z^rank) and the composition (Schur) product.

The basis is indexed by multisets of size exactly n over the coordinate set;
the n-th divided power of sum(c_i e_i) has coefficient prod(c_i^(a_i)) on the
basis class of A.  Induced maps and the Schur product on Gamma^n of a matrix
algebra go through the symmetric-tensor embedding that sends a basis class to
the orbit sum of its expanded word, with no multinomial prefactor; embedding
and read-off are mutually inverse on basis classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import isqrt

from .combinatorics import (
    Multiset,
    binomial,
    format_multiset,
    format_rational,
    multisets_exactly,
    parse_multiset,
    parse_rational,
    signed_subset_sums,
)
from .intlinalg import Matrix
from .modules import Element, FreeModule, Hom


def gamma_dimension(rank: int, degree: int) -> int:
    return binomial(rank + degree - 1, degree)


def distinct_permutations(word):
    """Distinct rearrangements of a small word, in sorted order."""
    return sorted(set(permutations(word)))


class GammaModule:
    """Gamma^degree of Z^rank with its multiset basis."""

    def __init__(self, rank: int, degree: int):
        if rank < 0 or degree < 0:
            raise ValueError("rank and degree must be nonnegative")
        self.rank = rank
        self.degree = degree
        self.module = FreeModule(rank)
        self.basis: tuple[Multiset, ...] = multisets_exactly(rank, degree)
        self.basis_index = {A: i for i, A in enumerate(self.basis)}

    def __eq__(self, other):
        return (
            isinstance(other, GammaModule)
            and (self.rank, self.degree) == (other.rank, other.degree)
        )

    def __hash__(self):
        return hash(("gamma", self.rank, self.degree))

    def __repr__(self):
        return f"GammaModule(rank={self.rank}, degree={self.degree})"

    def dimension(self) -> int:
        return len(self.basis)

    def element(self, coeffs: dict) -> "GammaElement":
        clean = {}
        for A, c in coeffs.items():
            if A not in self.basis_index:
                raise ValueError(f"{A} is not a basis multiset of {self!r}")
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
            if c:
                clean[A] = c
        return GammaElement(self, clean)

    def zero(self) -> "GammaElement":
        return GammaElement(self, {})

    def basis_element(self, A: Multiset) -> "GammaElement":
        return self.element({A: 1})

    def from_vector(self, vec) -> "GammaElement":
        vec = tuple(vec)
        if len(vec) != len(self.basis):
            raise ValueError("vector length differs from dimension")
        return self.element({A: v for A, v in zip(self.basis, vec)})

    def _coords_of(self, x) -> tuple[int, ...]:
        if isinstance(x, Element):
            if x.module != self.module:
                raise ValueError("element lives in the wrong module")
            return x.coords
        coords = tuple(int(c) for c in x)
        if len(coords) != self.rank:
            raise ValueError("coordinate count differs from rank")
        return coords

    def divided_power(self, x) -> "GammaElement":
        """The degree-th divided power of a module element."""
        coords = self._coords_of(x)
        out = {}
        for A in self.basis:
            c = 1
            for i, m in A.pairs:
                c *= coords[i] ** m
                if not c:
                    break
            if c:
                out[A] = c
        return GammaElement(self, out)

    def product_of_elements(self, xs) -> "GammaElement":
        """Deviation of the divided power map at exactly `degree` elements.

        This is the product x_1 * ... * x_n of the arguments inside the
        divided power algebra, landing in Gamma^n.
        """
        vectors = [self._coords_of(x) for x in xs]
        if len(vectors) != self.degree:
            raise ValueError(f"need exactly {self.degree} factors")
        total = self.zero()
        for sign, coords in signed_subset_sums(vectors, self.rank):
            term = self.divided_power(coords)
            total = total + (term if sign > 0 else -term)
        return total

    @property
    def matrix_side(self) -> int:
        side = isqrt(self.rank)
        if side * side != self.rank:
            raise ValueError(f"rank {self.rank} is not a square; no Schur product here")
        return side


@dataclass(frozen=True)
class GammaElement:
    space: GammaModule
    coeffs: dict

    def _check(self, other: "GammaElement"):
        if self.space != other.space:
            raise ValueError("elements live in different spaces")

    def __add__(self, other: "GammaElement") -> "GammaElement":
        self._check(other)
        out = dict(self.coeffs)
        for A, c in other.coeffs.items():
            out[A] = out.get(A, 0) + c
        return self.space.element(out)

    def __sub__(self, other: "GammaElement") -> "GammaElement":
        return self + (-other)

    def __neg__(self) -> "GammaElement":
        return GammaElement(self.space, {A: -c for A, c in self.coeffs.items()})

    def scale(self, c) -> "GammaElement":
        return self.space.element({A: c * v for A, v in self.coeffs.items()})

    def __eq__(self, other):
        if not isinstance(other, GammaElement):
            return NotImplemented
        return self.space == other.space and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(
            (self.space, tuple(sorted(self.coeffs.items(), key=lambda p: p[0].sort_key())))
        )

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

    def to_vector(self) -> tuple:
        return tuple(self.coeffs.get(A, 0) for A in self.space.basis)

    def schur_product(self, other: "GammaElement") -> "GammaElement":
        return schur_product(self, other)

    def to_json(self) -> dict:
        return {format_multiset(A): format_rational(c) for A, c in sorted(
            self.coeffs.items(), key=lambda p: p[0].sort_key()
        )}

    @classmethod
    def from_json(cls, space: GammaModule, data: dict) -> "GammaElement":
        return space.element({parse_multiset(k): parse_rational(v) for k, v in data.items()})


def gamma_of_hom(alpha, degree: int) -> Matrix:
    """Matrix of Gamma^degree(alpha) on multiset bases.

    Through the tensor embedding, the entry at (B, A) is the sum over the
    distinct rearrangements w of A of prod_t alpha[b_t, w_t], where b is the
    sorted word of B.  Integral by construction.
    """
    mat = alpha.matrix if isinstance(alpha, Hom) else alpha
    p, q = mat.ncols, mat.nrows
    source = GammaModule(p, degree)
    target = GammaModule(q, degree)
    cols = []
    for A in source.basis:
        words = distinct_permutations(A.indices())
        col = []
        for B in target.basis:
            b = B.indices()
            total = 0
            for w in words:
                term = 1
                for bt, wt in zip(b, w):
                    term *= mat[bt, wt]
                    if not term:
                        break
                total += term
            col.append(total)
        cols.append(col)
    return Matrix.from_cols(cols, target.dimension())


def _word_index(word, side: int) -> int:
    idx = 0
    for w in word:
        idx = idx * side + w
    return idx


def tensor_embedding(elem: GammaElement) -> Matrix:
    """Orbit-sum embedding of Gamma^n(End Z^m) into End of the n-fold tensor
    power of Z^m; basis classes go to sums over distinct unit words."""
    space = elem.space
    side = space.matrix_side
    n = space.degree
    dim = side**n
    t = [[0] * dim for _ in range(dim)]
    for A, c in elem.coeffs.items():
        for word in distinct_permutations(A.indices()):
            rows = tuple(u // side for u in word)
            colw = tuple(u % side for u in word)
            t[_word_index(rows, side)][_word_index(colw, side)] += c
    return Matrix(t, dim)


def tensor_readoff(space: GammaModule, tensor: Matrix) -> GammaElement:
    """Inverse of the embedding on its image: read each basis coefficient at
    the matrix position of the sorted unit word."""
    side = space.matrix_side
    coeffs = {}
    for A in space.basis:
        word = A.indices()
        rows = tuple(u // side for u in word)
        colw = tuple(u % side for u in word)
        c = tensor[_word_index(rows, side), _word_index(colw, side)]
        if c:
            coeffs[A] = c
    return space.element(coeffs)


def schur_product(u: GammaElement, v: GammaElement) -> GammaElement:
    """Composition product on Gamma^n of a matrix algebra.

    Embed both factors as endomorphisms of the tensor power, compose, and
    read the result off; the composite of two symmetric endomorphisms is
    symmetric, so the read-off loses nothing.
    """
    if u.space != v.space:
        raise ValueError("factors live in different spaces")
    composed = tensor_embedding(u) @ tensor_embedding(v)
    return tensor_readoff(u.space, composed)
