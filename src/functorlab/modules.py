"""Finitely generated free abelian groups and raw set maps between them.

A SetMap is an arbitrary (not necessarily additive) function between free
modules; the deviation calculus consumes those.  A linear map is an integer
Matrix whose columns are the images of the source basis vectors.

MultisetSpace is a free module whose basis is indexed by multisets over the
coordinates of Z^rank, and MultisetVector an element of one, stored as the
tuple of its coefficients in basis order; every identity checked on these
spaces is a matrix identity on such coordinate vectors.  A point of Z^rank
is passed to a space as a sequence of rank ints.  Both
the truncated augmentation algebra (augmentation.AugAlgebra, AugElement) and
the divided powers (divided_powers.GammaModule, GammaElement) are built on
them and add only their own products.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import add
from types import MappingProxyType
from typing import Callable

from .combinatorics import (
    Multiset,
    format_multiset,
    format_rational,
    signed_subset_sums,
)


def _int_coords(coords, rank: int) -> tuple[int, ...]:
    """The coordinates of a point of Z^rank as a tuple, checked to be rank ints."""
    coords = tuple(coords)
    if not all(isinstance(c, int) for c in coords):
        raise TypeError("coordinates must be integers")
    if len(coords) != rank:
        raise ValueError("coordinate count differs from rank")
    return coords


@dataclass(frozen=True)
class FreeModule:
    rank: int

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    def zero(self) -> "Element":
        return Element(self, (0,) * self.rank)

    def basis_vector(self, i: int) -> "Element":
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range")
        return Element(self, tuple(int(j == i) for j in range(self.rank)))

    def element(self, coords) -> "Element":
        return Element(self, tuple(coords))


@dataclass(frozen=True)
class Element:
    """Vector with integer coordinates in a fixed free module."""

    module: FreeModule
    coords: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coords", _int_coords(self.coords, self.module.rank))

    def _check(self, other: "Element"):
        if self.module != other.module:
            raise ValueError("elements live in different modules")

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.module, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.module, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Element":
        return Element(self.module, tuple(-a for a in self.coords))

    def scale(self, c: int) -> "Element":
        return Element(self.module, tuple(c * a for a in self.coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)


@dataclass(frozen=True)
class SetMap:
    """Arbitrary function between free modules, no additivity assumed."""

    source: FreeModule
    target: FreeModule
    evaluator: Callable[[Element], Element]

    def __call__(self, x: Element) -> Element:
        if x.module != self.source:
            raise ValueError("argument lives in the wrong module")
        y = self.evaluator(x)
        if not isinstance(y, Element) or y.module != self.target:
            raise ValueError("evaluator returned a value outside the target module")
        return y


class MultisetSpace:
    """Free module on the multisets over range(rank) that `basis_of(rank,
    degree)` lists; subclasses set `element_type` to their element class."""

    element_type: type

    def __init__(self, rank: int, degree: int, basis_of):
        if rank < 0 or degree < 0:
            raise ValueError("rank and degree must be nonnegative")
        self.rank = rank
        self.degree = degree
        self.basis: tuple[Multiset, ...] = basis_of(rank, degree)
        self.basis_index = {X: i for i, X in enumerate(self.basis)}

    def __eq__(self, other):
        # spaces of different kinds never compare equal, whatever their size
        return (
            type(other) is type(self)
            and (self.rank, self.degree) == (other.rank, other.degree)
        )

    def __hash__(self):
        return hash((self.rank, self.degree))

    def __repr__(self):
        return f"{type(self).__name__}(rank={self.rank}, degree={self.degree})"

    def dimension(self) -> int:
        return len(self.basis)

    def from_vector(self, vec) -> "MultisetVector":
        """The element with these coefficients (int or Fraction) in basis
        order; integral Fractions become ints."""
        vec = tuple(
            int(c) if type(c) is Fraction and c.denominator == 1 else c for c in vec
        )
        if len(vec) != len(self.basis):
            raise ValueError("vector length differs from dimension")
        return self.element_type(self, vec)

    def element(self, coeffs: dict) -> "MultisetVector":
        vec = [0] * len(self.basis)
        for X, c in coeffs.items():
            if X not in self.basis_index:
                raise ValueError(f"{X} is not a basis multiset of {self!r}")
            vec[self.basis_index[X]] = c
        return self.from_vector(vec)

    def zero(self) -> "MultisetVector":
        return self.from_vector((0,) * len(self.basis))

    def basis_element(self, X: Multiset) -> "MultisetVector":
        return self.element({X: 1})

    def deviation(self, value_of, xs) -> "MultisetVector":
        """Inclusion-exclusion of value_of over the subset sums of the given
        points of Z^rank: the deviation of the map value_of at xs."""
        vectors = [_int_coords(x, self.rank) for x in xs]
        total = [0] * len(self.basis)
        terms = signed_subset_sums(vectors, (0,) * self.rank, lambda s, a: tuple(map(add, s, a)))
        for sign, coords in terms:
            total = [a + sign * b for a, b in zip(total, value_of(coords).vector)]
        return self.from_vector(total)

    @property
    def matrix_side(self) -> int:
        """Side m when rank = m * m, so that Z^rank is a matrix algebra."""
        side = isqrt(self.rank)
        if side * side != self.rank:
            raise ValueError(
                f"rank {self.rank} is not a square; no composition product here"
            )
        return side


@dataclass(frozen=True)
class MultisetVector:
    """Element of a MultisetSpace: its coefficients (int or Fraction, an
    integral Fraction stored as int) as a tuple in the order of space.basis.
    Build elements through the space (from_vector, element, zero,
    basis_element); the constructor trusts its tuple."""

    space: MultisetSpace
    vector: tuple

    def _check(self, other: "MultisetVector"):
        if self.space != other.space:
            raise ValueError("elements live in different spaces")

    def nonzero(self) -> list:
        """(basis index, coefficient) for each nonzero coefficient."""
        return [(i, c) for i, c in enumerate(self.vector) if c]

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only view of the nonzero coefficients, keyed by basis multiset."""
        basis = self.space.basis
        return MappingProxyType({basis[i]: c for i, c in self.nonzero()})

    def __add__(self, other: "MultisetVector") -> "MultisetVector":
        self._check(other)
        return self.space.from_vector(a + b for a, b in zip(self.vector, other.vector))

    def __sub__(self, other: "MultisetVector") -> "MultisetVector":
        return self + (-other)

    def __neg__(self) -> "MultisetVector":
        return type(self)(self.space, tuple(-c for c in self.vector))

    def scale(self, c) -> "MultisetVector":
        return self.space.from_vector(c * v for v in self.vector)

    def __eq__(self, other):
        if not isinstance(other, MultisetVector):
            return NotImplemented
        return self.space == other.space and self.vector == other.vector

    def __hash__(self):
        return hash((self.space, self.vector))

    @property
    def is_zero(self) -> bool:
        return not any(self.vector)

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.vector)

    def to_json(self) -> dict:
        # basis order is size first, then lex on the expanded word
        return {format_multiset(X): format_rational(c) for X, c in self.coeffs.items()}
