"""Free modules with a basis indexed by multisets, their elements, and raw
set maps between them.

MultisetSpace is a free module whose basis is indexed by multisets over the
coordinates of Z^rank, and MultisetVector, the one element class, stores an
element as the tuple of its coefficients in basis order; every identity
checked on these spaces is a matrix identity on such coordinate vectors.
FreeModule(rank) is Z^rank itself: the space on the one-element multisets
{i}, whose basis vector is e_i and whose coefficients are ints.  A point of
Z^rank is passed to a space as a sequence of rank ints.  The truncated
augmentation algebra (augmentation.AugAlgebra) and the divided powers
(divided_powers.GammaModule) are spaces too; their products are methods of
the space that take two elements.

A SetMap is an arbitrary (not necessarily additive) function between spaces;
the deviation calculus consumes those.  A linear map is an integer Matrix
whose columns are the images of the source basis vectors.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from types import MappingProxyType
from typing import Callable

from .combinatorics import Multiset, format_multiset, format_rational, multisets_exactly
from .intlinalg import _INT


def _int_coords(coords, rank: int) -> tuple[int, ...]:
    """The coordinates of a point of Z^rank as a tuple, checked to be rank ints."""
    coords = tuple(coords)
    if not all(isinstance(c, int) for c in coords):
        raise TypeError("coordinates must be integers")
    if len(coords) != rank:
        raise ValueError("coordinate count differs from rank")
    return coords


class MultisetSpace:
    """Free module on the multisets over range(rank) that `basis_of(rank,
    degree)` lists."""

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
        vec = tuple(vec)
        if not _INT.issuperset(map(type, vec)):
            vec = tuple(int(c) if type(c) is Fraction and c.denominator == 1 else c for c in vec)
        if len(vec) != len(self.basis):
            raise ValueError("vector length differs from dimension")
        return MultisetVector(self, vec)

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
        return MultisetVector(self.space, tuple(-c for c in self.vector))

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


class FreeModule(MultisetSpace):
    """Z^rank: the space on the one-element multisets {i}, so that the basis
    vector of {i} is e_i; its coefficients are ints."""

    def __init__(self, rank: int):
        super().__init__(rank, 1, multisets_exactly)

    def from_vector(self, vec) -> MultisetVector:
        return MultisetVector(self, _int_coords(vec, self.rank))

    def basis_vector(self, i: int) -> MultisetVector:
        if not 0 <= i < self.rank:
            raise IndexError(f"basis index {i} out of range")
        return self.basis_element(self.basis[i])


@dataclass(frozen=True)
class SetMap:
    """Arbitrary function between spaces, no additivity assumed."""

    source: MultisetSpace
    target: MultisetSpace
    evaluator: Callable[[MultisetVector], MultisetVector]

    def __call__(self, x: MultisetVector) -> MultisetVector:
        if x.space != self.source:
            raise ValueError("argument lives in the wrong module")
        y = self.evaluator(x)
        if not isinstance(y, MultisetVector) or y.space != self.target:
            raise ValueError("evaluator returned a value outside the target module")
        return y
