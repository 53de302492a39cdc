"""Exact combinatorial scalars and canonical multisets.

Everything here is integer arithmetic: binomial coefficients with arbitrary
integer upper index, Stirling numbers of the second kind, the finite
multisets that index the deviation and divided-power bases used elsewhere,
and signed_subset_sums, the walk over the 2^m subsets behind the deviations
of arbitrary set maps (deviations.alternating_sum) and of arrow maps.  The
deviations of x -> [x] and of the divided power map have closed forms
(augmentation, divided_powers) and take no such walk.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod


def binomial(r: int, k: int) -> int:
    """Binomial coefficient C(r, k) for any integer r and k >= 0.

    Defined by the falling factorial r(r-1)...(r-k+1)/k!, so negative upper
    indices are fine: binomial(-1, 2) == 1.
    """
    if k < 0:
        raise ValueError(f"lower index must be nonnegative, got {k}")
    if r >= 0:
        return comb(r, k)
    # reflection for negative upper index
    return (-1) ** k * comb(k - r - 1, k)


def multiset_binomial(coords, X: "Multiset") -> int:
    """Product of binomial(coords[i], m) over the (i, m) pairs of X.

    The empty multiset gives 1.  Indices of X must address coords.
    """
    coords = tuple(coords)
    result = 1
    for i, m in X.pairs:
        if i >= len(coords):
            raise IndexError(f"multiset index {i} out of range for {len(coords)} coordinates")
        result *= binomial(coords[i], m)
    return result


def signed_subset_sums(args, zero) -> list:
    """(sign, sum of args over I) for every subset I of the m arguments, sign
    (-1)^(m - |I|): the terms of an inclusion-exclusion, subset I at the
    position whose bit i is set exactly when args[i] is in I.

    Built by doubling: the terms over args[:i+1] are those over args[:i],
    then each of them with args[i] added and its sign flipped, so every
    subset costs one +.  `zero` is the empty sum.
    """
    terms = [((-1) ** len(args), zero)]
    for a in args:
        terms += [(-sign, s + a) for sign, s in terms]
    return terms


def stirling2(n: int, m: int) -> int:
    """Stirling number of the second kind: set partitions of n into m blocks."""
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    if m > n:
        return 0
    # row-by-row recurrence S(n, m) = m S(n-1, m) + S(n-1, m-1)
    row = [1]
    for nn in range(1, n + 1):
        prev = row
        row = [
            (j * prev[j] if j < len(prev) else 0) + (prev[j - 1] if j > 0 else 0)
            for j in range(nn + 1)
        ]
    return row[m]


def stirling_sum_identity(n: int, m: int) -> int:
    """The alternating sum sum_{r=0}^{m} (-1)^(m-r) C(m, r) r^n.

    Equals m! * stirling2(n, m); note the r = 0 term uses 0^0 = 1.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    return sum((-1) ** (m - r) * comb(m, r) * r**n for r in range(m + 1))


@dataclass(frozen=True)
class Multiset:
    """Finite multiset of nonnegative indices.

    Canonical form: pairs (index, multiplicity) with strictly increasing
    indices and positive multiplicities.  Hashable, so usable as a sparse
    coefficient key.  size, factorial and support are computed on first use
    and kept; equality and hashing see the pairs alone.
    """

    pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        pairs = tuple((int(i), int(m)) for i, m in self.pairs)
        object.__setattr__(self, "pairs", pairs)
        last = -1
        for i, m in pairs:
            if i < 0:
                raise ValueError("indices must be nonnegative")
            if i <= last:
                raise ValueError("indices must be strictly increasing")
            if m < 1:
                raise ValueError("multiplicities must be positive")
            last = i

    @classmethod
    def from_indices(cls, indices) -> "Multiset":
        counts = Counter(indices)
        return cls(tuple(sorted(counts.items())))

    @cached_property
    def size(self) -> int:
        """Total cardinality |X|, counting multiplicity."""
        return sum(m for _, m in self.pairs)

    @cached_property
    def factorial(self) -> int:
        """a! = prod(a_i!) over the multiplicities a_i."""
        return prod(factorial(m) for _, m in self.pairs)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    def indices(self) -> tuple[int, ...]:
        """Expanded sorted word, each index repeated by its multiplicity."""
        return tuple(i for i, m in self.pairs for _ in range(m))

    def __str__(self):
        return format_multiset(self)


@lru_cache(maxsize=None)
def multisets_exactly(rank: int, size: int) -> tuple[Multiset, ...]:
    """All multisets over range(rank) of exactly the given size, in canonical
    (lex on expanded word) order.  Built once per (rank, size); the tuple
    and its multisets are immutable, so callers share it."""
    return tuple(
        Multiset.from_indices(word) for word in combinations_with_replacement(range(rank), size)
    )


@lru_cache(maxsize=None)
def multisets_up_to(rank: int, degree: int) -> tuple[Multiset, ...]:
    """All multisets over range(rank) of size <= degree, ordered by size then
    lex on the expanded word."""
    return tuple(X for size in range(degree + 1) for X in multisets_exactly(rank, size))


def format_multiset(X: Multiset) -> str:
    """Serialize with 1-based indices: {0: 2, 2: 1} -> "1^2,3"; empty -> ""."""
    return ",".join(f"{i + 1}^{m}" if m > 1 else f"{i + 1}" for i, m in X.pairs)


def format_rational(v) -> str:
    v = Fraction(v)
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"

