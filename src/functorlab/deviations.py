"""Deviation (finite-difference) calculus for maps between free modules.

The m-th deviation of phi at (x_1, ..., x_m) is the alternating sum of
phi over all subset sums; phi has degree <= n exactly when every (n+1)-st
deviation vanishes and the binomial scaling law holds.  The scaling law is
checked once, in its interpolation form (condition_b_rhs); that this is the
repeated-deviation form sum_k C(r, k) Delta^k phi(alpha, ..., alpha) is a
binomial identity, checked in the tests.  Certification samples the unit
vectors of the source and the scalars -(n+2)..n+2.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations_with_replacement
from operator import add
from typing import Mapping, Optional, Sequence

from .combinatorics import Multiset, binomial, signed_subset_sums
from .intlinalg import Matrix, linear_combination
from .modules import MultisetVector, SetMap


def alternating_sum(fn, args: Sequence, zero):
    """Sum of (-1)^(m-|I|) fn(sum of args over I) over all subsets I of [m].

    `zero` is the additive unit of the argument side; values of fn must
    support + and unary -.  The empty argument list gives fn(zero).
    """
    total = None
    for sign, s in signed_subset_sums(args, zero):
        value = fn(s) if sign > 0 else -fn(s)
        total = value if total is None else total + value
    return total


def deviation(phi: SetMap, args: Sequence[MultisetVector]) -> MultisetVector:
    """Deviation of phi at the given arguments; deviation(phi, []) is phi(0)."""
    for x in args:
        if x.space != phi.source:
            raise ValueError("argument lives in the wrong module")
    return alternating_sum(phi, list(args), phi.source.zero())


def multiset_deviation(phi: SetMap, xs: Sequence[MultisetVector], X: Multiset) -> MultisetVector:
    """Deviation at the arguments xs[i] repeated with the multiplicities of X."""
    xs = list(xs)
    for i in X.support:
        if i >= len(xs):
            raise IndexError(f"multiset index {i} exceeds the argument list")
    return deviation(phi, [xs[i] for i in X.indices()])


@dataclass(frozen=True)
class DeviationReport:
    degree_tested: int
    samples_used: int
    passed: bool
    witness: Optional[tuple] = None


def is_numerical_degree(phi: SetMap, n: int) -> DeviationReport:
    """Certify (by sampling) that phi is numerical of degree <= n.

    Checks every (n+1)-tuple drawn from the unit vectors of phi.source for
    vanishing deviation, and, for each unit vector x, the scaling law of
    r -> phi(r x) on the window of scaling_law.
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    gens = [phi.source.basis_vector(i) for i in range(phi.source.rank)]
    used = 0

    for combo in combinations_with_replacement(gens, n + 1):
        used += 1
        if not deviation(phi, combo).is_zero:
            witness = ("deviation", tuple(x.vector for x in combo))
            return DeviationReport(n, used, False, witness)

    for x in gens:
        rep = scaling_law(lambda r: phi(x.scale(r)), n)
        used += rep.samples_used
        if not rep.passed:
            return DeviationReport(n, used, False, ("scaling", x.vector, rep.witness[1]))

    return DeviationReport(n, used, True)


def condition_b_rhs(values: Mapping[int, object], r: int, n: int):
    """The degree-n interpolation combination of values[0..n] evaluated at r:

        sum_m (-1)^(n-m) C(r, m) C(r-m-1, n-m) values[m]

    over the nonzero weights only; it agrees with values[r] for r in 0..n.
    It is the repeated-deviation form sum_k C(r, k) sum_m (-1)^(k-m) C(k, m)
    values[m]: by C(r, k) C(k, m) = C(r, m) C(r-m, k-m) the weight of
    values[m] there is C(r, m) sum_{i <= n-m} (-1)^i C(r-m, i), a partial
    alternating sum equal to (-1)^(n-m) C(r-m-1, n-m).
    """
    if n < 0:
        raise ValueError("degree must be nonnegative")
    pairs = []
    for m in range(n + 1):
        if m not in values:
            raise ValueError(f"missing value at {m}; need all of 0..{n}")
        c = (-1) ** (n - m) * binomial(r, m) * binomial(r - m - 1, n - m)
        if c:
            pairs.append((c, values[m]))
    first = pairs[0][1]
    if isinstance(first, Matrix):
        return linear_combination(pairs, *first.shape)
    return reduce(add, (v.scale(c) for c, v in pairs))


def cross_check_conditions(
    f_on_scalars: Mapping[int, object], n: int, r_window: Sequence[int]
) -> DeviationReport:
    """Check the binomial scaling law against tabulated values f(r * alpha).

    The law's combination of the values at 0..n (condition_b_rhs) is
    compared with the table at each window point in order; the first point
    r where they differ is the witness ("A", r).
    """
    for m in range(n + 1):
        if m not in f_on_scalars:
            raise ValueError(f"missing value at {m}; need all of 0..{n}")
    used = 0
    for r in r_window:
        if r not in f_on_scalars:
            raise ValueError(f"window point {r} missing from the table")
        used += 1
        if f_on_scalars[r] != condition_b_rhs(f_on_scalars, r, n):
            return DeviationReport(n, used, False, ("A", r))
    return DeviationReport(n, used, True)


def scaling_law(value_at, n: int) -> DeviationReport:
    """cross_check_conditions on the table r -> value_at(r) over the window
    -(n+2)..n+2, which holds the points 0..n the law interpolates from."""
    window = range(-(n + 2), n + 3)
    return cross_check_conditions({r: value_at(r) for r in window}, n, window)
