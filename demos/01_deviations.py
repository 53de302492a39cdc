"""
Deviations and the binomial scaling law
=======================================

A map between free modules is polynomial of degree <= n when all of its
(n+1)-st alternating differences vanish, and numerical when on top of that
its values at scaled arguments follow the binomial pattern.  Everything
below is exact integer arithmetic.
"""
from functorlab import (
    FreeModule,
    SetMap,
    binomial,
    cross_check_conditions,
    deviation,
    is_numerical_degree,
)

line = FreeModule(1)


def scalar_map(f):
    return SetMap(line, line, lambda x: line.from_vector((f(x.vector[0]),)))


def pt(v):
    return line.from_vector((v,))


# the square map: its second deviation at (a, b) is the cross term 2ab
square = scalar_map(lambda t: t * t)
print("deviation of t^2 at (3, 5):", deviation(square, [pt(3), pt(5)]).vector[0])

# third deviations of a quadratic vanish
print("third deviation:", deviation(square, [pt(1), pt(2), pt(3)]).vector[0])

# binomial coefficient maps are the numerical prototypes
choose2 = scalar_map(lambda t: binomial(t, 2))
report = is_numerical_degree(choose2, 2)
print("C(t,2) numerical of degree 2:", report.passed)

# an exponential is not polynomial of any small degree; the report carries
# a concrete witness tuple
pow2 = scalar_map(lambda t: 2 ** max(t, 0))
report = is_numerical_degree(pow2, 3)
print("2^t numerical of degree 3:", report.passed, "witness:", report.witness)

# the same certification can run from a bare table of values at scalar
# multiples: the scaling law predicts every value from the values at 0..n
# by one interpolation combination; that it agrees with the binomials times
# repeated deviations is a binomial identity, checked in the tests
table = {r: pt(r**3 - 2 * r) for r in range(-5, 7)}
print("cubic table at degree 3:", cross_check_conditions(table, 3, range(-5, 7)).passed)
print("cubic table at degree 2:", cross_check_conditions(table, 2, range(-5, 7)).witness)
