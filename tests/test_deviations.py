"""Alternating differences and the binomial scaling law for maps of modules.

The running examples are scalar maps: powers are polynomial but not
numerical-normalized, binomial coefficient maps are the numerical
prototypes, and exponentials are not polynomial of any degree.  The
repeated-deviation form of the scaling law is the oracle brute_cross_check
of the interpolation form that cross_check_conditions evaluates.
"""
import pytest
from hypothesis import given, settings, strategies as st

from functorlab.combinatorics import Multiset, binomial
from functorlab.deviations import (
    DeviationReport,
    alternating_sum,
    condition_b_rhs,
    cross_check_conditions,
    deviation,
    is_numerical_degree,
    multiset_deviation,
)
from functorlab.intlinalg import Matrix
from functorlab.modules import FreeModule, SetMap

LINE = FreeModule(1)


def scalar_map(f) -> SetMap:
    return SetMap(LINE, LINE, lambda x: LINE.from_vector((f(x.vector[0]),)))


def val(e) -> int:
    return e.vector[0]


SQUARE = scalar_map(lambda t: t * t)
CUBE = scalar_map(lambda t: t**3)
CHOOSE2 = scalar_map(lambda t: binomial(t, 2))
POW2 = scalar_map(lambda t: 2 ** max(t, 0))


def pt(v: int):
    return LINE.from_vector((v,))


class TestDeviation:
    def test_empty_argument_list_gives_value_at_zero(self):
        f = scalar_map(lambda t: t + 7)
        assert val(deviation(f, [])) == 7

    def test_linear_maps_have_vanishing_second(self):
        f = scalar_map(lambda t: 5 * t)
        assert val(deviation(f, [pt(2), pt(3)])) == 0

    def test_square_cross_term(self):
        # (a+b)^2 - a^2 - b^2 + 0 = 2ab
        for a in range(-3, 4):
            for b in range(-3, 4):
                assert val(deviation(SQUARE, [pt(a), pt(b)])) == 2 * a * b

    def test_cube_triple_term(self):
        for a, b, c in [(1, 1, 1), (2, -1, 3), (0, 4, 2)]:
            assert val(deviation(CUBE, [pt(a), pt(b), pt(c)])) == 6 * a * b * c

    def test_multiset_deviation_expands_word(self):
        X = Multiset.from_indices((0, 0, 1))
        xs = [pt(2), pt(3)]
        assert multiset_deviation(CUBE, xs, X) == deviation(CUBE, [pt(2), pt(2), pt(3)])

    def test_alternating_sum_generic_values(self):
        # works on anything with + and unary -, here plain tuples via a shim
        total = alternating_sum(lambda s: s * s, [1, 2], 0)
        assert total == (3 * 3) - 1 - 4 + 0


class TestNumericalDegree:
    def test_choose2_is_degree_two(self):
        rep = is_numerical_degree(CHOOSE2, 2)
        assert rep.passed, rep.witness

    def test_square_is_degree_two(self):
        rep = is_numerical_degree(SQUARE, 2)
        assert rep.passed, rep.witness

    def test_cube_fails_degree_two(self):
        rep = is_numerical_degree(CUBE, 2)
        assert not rep.passed
        assert rep.witness is not None

    def test_exponential_fails_every_small_degree(self):
        for n in range(4):
            rep = is_numerical_degree(POW2, n)
            assert not rep.passed

    def test_witness_kinds(self):
        rep = is_numerical_degree(CUBE, 2)
        assert rep.witness[0] in ("deviation", "scaling")

    @pytest.mark.parametrize(
        "n,generators,window,used,witness",
        [
            (2, ((1, 0), (0, 1)), (-4, 4), 15, ((0, 1), -3)),
            (3, ((1, 0), (0, 1)), (-5, 5), 19, ((0, 1), -3)),
        ],
    )
    def test_scaling_law_alone_fails(self, n, generators, window, used, witness):
        # a square in each coordinate except at one point off the generators'
        # sums, so every deviation on the generators vanishes and only the
        # scaling law at r = -3 along the second coordinate sees it; witness
        # and sample count as recorded before the law went through
        # cross_check_conditions
        plane = FreeModule(2)

        def f(x):
            a, b = x.vector
            return LINE.from_vector((a * a + (0 if b == -3 else b * b),))

        rep = is_numerical_degree(SetMap(plane, LINE, f), n)
        assert (rep.passed, rep.samples_used, rep.witness) == (False, used, ("scaling", *witness))
        # the plan: the unit vectors, every (n+1)-multiset of them, then the
        # window -(n+2)..n+2 whole along the first and up to r along the second
        lo, hi = window
        assert generators == ((1, 0), (0, 1)) and window == (-(n + 2), n + 2)
        assert used == binomial(len(generators) + n, n + 1) + (hi - lo + 1) + (witness[1] - lo + 1)


class TestScalingLaws:
    def test_square_table_passes_degree_two(self):
        table = {r: pt(r * r) for r in range(-4, 7)}
        rep = cross_check_conditions(table, 2, list(range(-4, 7)))
        assert rep.passed

    def test_square_table_fails_degree_one(self):
        table = {r: pt(r * r) for r in range(-4, 7)}
        rep = cross_check_conditions(table, 1, list(range(-4, 7)))
        assert not rep.passed
        kind, r = rep.witness
        assert kind == "A" and r not in (0, 1)

    def test_missing_point_raises(self):
        with pytest.raises(ValueError):
            cross_check_conditions({0: pt(0)}, 1, [0])
        with pytest.raises(ValueError):
            cross_check_conditions({0: pt(0), 1: pt(1)}, 1, [5])

    def test_interpolation_form_degree_one_closed_form(self):
        # the n=1 right side collapses to -(r-1) f(0) + r f(1)
        table = {0: pt(3), 1: pt(10)}
        for r in range(-5, 6):
            got = condition_b_rhs(table, r, 1)
            assert val(got) == -(r - 1) * 3 + r * 10

    def test_interpolation_agrees_at_grid_points(self):
        table = {m: pt(m**3 - m) for m in range(0, 4)}
        for r in range(0, 4):
            assert condition_b_rhs(table, r, 3) == table[r]

    @settings(max_examples=40)
    @given(st.lists(st.integers(-5, 5), min_size=4, max_size=4))
    def test_integer_cubics_pass_both_laws(self, coeffs):
        a, b, c, d = coeffs

        def f(t):
            return a * t**3 + b * t**2 + c * t + d

        window = list(range(-5, 6))
        table = {r: pt(f(r)) for r in set(window) | set(range(4))}
        rep = cross_check_conditions(table, 3, window)
        assert rep.passed, rep.witness


def brute_cross_check(f_on_scalars, n, r_window) -> DeviationReport:
    """Check the two scaling laws against tabulated values f(r * alpha).

    Law A rebuilds f(r alpha) from binomials times repeated deviations at
    alpha; law B is the interpolation form.  Both are computed from the
    values at 0..n only and compared with the table on the whole window.
    """
    for m in range(n + 1):
        if m not in f_on_scalars:
            raise ValueError(f"missing value at {m}; need all of 0..{n}")
    # k-th repeated deviation at alpha, out of the scalar table alone
    devs = []
    for k in range(n + 1):
        acc = None
        for j in range(k + 1):
            term = f_on_scalars[j].scale((-1) ** (k - j) * binomial(k, j))
            acc = term if acc is None else acc + term
        devs.append(acc)

    used = 0
    for r in r_window:
        if r not in f_on_scalars:
            raise ValueError(f"window point {r} missing from the table")
        used += 1
        lhs = f_on_scalars[r]
        rhs_a = None
        for k in range(n + 1):
            term = devs[k].scale(binomial(r, k))
            rhs_a = term if rhs_a is None else rhs_a + term
        if lhs != rhs_a:
            return DeviationReport(n, used, False, ("A", r))
        rhs_b = condition_b_rhs(f_on_scalars, r, n)
        if lhs != rhs_b:
            return DeviationReport(n, used, False, ("B", r))
    return DeviationReport(n, used, True)


def _report(rep):
    return rep.passed, rep.samples_used, rep.witness


# a window of points, negative ones and repeats included, and a table on the
# window and on 0..n whose values are arbitrary: polynomial ones pass and
# most others fail somewhere, so both verdicts and many witnesses occur
WINDOWS = st.lists(st.integers(-7, 9), max_size=8)
SMALL = st.integers(-4, 4)


def _table(draw, points, value):
    return {r: draw(value) for r in points}


@st.composite
def element_tables(draw):
    n, window = draw(st.integers(0, 4)), draw(WINDOWS)
    rank = draw(st.integers(1, 2))
    module = FreeModule(rank)
    if draw(st.booleans()):
        # polynomial of degree <= d in r, coordinate by coordinate
        d = draw(st.integers(0, 5))
        coeffs = [draw(st.lists(SMALL, min_size=d + 1, max_size=d + 1)) for _ in range(rank)]

        def value(r):
            return module.from_vector(sum(c * r**i for i, c in enumerate(cs)) for cs in coeffs)

        table = {r: value(r) for r in set(window) | set(range(n + 1))}
    else:
        coords = st.tuples(*[st.integers(-50, 50)] * rank)
        table = _table(draw, set(window) | set(range(n + 1)), coords.map(module.from_vector))
    return table, n, window


@st.composite
def matrix_tables(draw):
    n, window = draw(st.integers(0, 4)), draw(WINDOWS)
    shape = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    entries = st.lists(
        st.lists(st.integers(-9, 9), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: Matrix(rows, shape[1]))
    points = set(window) | set(range(n + 1))
    if draw(st.booleans()):
        # C(r, d) times a fixed matrix plus another fixed matrix
        d, a, b = draw(st.integers(0, 5)), draw(entries), draw(entries)
        table = {r: a.scale(binomial(r, d)) + b for r in points}
    else:
        table = _table(draw, points, entries)
    return table, n, window


class TestScalingOracle:
    @settings(max_examples=300, deadline=None)
    @given(element_tables())
    def test_element_tables_match_both_laws(self, case):
        table, n, window = case
        assert _report(cross_check_conditions(table, n, window)) == _report(
            brute_cross_check(table, n, window)
        )

    @settings(max_examples=200, deadline=None)
    @given(matrix_tables())
    def test_matrix_tables_match_both_laws(self, case):
        table, n, window = case
        assert _report(cross_check_conditions(table, n, window)) == _report(
            brute_cross_check(table, n, window)
        )

    def test_weight_identity(self):
        # the weight of f(j alpha) in the repeated-deviation form equals the
        # interpolation weight, for every n <= 8 and r in [-20, 20]; on the
        # unit vectors f(j alpha) = e_j, condition_b_rhs reads the weights out
        for n in range(9):
            space = FreeModule(n + 1)
            units = {j: space.basis_vector(j) for j in range(n + 1)}
            for r in range(-20, 21):
                got = condition_b_rhs(units, r, n).vector
                for j in range(n + 1):
                    law_a = sum(
                        binomial(r, k) * (-1) ** (k - j) * binomial(k, j) for k in range(j, n + 1)
                    )
                    law_b = (-1) ** (n - j) * binomial(r, j) * binomial(r - j - 1, n - j)
                    assert law_a == law_b == got[j], (n, r, j)

    def test_one_failing_point_is_the_witness(self):
        # the squares with one point off: the first window point where the
        # table leaves the parabola is the witness, counted in order
        window = [5, -2, 3, -6, 4]
        table = {r: pt(r * r) for r in range(-6, 7)}
        table[-6] = pt(37)
        assert _report(cross_check_conditions(table, 2, window)) == (False, 4, ("A", -6))
        assert _report(brute_cross_check(table, 2, window)) == (False, 4, ("A", -6))
