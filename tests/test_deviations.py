"""Alternating differences and the two scaling laws for maps of modules.

The running examples are scalar maps: powers are polynomial but not
numerical-normalized, binomial coefficient maps are the numerical
prototypes, and exponentials are not polynomial of any degree.
"""
import pytest
from hypothesis import given, settings, strategies as st

from functorlab.combinatorics import Multiset, binomial
from functorlab.deviations import (
    SampleSpec,
    alternating_sum,
    condition_b_rhs,
    cross_check_conditions,
    deviation,
    is_numerical_degree,
    multiset_deviation,
)
from functorlab.modules import FreeModule, SetMap

LINE = FreeModule(1)


def scalar_map(f) -> SetMap:
    return SetMap(LINE, LINE, lambda x: LINE.element((f(x.coords[0]),)))


def val(e) -> int:
    return e.coords[0]


SQUARE = scalar_map(lambda t: t * t)
CUBE = scalar_map(lambda t: t**3)
CHOOSE2 = scalar_map(lambda t: binomial(t, 2))
POW2 = scalar_map(lambda t: 2 ** max(t, 0))


def pt(v: int):
    return LINE.element((v,))


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
        rep = is_numerical_degree(CHOOSE2, 2, SampleSpec.default_for(LINE, 2))
        assert rep.passed, rep.witness

    def test_square_is_degree_two(self):
        rep = is_numerical_degree(SQUARE, 2, SampleSpec.default_for(LINE, 2))
        assert rep.passed, rep.witness

    def test_cube_fails_degree_two(self):
        rep = is_numerical_degree(CUBE, 2, SampleSpec.default_for(LINE, 2))
        assert not rep.passed
        assert rep.witness is not None

    def test_exponential_fails_every_small_degree(self):
        for n in range(4):
            rep = is_numerical_degree(POW2, n, SampleSpec.default_for(LINE, n))
            assert not rep.passed

    def test_witness_kinds(self):
        rep = is_numerical_degree(CUBE, 2, SampleSpec.default_for(LINE, 2))
        assert rep.witness[0] in ("deviation", "scaling")

    @pytest.mark.parametrize(
        "n,generators,window,used,witness",
        [
            (2, ((1, 0), (0, 1)), (-4, 4), 15, ((0, 1), -3)),
            (3, ((1, 0), (0, 1)), (-5, 5), 19, ((0, 1), -3)),
            (2, ((1, 0), (0, 1)), (-5, 1), 14, ((0, 1), -3)),
            (2, ((1, 1), (0, 1)), (-3, -3), 5, ((1, 1), -3)),
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
            a, b = x.coords
            return LINE.element((a * a + (0 if b == -3 else b * b),))

        rep = is_numerical_degree(SetMap(plane, LINE, f), n, SampleSpec(generators, window))
        assert (rep.passed, rep.samples_used, rep.witness) == (False, used, ("scaling", *witness))


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
        assert kind in ("A", "B") and r not in (0, 1)

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


def test_sample_spec_json_round_trip():
    spec = SampleSpec.default_for(FreeModule(2), 2)
    again = SampleSpec.from_json(spec.to_json())
    assert again == spec
