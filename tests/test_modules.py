from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from functorlab.augmentation import AugAlgebra
from functorlab.combinatorics import format_multiset
from functorlab.divided_powers import GammaModule
from functorlab.modules import FreeModule, SetMap


def test_element_arithmetic():
    M = FreeModule(2)
    x = M.from_vector((1, 2))
    y = M.from_vector((3, -1))
    assert (x + y).vector == (4, 1)
    assert (x - y).vector == (-2, 3)
    assert (-x).vector == (-1, -2)
    assert x.scale(3).vector == (3, 6)
    assert M.zero().is_zero and not x.is_zero


def test_element_coords_validated():
    M = FreeModule(2)
    with pytest.raises(ValueError, match="coordinate count"):
        M.from_vector((1,))
    with pytest.raises(TypeError, match="coordinates must be integers"):
        M.from_vector((1, 0.5))
    with pytest.raises(TypeError, match="coordinates must be integers"):
        M.from_vector((1, 1)).scale(Fraction(1, 2))


def test_cross_module_addition_rejected():
    a = FreeModule(2).from_vector((1, 0))
    b = FreeModule(3).from_vector((1, 0, 0))
    with pytest.raises(ValueError):
        a + b
    # a space of another kind is another module, whatever its size
    with pytest.raises(ValueError):
        FreeModule(2).basis_vector(0) + GammaModule(2, 1).from_vector((1, 0))


def test_basis():
    M = FreeModule(3)
    assert [M.basis_vector(i).vector for i in range(3)] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert [X.indices() for X in M.basis] == [(0,), (1,), (2,)]
    with pytest.raises(IndexError):
        M.basis_vector(3)
    with pytest.raises(IndexError):
        M.basis_vector(-1)


def test_setmap_validates_membership():
    M = FreeModule(1)
    doubler = SetMap(M, M, lambda x: M.from_vector((2 * x.vector[0],)))
    assert doubler(M.from_vector((3,))).vector == (6,)
    with pytest.raises(ValueError):
        doubler(FreeModule(2).from_vector((1, 2)))

    for wrong in (FreeModule(2).zero(), (0,), GammaModule(1, 1).zero()):
        bad = SetMap(M, M, lambda x: wrong)
        with pytest.raises(ValueError):
            bad(M.from_vector((1,)))


MULTISET_SPACES = [AugAlgebra(2, 2), AugAlgebra(3, 1), GammaModule(2, 3), GammaModule(3, 2)]


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), "1"])
def test_points_take_integer_coordinates(bad):
    # a point of Z^rank is a sequence of ints: a non-int coordinate is
    # refused, not truncated (1.5 once read as 1, Fraction(1, 2) as 0)
    alg, space = AugAlgebra(2, 2), GammaModule(2, 2)
    calls = [
        lambda: FreeModule(2).from_vector((bad, 2)),
        lambda: alg.class_of((bad, 2)),
        lambda: space.divided_power((bad, 2)),
        lambda: alg.class_of_deviation([(1, 0), (bad, 2)]),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="coordinates must be integers"):
            call()
    with pytest.raises(ValueError, match="coordinate count"):
        alg.class_of((1, 2, 3))
    with pytest.raises(ValueError, match="coordinate count"):
        space.product_of_elements([(1, 0), (1, 2, 3)])

# ints and Fractions, integral ones such as Fraction(4, 2) included
COEFFICIENTS = st.one_of(
    st.integers(-5, 5),
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
)


@st.composite
def sparse_coefficients(draw):
    space = draw(st.sampled_from(MULTISET_SPACES))
    keys = draw(st.lists(st.sampled_from(space.basis), unique=True))
    return space, {X: draw(COEFFICIENTS) for X in keys}


@given(sparse_coefficients())
def test_one_normal_form_per_element(drawn):
    space, coeffs = drawn
    u = space.element(coeffs)
    raw = [0] * space.dimension()
    for X, c in coeffs.items():
        raw[space.basis_index[X]] = c
    routes = [
        space.from_vector(u.vector),
        space.from_vector(raw),
        u + space.zero(),
        u.scale(2).scale(Fraction(1, 2)),
        -(-u),
    ]
    for v in routes:
        assert v == u and hash(v) == hash(u)
        assert [type(c) for c in v.vector] == [type(c) for c in u.vector]
    assert u.is_integral == all(Fraction(c).denominator == 1 for c in coeffs.values())
    assert all(isinstance(c, int) or c.denominator > 1 for c in u.vector)
    assert all(u.coeffs.values())
    assert dict(u.coeffs) == {X: c for X, c in coeffs.items() if c}
    # to_json: the nonzero coefficients in basis order, as exact rationals
    assert list(u.to_json().items()) == [
        (format_multiset(X), str(Fraction(raw[i]))) for i, X in enumerate(space.basis) if raw[i]
    ]
