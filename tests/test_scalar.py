"""Single numeric inputs: the one exact coercion that every map, hole and
tower parameter goes through, and the tower engine's float a with the
radius epsilon of the ball it stands for."""

import math
from fractions import Fraction

import pytest

from holed_entropy import InvalidParameterError, entropy_left_hole
from holed_entropy.mapmodel import _exact, parse_rational


def test_exact_construction_reduces():
    x = _exact(Fraction(6, 8))
    assert type(x) is Fraction and x == Fraction(3, 4)
    assert _exact(3) == 3 and type(_exact(3)) is Fraction


def test_exact_from_strings():
    assert _exact("3/4") == Fraction(3, 4)
    assert _exact("0.75") == Fraction(3, 4)
    assert _exact("2") == 2


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_float_must_be_finite(value):
    with pytest.raises(InvalidParameterError, match="is not finite"):
        entropy_left_hole(value)


@pytest.mark.parametrize("epsilon", (0.0, -1e-12, math.nan, math.inf))
def test_epsilon_must_be_positive_and_finite(epsilon):
    with pytest.raises(InvalidParameterError, match="epsilon must be positive"):
        entropy_left_hole(0.7, epsilon=epsilon)
    # the radius is read for a float a only
    assert entropy_left_hole(Fraction(7, 10), epsilon=epsilon).orbit is not None


def test_parse_rational_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        parse_rational("three quarters")
