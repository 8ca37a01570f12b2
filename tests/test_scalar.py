import math
from fractions import Fraction

import pytest

from holed_entropy import InvalidParameterError, Scalar
from holed_entropy.scalar import (DEFAULT_EPSILON, as_scalar, parse_rational,
                                  rational_str)


def test_exact_construction_reduces():
    s = Scalar.exact(Fraction(6, 8))
    assert s.value == Fraction(3, 4)
    assert s.is_exact
    assert s.epsilon is None


def test_exact_from_strings():
    assert Scalar.exact("3/4").value == Fraction(3, 4)
    assert Scalar.exact("0.75").value == Fraction(3, 4)
    assert Scalar.exact("2").value == 2


def test_float_requires_epsilon():
    with pytest.raises(InvalidParameterError):
        Scalar(0.5)
    s = Scalar.approx(0.5, 1e-9)
    assert not s.is_exact and s.epsilon == 1e-9


@pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
def test_float_must_be_finite(value):
    with pytest.raises(InvalidParameterError):
        Scalar.approx(value)


@pytest.mark.parametrize("epsilon", (0.0, -1e-12, math.nan, math.inf))
def test_epsilon_must_be_positive_and_finite(epsilon):
    with pytest.raises(InvalidParameterError, match="epsilon must be positive"):
        Scalar.approx(0.5, epsilon)


def test_parse_rational_rejects_garbage():
    with pytest.raises(InvalidParameterError):
        parse_rational("three quarters")


def test_rational_str_roundtrip():
    for txt in ["3/4", "-7/2", "5", "0"]:
        assert parse_rational(rational_str(parse_rational(txt))) == parse_rational(txt)


def test_as_scalar_dispatch():
    assert as_scalar(Fraction(1, 2)).is_exact
    assert not as_scalar(0.5).is_exact
    assert as_scalar(0.5).epsilon == DEFAULT_EPSILON
