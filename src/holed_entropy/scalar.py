"""Scalars with an explicit arithmetic mode.

Every numeric parameter that enters the engines is a :class:`Scalar`: an
exact rational of arbitrary precision, or a binary float carrying a
tolerance epsilon.  Maps, holes, map parameters and weights take exact
values only; a decimal given for them is the rational it spells
(:func:`parse_rational`).  Float mode is left only where the result is
certified anyway: the tower engine's left-hole parameter ``a``, where a
float with tolerance eps stands for the ball [a - eps, a + eps], whose
entropy is enclosed between two exact parameters.  The two modes never mix silently; combining
them raises :class:`~holed_entropy.errors.ModeMismatchError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import InvalidParameterError, ModeMismatchError

DEFAULT_EPSILON = 1e-12

Raw = Union[Fraction, float]


@dataclass(frozen=True)
class Scalar:
    """A rational or floating value tagged with its mode.

    ``epsilon is None`` marks exact mode; otherwise the value is a float and
    ``epsilon``, positive and finite, is the radius of the ball it stands for.
    """

    value: Raw
    epsilon: float | None = None

    def __post_init__(self):
        if isinstance(self.value, bool):
            raise InvalidParameterError("boolean is not a scalar value")
        if isinstance(self.value, float):
            if self.epsilon is None:
                raise InvalidParameterError(
                    "float scalar requires an epsilon; use Scalar.approx()")
            if not (0 < self.epsilon < math.inf):
                raise InvalidParameterError(
                    f"epsilon must be positive and finite, got {self.epsilon}")
            if not math.isfinite(self.value):
                raise InvalidParameterError(f"scalar value {self.value} is not finite")
        elif isinstance(self.value, (int, Fraction)):
            if self.epsilon is not None:
                raise InvalidParameterError("exact scalar must not carry an epsilon")
            object.__setattr__(self, "value", Fraction(self.value))
        else:
            raise InvalidParameterError(f"unsupported scalar value {self.value!r}")

    @staticmethod
    def exact(value) -> "Scalar":
        """Exact scalar from an int, Fraction, or rational string."""
        if isinstance(value, str):
            value = parse_rational(value)
        return Scalar(Fraction(value))

    @staticmethod
    def approx(value: float, epsilon: float = DEFAULT_EPSILON) -> "Scalar":
        return Scalar(float(value), epsilon)

    @property
    def is_exact(self) -> bool:
        return self.epsilon is None

    def _coerce(self, other) -> "Scalar":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            # integers/rationals are mode-agnostic constants
            if self.is_exact:
                return Scalar(Fraction(other))
            return Scalar(float(other), self.epsilon)
        return NotImplemented

    def _require_same_mode(self, other: "Scalar"):
        if self.is_exact != other.is_exact:
            raise ModeMismatchError("cannot mix exact and float scalars")
        if not self.is_exact and self.epsilon != other.epsilon:
            raise ModeMismatchError(
                f"float scalars carry different epsilons: {self.epsilon} vs {other.epsilon}")

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_mode(other)
        return Scalar(op(self.value, other.value), self.epsilon)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return Scalar(-self.value, self.epsilon)

    def __abs__(self):
        return Scalar(abs(self.value), self.epsilon)

    def _cmp_value(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._require_same_mode(other)
        return other.value

    def __lt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.value < v

    def __le__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.value <= v

    def __gt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.value > v

    def __ge__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self.value >= v

    def __float__(self):
        return float(self.value)

    def __repr__(self):
        if self.is_exact:
            return f"Scalar({self.value})"
        return f"Scalar({self.value!r}, eps={self.epsilon})"


def parse_rational(text: str) -> Fraction:
    """Parse "num/den", an integer, or a decimal string as an exact rational."""
    text = text.strip()
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"not a rational: {text!r}") from exc


def rational_str(value: Fraction) -> str:
    """Serialize a rational; non-integers render as "num/den"."""
    return str(Fraction(value))


def as_scalar(value) -> Scalar:
    """Coerce a number into a Scalar.

    ints/Fractions/rational strings become exact; floats become float-mode
    with ``DEFAULT_EPSILON``.
    """
    if isinstance(value, Scalar):
        return value
    if isinstance(value, float):
        return Scalar.approx(value)
    return Scalar.exact(value)


def raw(value) -> Raw:
    """Unwrap a Scalar (or pass a raw number through)."""
    return value.value if isinstance(value, Scalar) else value
