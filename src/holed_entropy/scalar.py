"""The tower engine's input type, and exact parsing of rationals.

Maps, holes, map parameters and weights hold plain Fractions; a decimal
given for them is the rational it spells (:func:`parse_rational`).
A :class:`Scalar` is only the accepted input for one value that may be
either exact or a float ball: the tower engine's left-hole parameter ``a``.
An exact Scalar wraps a Fraction; a float Scalar with tolerance eps stands
for the ball [a - eps, a + eps], whose entropy the tower engine encloses
between two exact parameters.  Scalars do no arithmetic; the engines read
``value`` once.  The map and hole constructors also accept an exact Scalar
and unwrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidParameterError

DEFAULT_EPSILON = 1e-12


@dataclass(frozen=True)
class Scalar:
    """An exact rational or a float ball.

    ``epsilon is None`` marks exact mode; otherwise the value is a float and
    ``epsilon``, positive and finite, is the radius of the ball it stands for.
    """

    value: Fraction | float
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

    ints/Fractions/rational strings become exact; floats become float balls
    with ``DEFAULT_EPSILON``.
    """
    if isinstance(value, Scalar):
        return value
    if isinstance(value, float):
        return Scalar.approx(value)
    return Scalar.exact(value)

