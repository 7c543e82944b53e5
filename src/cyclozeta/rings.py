"""Coefficient rings for the word algebras.

Coefficients are plain Python values (``Fraction`` for the exact ring,
``complex`` for the numeric one); a ring object supplies constants,
zero/equality tests and the textual form used by the serializers.  Mixed
arithmetic (Fraction times complex, int times Fraction, ...) is delegated to
the Python numeric tower, so algebra code can use ordinary operators.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

# ``Fraction`` is immutable, so every access to the constants shares one
_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class RationalRing:
    """Exact arbitrary-precision rationals."""

    name: str = "rational"

    @property
    def zero(self) -> Fraction:
        return _ZERO

    @property
    def one(self) -> Fraction:
        return _ONE

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into the rational ring")

    def is_zero(self, value) -> bool:
        return value == 0

    def eq(self, a, b) -> bool:
        return a == b

    def abs(self, value) -> float:
        return abs(float(value))

    def format(self, value) -> str:
        return str(Fraction(value))

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc


@dataclass(frozen=True)
class ComplexRing:
    """Complex double precision with an absolute equality tolerance."""

    tolerance: float = 1e-9
    name: str = "complex"

    @property
    def zero(self) -> complex:
        return 0j

    @property
    def one(self) -> complex:
        return 1 + 0j

    def coerce(self, value) -> complex:
        return complex(value)

    def is_zero(self, value) -> bool:
        return abs(value) <= self.tolerance

    def eq(self, a, b) -> bool:
        return abs(a - b) <= self.tolerance

    def abs(self, value) -> float:
        return abs(value)

    def format(self, value) -> str:
        # adding 0 turns a negative-zero part into +0: the sign of a zero
        # depends on the order of the operations that made the value
        return repr(complex(value) + 0)

    def parse(self, text: str) -> complex:
        try:
            value = complex(text.strip())
        except ValueError as exc:
            raise ParseError(f"bad complex literal {text!r}") from exc
        # an infinite part turns into nan parts under complex multiplication
        if not cmath.isfinite(value):
            raise ParseError(f"complex literal {text!r} is not finite")
        return value


RATIONAL = RationalRing()
COMPLEX = ComplexRing()


def ring_from_name(name: str, tolerance: float | None = None):
    if name == "rational":
        return RATIONAL
    if name == "complex":
        return ComplexRing(tolerance) if tolerance is not None else COMPLEX
    raise ParseError(f"unknown ring {name!r}")
