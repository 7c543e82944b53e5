"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the library's code paths: shuffles are
enumerated by position subsets instead of the recursion, nested sums are
plain numpy partial sums, and series manipulations use naive convolution.
The strict ring (:class:`_StrictRing`) holds exactly the contract of
:mod:`cyclozeta.rings`: its value combines only with its own type, so a
code path that meets a plain int or ``Fraction`` raises ``TypeError``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
import pytest

from cyclozeta.algebra import AlgebraElement
from cyclozeta.groups import construct_group
from cyclozeta.regularization import ZMap
from cyclozeta.rings import RATIONAL
from cyclozeta.words import X0


@pytest.fixture(scope="session")
def Z2():
    return construct_group([2])


@pytest.fixture(scope="session")
def Z3():
    return construct_group([3])


@pytest.fixture(scope="session")
def Z4():
    return construct_group([4])


@pytest.fixture(scope="session")
def Z6():
    return construct_group([6])


@pytest.fixture(scope="session")
def Z12():
    return construct_group([12])


def elem(group, *letters, ring=RATIONAL, kind="x"):
    """One word with coefficient 1; letters are X letters (or Y pairs)."""
    return AlgebraElement.from_word(ring, kind, group, tuple(letters))


def combo(group, *terms, ring=RATIONAL, kind="x"):
    """terms are (coefficient, word-tuple) pairs."""
    acc = AlgebraElement.zero(ring, kind, group)
    for c, w in terms:
        acc = acc + AlgebraElement.from_word(ring, kind, group, w, c)
    return acc


class _Strict:
    """A ring value that adds, subtracts and multiplies only with its own
    type: a product with an int or a ``Fraction``, on either side, raises
    ``TypeError``."""

    __slots__ = ("q",)

    def __init__(self, q: Fraction):
        self.q = q

    def _of(self, other) -> Fraction:
        if type(other) is not type(self):
            raise TypeError(f"{type(self).__name__} combined with {type(other).__name__}")
        return other.q

    def __add__(self, other):
        return type(self)(self.q + self._of(other))

    def __sub__(self, other):
        return type(self)(self.q - self._of(other))

    def __mul__(self, other):
        return type(self)(self.q * self._of(other))

    def __bool__(self):
        return bool(self.q)


class _Counted(_Strict):
    """A :class:`_Strict` value that counts the products it takes part in."""

    __slots__ = ()
    products = 0

    def __mul__(self, other):
        _Counted.products += 1
        return super().__mul__(other)


class _StrictRing:
    """The ring of one value type, with a shared ``one``."""

    def __init__(self, value=_Strict):
        self.value = value
        self.zero = value(Fraction(0))
        self.one = value(Fraction(1))

    def coerce(self, value) -> _Strict:
        if not isinstance(value, (int, Fraction)):
            raise TypeError(f"cannot coerce {value!r}")
        return self.value(Fraction(value))

    def is_zero(self, value) -> bool:
        return not value

    def abs(self, value) -> float:
        return abs(float(value.q))


class _StrictZMap(ZMap):
    """The values of a rational map, wrapped as :class:`_Strict`."""

    def __init__(self, rational: ZMap):
        super().__init__(_StrictRing(), rational.group)
        self.rational = rational

    def eval_word(self, word: tuple) -> _Strict:
        return _Strict(self.rational.eval_word(word))


def _unwrap(value):
    return value.q if isinstance(value, _Strict) else value


def _lift(ring: _StrictRing, a: AlgebraElement) -> AlgebraElement:
    """``a`` over ``ring``; a coefficient 1 becomes the ring's shared one."""
    return AlgebraElement.make(ring, a.kind, a.group, {
        w: ring.one if c == 1 else ring.coerce(c) for w, c in a.terms.items()})


def oracle_shuffle_words(w1: tuple, w2: tuple) -> dict:
    """Interleaving counts via position subsets (independent of the library
    recursion)."""
    n1, n2 = len(w1), len(w2)
    out: dict = {}
    for positions in itertools.combinations(range(n1 + n2), n1):
        word = [None] * (n1 + n2)
        it1 = iter(w1)
        for p in positions:
            word[p] = next(it1)
        it2 = iter(w2)
        for i in range(n1 + n2):
            if i not in positions:
                word[i] = next(it2)
        key = tuple(word)
        out[key] = out.get(key, 0) + 1
    return out


def oracle_shuffle(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    out: dict = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            for w, k in oracle_shuffle_words(w1, w2).items():
                out[w] = out.get(w, 0) + k * c1 * c2
    return AlgebraElement.make(a.ring, a.kind, a.group, out)


def oracle_quasi_shuffle_words(w1: tuple, w2: tuple, diamond_fn) -> dict:
    """Literal transcription of the three-term recursion (no memo)."""
    if not w1:
        return {w2: Fraction(1)}
    if not w2:
        return {w1: Fraction(1)}
    out: dict = {}
    for w, c in oracle_quasi_shuffle_words(w1[1:], w2, diamond_fn).items():
        key = (w1[0],) + w
        out[key] = out.get(key, 0) + c
    for w, c in oracle_quasi_shuffle_words(w1, w2[1:], diamond_fn).items():
        key = (w2[0],) + w
        out[key] = out.get(key, 0) + c
    for letter, lam in diamond_fn(w1[0], w2[0]):
        for w, c in oracle_quasi_shuffle_words(w1[1:], w2[1:], diamond_fn).items():
            key = (letter,) + w
            out[key] = out.get(key, 0) + lam * c
    return out


def oracle_nested_sum(indices, residues, level, terms) -> np.ndarray:
    """Partial sums of the nested series; exact phases via modular reduction."""
    m = np.arange(1, terms + 1, dtype=np.int64)
    tails = np.ones(terms + 1, dtype=np.complex128)
    for k, a in zip(reversed(indices), reversed(residues)):
        phase = np.exp(2j * np.pi * ((a * m) % level) / level)
        body = phase / m.astype(np.float64) ** k * tails[:terms]
        tails = np.concatenate(([0.0], np.cumsum(body)))
    return tails[1:]


def em_tail_oracle(k: int, m: int) -> float:
    """Textbook Euler-Maclaurin tail for sum_{n>m} n^-k."""
    mf = float(m)
    return (mf ** (1 - k) / (k - 1) - mf ** (-k) / 2 + k * mf ** (-k - 1) / 12)


def x0():
    return X0
