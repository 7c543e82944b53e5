"""Degree-truncated noncommutative power series.

A series is a word-algebra element with a degree bound: it holds the
coefficients of every word of degree at most the bound over a fixed
alphabet, and absent words are zero.  Read as a functional on the word
algebra, it pairs with polynomials through its coefficients.  X-series are
graded by word length, Y-series by the weight ``sum(n_i)``.  The linear
structure, the label twist and the projection to Y words are those of
:class:`~cyclozeta.algebra.AlgebraElement` and return series; the
concatenation product is exact through the bound, and formal exp/log are
inverse to each other there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter

from .algebra import AlgebraElement
from .errors import DegreeBoundError, InvalidArgumentError
from .groups import FiniteAbelianGroup, GroupElement
from . import words as W


@dataclass(frozen=True)
class Alphabet:
    """The letter universe of a series: kind ('x' or 'y'), the ambient group
    and the tuple of admissible group letters (a subgroup for the restricted
    alphabets used by the distribution maps)."""

    kind: str
    group: FiniteAbelianGroup
    letters: tuple[GroupElement, ...]

    @staticmethod
    def x(group: FiniteAbelianGroup, letters=None) -> "Alphabet":
        return Alphabet("x", group, tuple(letters) if letters is not None
                        else tuple(group.elements()))

    @staticmethod
    def y(group: FiniteAbelianGroup, letters=None) -> "Alphabet":
        return Alphabet("y", group, tuple(letters) if letters is not None
                        else tuple(group.elements()))

    def words_up_to(self, degree: int) -> tuple:
        """Every word up to ``degree``, by degree: X words by length over
        ``x0`` and the letters, Y words by weight.  The tuple is built once
        per alphabet and bound and shared by every caller (see
        :func:`_word_table`)."""
        return _word_table(self, degree)[0]

    def word_degree(self, word: tuple) -> int:
        return len(word) if self.kind == "x" else W.y_weight(word)


@lru_cache(maxsize=4)
def _word_table(alphabet: Alphabet, degree: int) -> tuple[tuple, dict]:
    """``(words, degree_of)``: the words over ``alphabet`` up to ``degree``
    in :meth:`Alphabet.words_up_to` order, and a dict from each to its
    degree.  Series over the alphabet and bound read degrees from it, and
    so does the grouplike pair table, so no layer enumerates the words or
    takes their degrees again.  A ``dmr-check`` reads two tables, the X one
    of its series and the Y one of the corrected series, and both stay
    cached."""
    make = W.x_words_up_to if alphabet.kind == "x" else W.y_words_up_to
    words = tuple(make(alphabet.letters, degree))
    return words, {w: alphabet.word_degree(w) for w in words}


@dataclass(frozen=True)
class TruncatedSeries(AlgebraElement):
    """A word-algebra element holding every coefficient up to ``degree_bound``
    over ``alphabet``; words past the bound are dropped, absent words are
    zero."""

    alphabet: Alphabet
    degree_bound: int

    _frame = attrgetter("ring", "alphabet", "degree_bound")

    @staticmethod
    def make(ring, alphabet, degree_bound, mapping: dict) -> "TruncatedSeries":
        """Keep the nonzero coefficients of the words up to the bound.  A
        word of the word table of the alphabet and bound, built here on
        first use, is within the bound; only a word outside it (past the
        bound, or with a letter outside ``alphabet.letters``, which is kept
        when within the bound) has its degree computed."""
        degree_of = _word_table(alphabet, degree_bound)[1]
        cleaned = {w: c for w, c in mapping.items() if c and (
            w in degree_of or alphabet.word_degree(w) <= degree_bound)}
        return TruncatedSeries(ring, alphabet.kind, alphabet.group, cleaned,
                               alphabet, degree_bound)

    def _like(self, terms: dict, kind: str | None = None) -> "TruncatedSeries":
        alphabet = self.alphabet
        if kind not in (None, alphabet.kind):
            alphabet = Alphabet(kind, alphabet.group, alphabet.letters)
        return TruncatedSeries.make(self.ring, alphabet, self.degree_bound, terms)

    # -- queries -----------------------------------------------------------

    def coeff(self, word):
        word = tuple(word)
        if word not in _word_table(self.alphabet, self.degree_bound)[1]:
            degree = self.alphabet.word_degree(word)
            if degree > self.degree_bound:
                raise DegreeBoundError(
                    f"word of degree {degree} is beyond the bound {self.degree_bound}")
        return self.terms.get(word, self.ring.zero)

    @cached_property
    def _by_degree(self) -> dict:
        alphabet = self.alphabet
        degree_of = _word_table(alphabet, self.degree_bound)[1]
        out: dict = {}
        for w, c in self.terms.items():
            d = degree_of[w] if w in degree_of else alphabet.word_degree(w)
            out.setdefault(d, {})[w] = c
        return out

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        """Concatenation-convolution, exact through the degree bound."""
        self._check(other)
        out: dict = {}
        for d1, level1 in self._by_degree.items():
            for d2, level2 in other._by_degree.items():
                if d1 + d2 > self.degree_bound:
                    continue
                for w1, c1 in level1.items():
                    for w2, c2 in level2.items():
                        w = w1 + w2
                        term = c1 * c2
                        out[w] = out[w] + term if w in out else term
        return self._like(out)


def series_exp(a: TruncatedSeries) -> TruncatedSeries:
    """Formal exponential; requires zero constant term."""
    if a.terms.get(()):
        raise InvalidArgumentError("series_exp needs a zero constant term")
    result = TruncatedSeries.one(a.ring, a.alphabet, a.degree_bound)
    power = result
    for k in range(1, a.degree_bound + 1):
        power = power * a
        if not power.terms:
            break
        result = result + power.scale(Fraction(1, math.factorial(k)))
    return result


def series_log(a: TruncatedSeries) -> TruncatedSeries:
    """Formal logarithm; requires constant term one."""
    if not a.ring.eq(a.terms.get((), a.ring.zero), a.ring.one):
        raise InvalidArgumentError("series_log needs constant term 1")
    x = a - TruncatedSeries.one(a.ring, a.alphabet, a.degree_bound)
    result = TruncatedSeries.zero(a.ring, a.alphabet, a.degree_bound)
    power = TruncatedSeries.one(a.ring, a.alphabet, a.degree_bound)
    for k in range(1, a.degree_bound + 1):
        power = power * x
        if not power.terms:
            break
        result = result + power.scale(Fraction((-1) ** (k + 1), k))
    return result
