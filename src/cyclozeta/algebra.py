"""Finitely supported linear combinations of words and their products.

The same sparse container backs the full word algebra over X, its
subalgebras of words ending in a group letter (the Y-encodable ones) and the
convergent subalgebra, as well as Y-side combinations.  A degree-truncated
series (:class:`~cyclozeta.series.TruncatedSeries`) is the same container
with a degree bound, and every operation here returns a series when given
one.  Products:

* :func:`shuffle` -- the interleaving product, on either alphabet;
* :func:`quasi_shuffle` -- the generic letter-merging product driven by a
  :class:`DiamondProduct`;
* :func:`harmonic` -- the Y-side specialization merging ``y_{n1,g1}`` and
  ``y_{n2,g2}`` into ``y_{n1+n2, g1 g2}``.

Elements are immutable in practice (no method mutates ``terms``) and all
products are pure functions, so values can be shared freely across threads.

Arithmetic convention: a ring value meets only values of its own ring,
and every int or ``Fraction`` constant (a word count, a scale factor)
enters the ring through ``ring.coerce``, the contract of
:mod:`cyclozeta.rings`.  Word-level products (:func:`shuffle_words`,
:func:`harmonic_words`, :func:`_quasi_shuffle_words`) yield integer counts.
Their caches hold only the pairs of nonempty suffixes that Hoffman's
recursion revisits: :func:`_merge_step` answers a product with an empty
word itself, and :func:`_bilinear` computes each operand pair an element
product requests by one uncached :func:`_merge_step` over those suffixes,
so a repeated identical product recomputes one merge step from cached
suffixes.  The shuffle and harmonic caches live for the process, so later
products of the same words or of their suffixes reuse them; the memo of
any other diamond lives for one :func:`quasi_shuffle` call.  A pair
coefficient is ``c1 * c2``, or the other factor when one of them is the
ring's shared ``one`` (``c1 is one``), so a product of single words builds
no new value.
Each distinct count n of a pair is scaled once, to ``c * ring.coerce(n)``,
or to ``ring.coerce(n)`` when ``c`` is ``one``; count 1 is ``c`` itself.
No loop starts a sum from an int ``0`` (``out[w] = out[w] + term if w in
out else term``).  :meth:`make` prunes the false values, but an element
product tests truth only where a zero can appear (:func:`_bilinear`): at
a pair coefficient ``c1 * c2``, at each scaled count, and, through
:meth:`make`, in a product where two terms met on one word.  The pair loop
(``dmr._pair_residuals``) goes one step further over the rational ring: it
scales a series' coefficients to integers over their common denominator,
sums them as ints, and builds one ``Fraction`` per nonzero residual.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

from .errors import AlphabetMismatchError, ParseError
from .groups import FiniteAbelianGroup
from . import words as W


@dataclass(frozen=True)
class AlgebraElement:
    """A finitely supported map word -> coefficient over one alphabet.

    Every result is built by :meth:`_like`, so a subclass that carries more
    structure (a truncated series) gets results of its own type back.
    """

    ring: object
    kind: str  # 'x' or 'y'
    group: FiniteAbelianGroup
    terms: dict

    #: the fields two operands must share to be combined
    _frame = attrgetter("ring", "kind", "group")

    def __init__(self, ring, kind: str, group: FiniteAbelianGroup, terms: dict):
        # the generated init of a frozen class stores each field through
        # object.__setattr__, which costs twice as much per element
        fields = self.__dict__
        fields["ring"] = ring
        fields["kind"] = kind
        fields["group"] = group
        fields["terms"] = terms

    @staticmethod
    def make(ring, kind, group, mapping: dict) -> "AlgebraElement":
        """Drop the exact zeros of ``mapping``.  Pruning tests the value's
        truthiness, which is ``== 0`` for every coefficient type; it never
        uses a complex ring's tolerance, which is for user-facing
        comparisons, where repeated pruning must not compound."""
        cleaned = {w: c for w, c in mapping.items() if c}
        return AlgebraElement(ring, kind, group, cleaned)

    @classmethod
    def zero(cls, *frame) -> "AlgebraElement":
        """``frame`` is the arguments of :meth:`make` before the mapping."""
        return cls.make(*frame, {})

    @classmethod
    def one(cls, *frame) -> "AlgebraElement":
        return cls.make(*frame, {(): frame[0].one})

    @staticmethod
    def from_word(ring, kind, group, word, coeff=None) -> "AlgebraElement":
        if coeff is None:
            return AlgebraElement(ring, kind, group, {tuple(word): ring.one})
        c = ring.coerce(coeff)
        return AlgebraElement(ring, kind, group, {tuple(word): c} if c else {})

    def _like(self, terms: dict, kind: str | None = None) -> "AlgebraElement":
        """An element of the same space holding ``terms``; ``kind`` moves it
        to the other alphabet."""
        return AlgebraElement.make(self.ring, kind or self.kind, self.group, terms)

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if type(self) is not type(other) or self._frame(self) != other._frame(other):
            raise AlphabetMismatchError(
                f"cannot combine {self.kind}/{self.group} with "
                f"{other.kind}/{other.group}: rings, alphabets or bounds differ")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return self._like(out)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def scale(self, c) -> "AlgebraElement":
        c = self.ring.coerce(c)
        if not c:
            return self._like({})
        return self._like({w: v * c for w, v in self.terms.items()})

    def concat(self, other: "AlgebraElement") -> "AlgebraElement":
        """The noncommutative concatenation product."""
        self._check(other)
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                term = c1 * c2
                out[w] = out[w] + term if w in out else term
        return self._like(out)

    # -- queries ---------------------------------------------------------

    def coeff(self, word):
        return self.terms.get(tuple(word), self.ring.zero)

    def __bool__(self) -> bool:
        """False exactly when no term is stored: the exact zero, which
        pruning drops like a zero scalar."""
        return bool(self.terms)

    def map_words(self, fn: Callable, kind: str | None = None) -> "AlgebraElement":
        """Apply a word -> word map linearly; ``kind`` names the alphabet of
        the image words when ``fn`` changes it."""
        out: dict = {}
        for w, c in self.terms.items():
            nw = fn(w)
            out[nw] = out[nw] + c if nw in out else c
        return self._like(out, kind)

    def __str__(self):
        return format_element_combo(self)


# -- diamond products ---------------------------------------------------------


class DiamondProduct:
    """A commutative, associative product on letters with sparse constants.

    ``mul(a, b)`` returns the finitely many ``(letter, rational)`` pairs of
    ``a <> b``; the empty result is the zero product, which degenerates the
    quasi-shuffle to the plain shuffle.
    """

    def mul(self, a, b) -> Iterable[tuple[object, Fraction]]:
        return ()


class HarmonicDiamond(DiamondProduct):
    """Y-letter merge ``y_{n1,g1} <> y_{n2,g2} = y_{n1+n2, g1 g2}``."""

    def mul(self, a, b):
        (n1, g1), (n2, g2) = a, b
        return (((n1 + n2, g1 * g2), 1),)


ZERO_DIAMOND = DiamondProduct()
HARMONIC_DIAMOND = HarmonicDiamond()


# -- products ------------------------------------------------------------


def _merge_step(w1: tuple, w2: tuple, diamond: DiamondProduct, sub) -> dict:
    """One step of Hoffman's recursion ``a u * b v = a (u * b v) + b (a u * v)
    + (a <> b)(u * v)``, reading the products of shorter pairs from ``sub``;
    the zero diamond drops the last term and leaves the shuffle.  A product
    with an empty word is that word's partner with count 1, which the step
    answers itself, so ``sub`` only ever sees two nonempty words.  The keys
    come in that order, and the pair table and the numeric grouplike
    residuals read it."""
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    a, b = w1[0], w2[0]
    u, v = w1[1:], w2[1:]
    out = {(a,) + word: c for word, c in (sub(u, w2).items() if u else ((w2, 1),))}
    tail = sub(w1, v).items() if v else ((w1, 1),)
    if b != a:  # the b-prefixed words are new keys
        for word, c in tail:
            out[(b,) + word] = c
    else:
        for word, c in tail:
            key = (b,) + word
            out[key] = out.get(key, 0) + c
    for letter, lam in diamond.mul(a, b):
        for word, c in (sub(u, v).items() if u and v else ((u + v, 1),)):
            key = (letter,) + word
            out[key] = out.get(key, 0) + lam * c
    return out


#: the scaled value of a count whose terms are zero and are not written
_DROPPED = object()


def _bilinear(a: AlgebraElement, b: AlgebraElement, diamond: DiamondProduct,
              sub) -> AlgebraElement:
    """Extend a word-level product bilinearly.  Each operand pair is one
    uncached :func:`_merge_step` that reads the shorter suffix pairs from
    ``sub``: its result goes into the output at once and no later step
    reads it, so no cache stores it, and a repeated identical product
    recomputes that one step from the cached suffixes.

    A pair coefficient that is false skips the pair, and a count whose
    scaled value is false drops its words, tested once per distinct count.
    A word pair's step yields each word once, so an output value can be
    zero only where two terms were summed: a plain element is returned as
    built when no word was summed, and :meth:`make` prunes it otherwise.  A
    series goes through ``_like`` either way, which drops the words past
    its bound."""
    a._check(b)
    if not a.terms or not b.terms:
        return a._like({})
    one, coerce = a.ring.one, a.ring.coerce
    out: dict = {}
    summed = False
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            if c1 is one:
                c = c2
            elif c2 is one:
                c = c1
            else:
                c = c1 * c2
                if not c:
                    continue
            multiples = {1: c}
            for word, count in _merge_step(w1, w2, diamond, sub).items():
                term = multiples.get(count)
                if term is None:
                    term = coerce(count) if c is one else c * coerce(count)
                    term = multiples[count] = term if term else _DROPPED
                if term is _DROPPED:
                    continue
                if word in out:
                    out[word] = out[word] + term
                    summed = True
                else:
                    out[word] = term
    if summed or type(a) is not AlgebraElement:
        return a._like(out)
    return AlgebraElement(a.ring, a.kind, a.group, out)


@lru_cache(maxsize=200_000)
def shuffle_words(w1: tuple, w2: tuple) -> Mapping:
    """Interleaving counts of two words; cached for the process, so the
    result is a read-only view.  The cache (at most 200,000 entries) holds
    the pairs of nonempty suffixes that :func:`shuffle`'s merge steps
    revisit and the pairs the regularization tables ask for, not the
    operand pairs of :func:`shuffle` itself, which :func:`_bilinear` copies
    into its result at once.  :func:`~cyclozeta.regularization._tilde_word`
    and ``_regt_word`` also ask for ``(word[:0], ...)``, so the cache does
    hold pairs with an empty word, one per distinct such request: 266 after
    one pass of perfbench's exact-products workload."""
    return MappingProxyType(_merge_step(w1, w2, ZERO_DIAMOND, shuffle_words))


def shuffle(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The bilinear shuffle product."""
    return _bilinear(a, b, ZERO_DIAMOND, shuffle_words)


@lru_cache(maxsize=200_000)
def harmonic_words(w1: tuple, w2: tuple) -> Mapping:
    """Harmonic (stuffle) counts of two Y words, cached for the process like
    :func:`shuffle_words` and under the same rule: the cache (at most
    200,000 entries) holds the pairs of nonempty suffixes that
    :func:`harmonic`'s merge steps revisit, so a later product of the same
    words, or of their suffixes, reads them again."""
    return MappingProxyType(_merge_step(w1, w2, HARMONIC_DIAMOND, harmonic_words))


class _quasi_shuffle_words:
    """The word-level quasi-shuffle ``(w1, w2) -> {word: count}`` for
    ``diamond``, with a memo of its own that lives as long as this callable;
    the suffix pairs the recursion visits recur combinatorially often, and
    :func:`_merge_step` never asks for a pair with an empty word.  The
    recursion receives the callable as an argument, so nothing refers back
    to it and the memo is freed as soon as the last reference to the
    callable goes, without the cycle collector."""

    def __init__(self, diamond: DiamondProduct):
        self.diamond = diamond
        self.memo: dict = {}

    def __call__(self, w1: tuple, w2: tuple) -> dict:
        hit = self.memo.get((w1, w2))
        if hit is None:
            hit = self.memo[w1, w2] = _merge_step(w1, w2, self.diamond, self)
        return hit


#: the process-lived word caches of the built-in diamonds
_WORD_CACHES = {ZERO_DIAMOND: shuffle_words, HARMONIC_DIAMOND: harmonic_words}


def quasi_shuffle(a: AlgebraElement, b: AlgebraElement,
                  diamond: DiamondProduct) -> AlgebraElement:
    """The quasi-shuffle product ``*_<>`` for an arbitrary diamond.  The zero
    and harmonic diamonds read their process caches, :func:`shuffle_words`
    and :func:`harmonic_words`; any other diamond gets a word-level memo
    that lasts for this one call.  Either holds the suffix pairs the
    recursion revisits; each operand pair is one uncached merge step."""
    sub = _WORD_CACHES.get(diamond) or _quasi_shuffle_words(diamond)
    return _bilinear(a, b, diamond, sub)


def harmonic(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The harmonic (stuffle) product on Y-side combinations, through
    :func:`quasi_shuffle`, so its word pairs come from the process cache
    :func:`harmonic_words`."""
    if a.kind != "y":
        raise AlphabetMismatchError("harmonic product needs Y-side input")
    return quasi_shuffle(a, b, HARMONIC_DIAMOND)


# -- label twist and conversions ----------------------------------------------


def qg_apply(a: AlgebraElement, inverse: bool = False) -> AlgebraElement:
    """The label twist ``q_G`` (or its reciprocal) extended linearly."""
    if a.kind == "x":
        return a.map_words(lambda w: W.qg_x_word(w, inverse))
    return a.map_words(lambda w: W.qg_y_word(w, inverse))


def x_to_y(a: AlgebraElement) -> AlgebraElement:
    """Re-encode a combination of words ending in group letters to Y form."""
    if a.kind != "x":
        raise AlphabetMismatchError("x_to_y needs X-side input")
    return a.map_words(W.x_to_y_word, "y")


def y_to_x(a: AlgebraElement) -> AlgebraElement:
    if a.kind != "y":
        raise AlphabetMismatchError("y_to_x needs Y-side input")
    return a.map_words(W.y_to_x_word, "x")


def project_piY(a: AlgebraElement) -> AlgebraElement:
    """Kill monomials ending in x0 and re-encode the rest to Y form."""
    if a.kind != "x":
        raise AlphabetMismatchError("project_piY applies to X-side input")
    kept = a._like({w: c for w, c in a.terms.items() if W.x_word_in_h1(w)})
    return kept.map_words(W.x_to_y_word, "y")


# -- textual form -------------------------------------------------------------


def format_element_combo(a: AlgebraElement) -> str:
    if not a.terms:
        return "0"
    fmt_word = W.format_x_word if a.kind == "x" else W.format_y_word
    if a.kind == "x":
        keys = sorted(a.terms, key=lambda w: (len(w), fmt_word(w)))
    else:
        keys = sorted(a.terms, key=lambda w: (W.y_weight(w), fmt_word(w)))
    parts = []
    for w in keys:
        c = a.terms[w]
        if c == a.ring.one:
            parts.append(fmt_word(w))
        elif c == -a.ring.one:
            parts.append(f"-{fmt_word(w)}")
        else:
            parts.append(f"{a.ring.format(c)}*{fmt_word(w)}")
    return " + ".join(parts)


def _split_top_level(text: str, sep: str):
    """Split on a separator that does not occur inside brackets or parens."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def parse_element_combo(text: str, ring, kind: str,
                        group: FiniteAbelianGroup) -> AlgebraElement:
    """Parse ``coeff*word + coeff*word + ...`` (also bare words)."""
    text = text.strip()
    if text in ("", "0"):
        return AlgebraElement.zero(ring, kind, group)
    normalized = re.sub(r"\s*\+\s*-", " + -", text)
    out: dict = {}
    for chunk in _split_top_level(normalized, "+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        stars = _split_top_level(chunk, "*")
        if len(stars) == 1:
            coeff_text, word_text = None, stars[0].strip()
        elif len(stars) == 2:
            coeff_text, word_text = stars[0].strip(), stars[1].strip()
        else:
            raise ParseError(f"bad term {chunk!r}")
        if coeff_text is None:
            neg = word_text.startswith("-")
            if neg:
                word_text = word_text[1:].strip()
            coeff = -ring.one if neg else ring.one
        else:
            coeff = ring.parse(coeff_text)
        word = (W.parse_x_word(word_text, group) if kind == "x"
                else W.parse_y_word(word_text, group))
        out[word] = out[word] + coeff if word in out else coeff
    return AlgebraElement.make(ring, kind, group, out)
