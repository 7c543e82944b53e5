"""Shuffle regularization into T-polynomials and the scalar correction maps.

The regularization of a word is the unique shuffle-algebra map that fixes
the convergent words and sends ``x0 -> 0``, ``x1 -> T``.  Two word tables
give it in closed form (Ihara, Kaneko and Zagier 2006):

- ``_tilde_word`` sends x0 to 0: ``v a x0^n -> (-1)^n (v sh x0^n) a`` for a
  group letter ``a``;
- ``_regt_word`` sends x1 to T: ``x1^m b u -> sum_{k=0..m} (-1)^k
  T^(m-k)/(m-k)! b (x1^k sh u)`` for a letter ``b`` other than x1.

They are the map because the shuffle algebra is a polynomial algebra twice
over: ``H = H^1 sh Q[x0]``, with H^1 the words ending in a group letter,
and ``H^1 = H^0 sh Q[x1]``, with H^0 the convergent words.  The first sum
is the constant term of a word as a polynomial in x0 over H^1, the second
the coefficients of a word of H^1 as a polynomial in x1 over H^0, with
``x1^l`` read as ``T^l/l!``.  Both tables hold ``Fraction`` rows, so a word is
regularized over the rationals whatever Z is: Z's ring enters once per
convergent word, as ``ring.coerce(c)``.

The correction automorphisms of A[T], :func:`rho_apply` and
:func:`sigma_apply`, are one action of an exponential ``exp(sum_n c_n u^n)
= sum_j e_j u^j``, sending ``T^l/l!`` to ``sum_j e_j T^(l-j)/(l-j)!``;
they differ only in the ``c_n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .algebra import AlgebraElement, qg_apply, shuffle_words, y_to_x
from .errors import AlphabetMismatchError, DegreeBoundError, NotInH0Error
from .rings import RATIONAL
from .words import X0, x_word_in_h0, x_word_in_h1, format_x_word


# -- T-polynomials ---------------------------------------------------------


@dataclass(frozen=True)
class TPolynomial:
    """A polynomial in one commuting variable T with coefficients in any
    additive domain (scalars, or word combinations for the algebra-valued
    regularization)."""

    coeffs: dict

    @staticmethod
    def make(mapping: dict) -> "TPolynomial":
        """Drop the exact zeros: the falsy coefficients, scalar or element."""
        return TPolynomial({l: c for l, c in mapping.items() if c})

    def coeff(self, l: int, zero=0):
        return self.coeffs.get(l, zero)

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        out = dict(self.coeffs)
        for l, c in other.coeffs.items():
            out[l] = out[l] + c if l in out else c
        return TPolynomial.make(out)

    def mul(self, other: "TPolynomial", multiply) -> "TPolynomial":
        """Convolution in T; ``multiply`` combines coefficients (e.g. shuffle)."""
        out: dict = {}
        for l1, c1 in self.coeffs.items():
            for l2, c2 in other.coeffs.items():
                l = l1 + l2
                term = multiply(c1, c2)
                out[l] = out[l] + term if l in out else term
        return TPolynomial.make(out)


# -- word-level regularization tables -------------------------------------

# the coefficient of every word a table maps to itself, and of every word an
# element is built from without a coefficient: the rational ring's one, so
# ``c is _ONE`` tells a product that it may skip the multiplication
_ONE = RATIONAL.one


@lru_cache(maxsize=200_000)
def _tilde_word(word: tuple) -> tuple:
    """The shuffle-algebra retraction killing x0, identity on words that end
    in a group letter, of one word as ``((word, Fraction), ...)``.  The
    shuffle counts are positive and its words distinct, so no row is zero
    or repeated; the rows enter through ``RATIONAL.coerce``, so they share
    its ``Fraction`` of each int, and a ``+1`` row is ``_ONE``."""
    if x_word_in_h1(word):
        return ((word, _ONE),)
    k = len(word) - 1
    while k >= 0 and word[k] is X0:
        k -= 1
    if k < 0:
        return ()  # pure x0 power maps to 0
    n = len(word) - 1 - k
    a = word[k:k + 1]
    return tuple((w + a, RATIONAL.coerce((-1) ** n * count))
                 for w, count in shuffle_words(word[:k], (X0,) * n).items())


@lru_cache(maxsize=200_000)
def _regt_word(word: tuple) -> tuple:
    """``reg^T`` of one word of the x0-free-tail algebra, as
    ``((l, word, Fraction), ...)``; assumes the word ends in a group letter.
    The shuffle counts are positive and the pairs ``(l, word)`` distinct
    (``l = m - k``), so no row is zero or repeated."""
    if not word or word[0] is X0 or not word[0].is_identity:
        return ((0, word, _ONE),)
    m = 1
    while m < len(word) and word[m] is not X0 and word[m].is_identity:
        m += 1
    if m == len(word):
        return ((m, (), Fraction(1, math.factorial(m))),)
    b, u = word[m:m + 1], word[m + 1:]
    return tuple((m - k, b + w, Fraction((-1) ** k * count, math.factorial(m - k)))
                 for k in range(m + 1)
                 for w, count in shuffle_words(word[:k], u).items())


def _reg_levels(a: AlgebraElement) -> dict:
    """The rows of :func:`bar_reg_T` as ``{l: {word: coeff}}``: ``c * c1 * c2``
    summed, ``c`` from ``a``, no product by the rational one; zeros are kept."""
    if a.kind != "x":
        raise AlphabetMismatchError("bar_reg_T applies to X-side input")
    acc: dict = {}
    for word, coeff in a.terms.items():
        for w1, c1 in _tilde_word(word):
            c = coeff if c1 is _ONE else c1 if coeff is _ONE else coeff * c1
            for l, w2, c2 in _regt_word(w1):
                level = acc.setdefault(l, {})
                term = c if c2 is _ONE else c * c2
                level[w2] = level[w2] + term if w2 in level else term
    return acc


def bar_reg_T(a: AlgebraElement) -> TPolynomial:
    """Regularize into T-polynomials with convergent-word coefficients:
    the unique shuffle map fixing those words, with x0 -> 0 and x1 -> T."""
    return TPolynomial.make({l: AlgebraElement.make(a.ring, "x", a.group, level)
                             for l, level in _reg_levels(a).items()})


# -- evaluation maps -------------------------------------------------------


class ZMap:
    """A linear functional on the convergent word basis.

    Subclasses provide :meth:`eval_word`; evaluation of combinations and,
    through :func:`extend_Z_sh`, of regularized words extends it linearly.
    A map that cannot evaluate a word raises from :meth:`eval_word`, as
    :class:`TableZMap` does with :class:`~cyclozeta.errors.DegreeBoundError`
    outside its table.
    """

    def __init__(self, ring, group):
        self.ring = ring
        self.group = group

    def eval_word(self, word: tuple):
        raise NotImplementedError

    def _eval_checked(self, word: tuple):
        if not x_word_in_h0(word):
            raise NotInH0Error(f"{format_x_word(word)} is not a convergent word")
        if not word:
            return self.ring.one
        return self.eval_word(word)

    def eval_element(self, a: AlgebraElement):
        return self._eval_terms(a.terms)

    def _eval_terms(self, terms: dict):
        """Z of ``sum c w`` over ``{w: c}``, each nonzero c as ``ring.coerce(c)``."""
        coerce = self.ring.coerce
        total = self.ring.zero
        for word, coeff in terms.items():
            if coeff:
                total = total + coerce(coeff) * self._eval_checked(word)
        return total


class TableZMap(ZMap):
    """A Z map backed by an explicit word table (exact or engineered values)."""

    def __init__(self, ring, group, table: dict):
        super().__init__(ring, group)
        self.table = {tuple(w): ring.coerce(c) for w, c in table.items()}

    def eval_word(self, word: tuple):
        try:
            return self.table[word]
        except KeyError:
            raise DegreeBoundError(
                f"{format_x_word(word)} is outside this map's table") from None


# -- correction automorphisms ----------------------------------------------


def _exp_action(ring, p: TPolynomial, log: dict) -> TPolynomial:
    """The action of ``exp(sum_n c_n u^n)``, ``log = {n: c_n}`` in increasing
    n >= 1, through ``m e_m = sum_n c_n e_(m-n) n``.  Every int and
    ``Fraction`` constant enters the ring through ``ring.coerce``."""
    e = [ring.one]
    for m in range(1, p.degree() + 1):
        acc = ring.zero
        for n, c in log.items():
            if n <= m:
                acc = acc + c * ring.coerce(n) * e[m - n]
        e.append(acc * ring.coerce(Fraction(1, m)))
    out: dict = {}
    for l, c in p.coeffs.items():
        for j in range(l + 1):  # T^l -> l! sum_j e_j T^(l-j)/(l-j)!
            term = c * e[j] * ring.coerce(Fraction(math.factorial(l), math.factorial(l - j)))
            out[l - j] = out[l - j] + term if (l - j) in out else term
    return TPolynomial.make(out)


def rho_apply(Z: ZMap, p: TPolynomial, inverse: bool = False) -> TPolynomial:
    """The automorphism comparing shuffle and harmonic regularization: the
    action of ``exp(sum_{n>=2} (-1)^n Z(x0^(n-1) x1) u^n / n)`` or its inverse."""
    identity = Z.group.identity()
    sign = -1 if inverse else 1
    return _exp_action(Z.ring, p, {
        n: Z._eval_checked((X0,) * (n - 1) + (identity,))
        * Z.ring.coerce(Fraction(sign * (-1) ** n, n)) for n in range(2, p.degree() + 1)})


def sigma_apply(Z: ZMap, kernel, p: TPolynomial) -> TPolynomial:
    """The distribution-side correction for the d-torsion ``kernel``: the
    action of ``exp(delta_1 u)``, delta_1 summing Z over its nontrivial letters."""
    delta1 = Z.ring.zero
    for g in kernel:
        if not g.is_identity:
            delta1 = delta1 + Z._eval_checked((g,))
    return _exp_action(Z.ring, p, {1: delta1})


# -- extension of an algebra map to the whole word algebra ------------------


def extend_Z_sh(Z: ZMap, a: AlgebraElement) -> TPolynomial:
    """The unique T-polynomial-valued extension of Z along the shuffle
    regularization: evaluate Z on each T-coefficient of ``bar_reg_T``."""
    return TPolynomial.make(
        {l: Z._eval_terms(level) for l, level in _reg_levels(a).items()})


def extend_Z_st(Z: ZMap, a: AlgebraElement) -> TPolynomial:
    """The harmonic-side regularized map, computed as the composition
    rho^(-1) o Z-extension o label-untwist (its only definition here)."""
    if a.kind == "y":
        a = y_to_x(a)
    return rho_apply(Z, extend_Z_sh(Z, qg_apply(a, inverse=True)), inverse=True)
