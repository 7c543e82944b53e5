"""Shuffle regularization into T-polynomials and the scalar correction maps.

The regularization of a word is computed by two-phase shuffle division:
trailing x0 letters are eliminated first (the word table ``_tilde_word``,
sending x0 to 0), then leading identity letters are divided out with
``x_1 -> T`` (the word table ``_regt_word``).  Both phases rewrite a word
against the shuffle of its divergent run with the rest, where the target
word occurs exactly once and every other interleaving is strictly closer to
the convergent subalgebra.  The composition is the unique shuffle-algebra map
that fixes convergent words and sends ``x0 -> 0``, ``x1 -> T``.

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

    @staticmethod
    def constant(value) -> "TPolynomial":
        return TPolynomial.make({0: value})

    def coeff(self, l: int, zero=0):
        return self.coeffs.get(l, zero)

    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __add__(self, other: "TPolynomial") -> "TPolynomial":
        out = dict(self.coeffs)
        for l, c in other.coeffs.items():
            out[l] = out[l] + c if l in out else c
        return TPolynomial.make(out)

    def __sub__(self, other: "TPolynomial") -> "TPolynomial":
        return self + TPolynomial({l: -c for l, c in other.coeffs.items()})

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


@lru_cache(maxsize=200_000)
def _tilde_word(word: tuple) -> tuple:
    """The shuffle-algebra retraction killing x0, identity on words that end
    in a group letter, of one word as ``((word, Fraction), ...)``."""
    if x_word_in_h1(word):
        return ((word, Fraction(1)),)
    k = len(word)
    while k > 0 and word[k - 1] is X0:
        k -= 1
    run = len(word) - k
    head = word[:k]
    if not head:
        return ()  # pure x0 power maps to 0
    out: dict = {}
    for other, count in shuffle_words(head, (X0,) * run).items():
        if other == word:
            continue
        for w, c in _tilde_word(other):
            term = c * count
            out[w] = out[w] - term if w in out else -term
    return tuple((w, c) for w, c in out.items() if c)


@lru_cache(maxsize=200_000)
def _regt_word(word: tuple) -> tuple:
    """``reg^T`` of one word of the x0-free-tail algebra, as
    ``((l, word, Fraction), ...)``; assumes the word ends in a group letter."""
    if not word or word[0] is X0 or not word[0].is_identity:
        return ((0, word, Fraction(1)),)
    m = 0
    while m < len(word) and word[m] is not X0 and word[m].is_identity:
        m += 1
    tail = word[m:]
    out: dict = {(m, tail): Fraction(1, math.factorial(m))}
    for other, count in shuffle_words(word[:m], tail).items():
        if other == word:
            continue
        for l, w, c in _regt_word(other):
            key = (l, w)
            term = c * count
            out[key] = out[key] - term if key in out else -term
    return tuple((l, w, c) for (l, w), c in out.items() if c)


def bar_reg_T(a: AlgebraElement) -> TPolynomial:
    """Regularize into T-polynomials with convergent-word coefficients:
    the unique shuffle map fixing those words, with x0 -> 0 and x1 -> T."""
    if a.kind != "x":
        raise AlphabetMismatchError("bar_reg_T applies to X-side input")
    acc: dict = {}
    for word, coeff in a.terms.items():
        for w1, c1 in _tilde_word(word):
            for l, w2, c2 in _regt_word(w1):
                level = acc.setdefault(l, {})
                term = coeff * c1 * c2
                level[w2] = level[w2] + term if w2 in level else term
    return TPolynomial.make({
        l: AlgebraElement.make(a.ring, "x", a.group, level)
        for l, level in acc.items()})


def bar_reg(a: AlgebraElement) -> AlgebraElement:
    """Evaluation of :func:`bar_reg_T` at T = 0 (x0 -> 0 and x1 -> 0)."""
    tp = bar_reg_T(a)
    return tp.coeff(0, AlgebraElement.zero(a.ring, "x", a.group))


# -- evaluation maps -------------------------------------------------------


class ZMap:
    """A linear functional on the convergent word basis.

    Subclasses provide :meth:`eval_word`; evaluation of combinations and of
    algebra-valued T-polynomials extends it linearly.  A map that cannot
    evaluate a word raises from :meth:`eval_word`, as :class:`TableZMap` does
    with :class:`~cyclozeta.errors.DegreeBoundError` outside its table.
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
        total = self.ring.zero
        for word, coeff in a.terms.items():
            total = total + coeff * self._eval_checked(word)
        return total

    def eval_tpoly(self, tp: TPolynomial) -> TPolynomial:
        return TPolynomial.make(
            {l: self.eval_element(c) for l, c in tp.coeffs.items()})


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
    n >= 1, through ``m e_m = sum_n c_n e_(m-n) n``."""
    e = [ring.one]
    for m in range(1, p.degree() + 1):
        acc = ring.zero
        for n, c in log.items():
            if n <= m:
                acc = acc + c * n * e[m - n]
        e.append(acc * Fraction(1, m))
    out: dict = {}
    for l, c in p.coeffs.items():
        for j in range(l + 1):  # T^l -> l! sum_j e_j T^(l-j)/(l-j)!
            term = c * e[j] * Fraction(math.factorial(l), math.factorial(l - j))
            out[l - j] = out[l - j] + term if (l - j) in out else term
    return TPolynomial.make(out)


def rho_apply(Z: ZMap, p: TPolynomial, inverse: bool = False) -> TPolynomial:
    """The automorphism comparing shuffle and harmonic regularization: the
    action of ``exp(sum_{n>=2} (-1)^n Z(x0^(n-1) x1) u^n / n)`` or its inverse."""
    identity = Z.group.identity()
    sign = -1 if inverse else 1
    return _exp_action(Z.ring, p, {
        n: Z._eval_checked((X0,) * (n - 1) + (identity,)) * Fraction(sign * (-1) ** n, n)
        for n in range(2, p.degree() + 1)})


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
    return Z.eval_tpoly(bar_reg_T(a))


def extend_Z_st(Z: ZMap, a: AlgebraElement) -> TPolynomial:
    """The harmonic-side regularized map, computed as the composition
    rho^(-1) o Z-extension o label-untwist (its only definition here)."""
    if a.kind == "y":
        a = y_to_x(a)
    return rho_apply(Z, extend_Z_sh(Z, qg_apply(a, inverse=True)), inverse=True)
