"""Numerical evaluation of multiple polylogarithms at roots of unity.

A query is the nested sum

    Li_{k1..kr}(z1..zr) = sum_{n1 > ... > nr >= 1} prod_i z_i^(n_i) / n_i^(k_i)

at N-th roots of unity ``z_i``.  It is evaluated by Hoelder convolution
(Borwein, Bradley, Broadhurst and Lisonek, *Special values of multiple
polylogarithms*, Trans. AMS 353 (2001); the scheme GiNaC uses, Vollinga and
Weinzierl, Comput. Phys. Commun. 167 (2005)):

* The sum is the iterated integral ``(-1)^r G(0^(k1-1), 1/z1, 0^(k2-1),
  1/(z1 z2), ...; 1)``.  Each letter is kept as a residue mod N (or zero),
  so ``1 - a`` is exactly zero when ``a = 1``.
* The integral is split at a point ``q`` of (0, 1)::

      G(a1..aw; 1) = sum_j (-1)^j G(1-aj, ..., 1-a1; 1-q) G(a_{j+1}, ..., aw; q)

  with ``q = 1/(1+s)``, ``s`` the smallest ``|1-a|`` over the letters
  ``a != 1`` (1 when there is none).
* Each factor ``G(b; y)`` has a nonzero last letter and is again a nested
  sum, ``(-1)^k Li_m(y/c1, c1/c2, ..., c_{k-1}/ck)`` over its nonzero
  letters ``c``.  Its terms of outer index n add up to at most
  ``T(n) = r^n H_{n-1}^(k-1) / ((k-1)! n^m1)`` in absolute value, where
  ``r = y / min |c| <= 1/(1+s)``: 1/2 or less at N <= 6.  One forward sweep
  sums it until the geometric tail of ``T`` is below 1e-17, about 60 terms
  at N <= 6.

``tail_bound`` bounds the distance to the true value: each factor's
truncation tail plus a rounding term (a few machine epsilons per operation on
each path, times ``sum T(n)``), carried through the products as
``|A| bB + |B| bA + bA bB``, plus the rounding of the final sum.  The number
of terms follows from the bound.  The arithmetic is plain Python ``complex``.

Queries are pure and independently parallelizable.  The factors ``G(b; y)``
are shared across all queries of a process through one bounded, thread-safe
``lru_cache`` on ``_g_factor``: queries with a common prefix or suffix of
letters reuse them, and every value is identical to an uncached sweep (no key
can alias a signed zero).  The word cache of :class:`NumericZMap` tolerates
duplicate concurrent computation (identical results, last write wins).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import mul

from .checks import Check, fold
from .errors import DivergentSeriesError, InvalidArgumentError, NotInH0Error
from .groups import construct_group
from .regularization import ZMap
from .relations import fds_sides
from .rings import ComplexRing
from .words import format_x_word, qg_y_word, x_word_blocks, x_word_in_h0, x_words_up_to

DEFAULT_TOLERANCE = 1e-5
#: each factor is summed until its geometric tail bound is below this
TAIL_TARGET = 1e-17
_EPS = sys.float_info.epsilon


@dataclass(frozen=True)
class PolylogQuery:
    """A nested-sum query: indices ``k_i >= 1`` and arguments ``zeta_N^(a_i)``
    given by residues mod N."""

    indices: tuple[int, ...]
    residues: tuple[int, ...]
    level: int
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if len(self.indices) != len(self.residues) or not self.indices:
            raise InvalidArgumentError("indices and residues must align, depth >= 1")
        if any(k < 1 for k in self.indices):
            raise InvalidArgumentError("indices must be positive")
        if self.level < 1:
            raise InvalidArgumentError("level must be >= 1")
        object.__setattr__(self, "residues",
                           tuple(a % self.level for a in self.residues))
        if self.indices[0] == 1 and self.residues[0] == 0:
            raise DivergentSeriesError(
                "leading index 1 with argument 1 diverges")


@dataclass(frozen=True)
class PolylogValue:
    value: complex
    tail_bound: float
    low_precision: bool


@lru_cache(maxsize=4096)
def _truncation(r: float, depth: int, m1: int) -> tuple[int, float]:
    """How many terms a factor of rate ``r``, depth and first index ``m1``
    needs, and the bound on its error.

    ``T(n) = r^n H_{n-1}^(depth-1) / ((depth-1)! n^m1)`` bounds the terms of
    outer index n; from n + 1 on, each ``T`` is at most ``rho`` times the
    one before, so the tail is at most ``T(n+1) / (1 - rho)``.  A term
    summed at index n passes through at most ``depth (n + 2)`` roundings of
    a few machine epsilons each.  The bound is the tail bound plus that
    rounding term.
    """
    fact = math.factorial(depth - 1)
    harmonic, r_n, rounding, n = 0.0, 1.0, 0.0, 0
    while True:
        n += 1
        r_n *= r
        rounding += (n + 2) * r_n * harmonic ** (depth - 1) / (fact * n ** m1)
        harmonic += 1.0 / n
        t_next = r_n * r * harmonic ** (depth - 1) / (fact * (n + 1) ** m1)
        rho = r * (1.0 + 1.0 / ((n + 1) * harmonic)) ** (depth - 1)
        if rho < 1.0 and t_next < TAIL_TARGET * (1.0 - rho):
            return n, t_next / (1.0 - rho) + 8 * _EPS * depth * rounding


@lru_cache(maxsize=256)
def _inverse_powers(m: int, terms: int) -> tuple[float, ...]:
    return tuple(1.0 / n ** m for n in range(1, terms + 1))


@lru_cache(maxsize=2 ** 15)
def _g_factor(letters: tuple, y: float) -> tuple[complex, float]:
    """``G(letters; y)`` for a nonzero last letter, with an error bound.

    The nested sum over the nonzero letters is swept from the innermost
    level out; each level's partial sums, shifted by one index, weight the
    next level's terms.

    The result is a pure function of ``(letters, y)``, so all queries of a
    process share one bounded cache of factors, and a hit returns what the
    sweep would compute.  No two keys alias through ``0.0 == -0.0``: the
    letters are ``0j`` and ``1+0j``, whose zero parts are ``+0.0``, and
    ``cos + i sin`` of a nonzero angle or ``1 - zeta_N^c`` with ``c != 0``,
    whose parts are nonzero; ``y`` is positive.  The 32,768 entries hold
    every distinct factor of ``dmr-check --N 6 --degree 5`` (30,233); an
    entry takes 420-470 bytes at weights up to 5, so a full cache holds
    about 15 MB.
    """
    xs, ms = [], []
    prev, m = y, 1
    for b in letters:
        if b == 0:
            m += 1
        else:
            xs.append(prev / b)
            ms.append(m)
            prev, m = b, 1
    depth = len(xs)
    r = y / min(abs(b) for b in letters if b != 0)
    terms, bound = _truncation(r, depth, ms[0])
    below = repeat(1.0)  # the empty innermost product
    for x, m in zip(reversed(xs), reversed(ms)):
        steps = map(mul, accumulate(repeat(x, terms), mul),
                    map(mul, _inverse_powers(m, terms), below))
        partial = list(accumulate(steps))
        below = chain((0.0,), partial)
    return (-partial[-1] if depth % 2 else partial[-1]), bound


def _one_minus_root(c: int, level: int) -> complex:
    """``1 - zeta_N^c`` without the cancellation of ``1 - exp(...)``."""
    half = math.pi * c / level
    return complex(2.0 * math.sin(half) ** 2, -math.sin(2.0 * half))


def polylog_numeric(query: PolylogQuery) -> PolylogValue:
    """Evaluate the nested sum by Hoelder convolution, with an error bound."""
    level = query.level
    codes: list = []  # G letters: None for zero, else the residue of the root
    c = 0
    for k, a in zip(query.indices, query.residues):
        c = (c - a) % level
        codes += [None] * (k - 1) + [c]
    roots = [0j if c is None else complex(math.cos(2 * math.pi * c / level),
                                          math.sin(2 * math.pi * c / level))
             for c in codes]
    flipped = [1 + 0j if c is None else 0j if c == 0 else _one_minus_root(c, level)
               for c in codes]
    s = min((abs(b) for b, c in zip(flipped, codes) if c != 0), default=1.0)
    q = 1.0 / (1.0 + s)
    w = len(codes)
    value, bound, size = 0j, 0.0, 0.0
    for j in range(w + 1):
        left, b_left = _g_factor(tuple(flipped[j - 1::-1]), 1.0 - q) if j else (1.0, 0.0)
        right, b_right = _g_factor(tuple(roots[j:]), q) if j < w else (1.0, 0.0)
        term = left * right
        value += -term if j % 2 else term
        bound += abs(left) * b_right + abs(right) * b_left + b_left * b_right
        size += abs(term)
    bound += _EPS * (w + 2) * size
    if len(query.indices) % 2:
        value = -value
    return PolylogValue(value, bound, bound > query.tolerance)


# -- the numeric evaluation map on convergent words --------------------------


def word_to_query(word: tuple, level: int,
                  tolerance: float = DEFAULT_TOLERANCE) -> PolylogQuery:
    """Translate a convergent word into its nested-sum query.

    A word ``x0^(k1-1) x_{e1} ... x0^(kr-1) x_{er}`` evaluates to the sum with
    indices ``k_i`` and arguments ``e_1, e_2 e_1^(-1), ...``: the label twist
    turns the integral-side letters back into the summation arguments, and
    convergence is exactly membership in the convergent subalgebra.
    """
    if not x_word_in_h0(word) or not word:
        raise NotInH0Error(f"{format_x_word(word)} is not a convergent word")
    blocks, trailing = x_word_blocks(word)
    assert trailing == 0
    indices = tuple(k for k, _ in blocks)
    residues = tuple(g.exponents[0] if g.exponents else 0
                     for _, g in qg_y_word(blocks))
    return PolylogQuery(indices, residues, level, tolerance)


class NumericZMap(ZMap):
    """The complex evaluation map on the level-N convergent word basis.

    Values are computed lazily through the nested-sum engine and cached;
    the table is read-mostly and duplicate concurrent inserts are harmless.
    """

    def __init__(self, level: int, tolerance: float = DEFAULT_TOLERANCE):
        if level < 1:
            raise InvalidArgumentError("level must be >= 1")
        super().__init__(ComplexRing(tolerance), construct_group([level]))
        self.level = level
        self._cache: dict[tuple, PolylogValue] = {}

    def eval_word_detailed(self, word: tuple) -> PolylogValue:
        hit = self._cache.get(word)
        if hit is None:
            hit = polylog_numeric(
                word_to_query(word, self.level, self.ring.tolerance))
            self._cache[word] = hit
        return hit

    def eval_word(self, word: tuple) -> complex:
        return self.eval_word_detailed(word).value


# -- the numeric identity suites ---------------------------------------------


def numeric_relation_suite(Z: NumericZMap, weight_bound: int) -> list[Check]:
    """Residuals of the finite double shuffle identities among the values of
    ``Z`` up to a weight bound, one row each; the detail holds the summed
    tail bound of the values the row used.  Both sides are built over the
    rationals and evaluated by ``Z.eval_element``.  Both products commute,
    so the double shuffle identity on ``u, v`` is the one on ``v, u``: each
    unordered pair is one row, ``u`` not after ``v`` in word order.

    Finite distribution has no rows here: on a convergent word the
    regularization and ``sigma`` are the identity, so the relation is the
    T^0 coefficient that ``regdist`` decides on the same word."""
    words = [w for w in x_words_up_to(Z.group.elements(), weight_bound)
             if w and x_word_in_h0(w)]
    rows: list[Check] = []
    for i, u in enumerate(words):
        for v in words[i:]:
            if len(u) + len(v) <= weight_bound:
                sides = fds_sides(Z.group, u, v)
                left, right = map(Z.eval_element, sides)
                bound = sum(abs(c) * Z.eval_word_detailed(w).tail_bound
                            for side in sides for w, c in side.terms.items())
                check = fold("fds", f"{format_x_word(u)}|{format_x_word(v)}", Z.ring,
                             [((u, v), left - right)], str)
                rows.append(replace(check, detail=f"bound={bound:.3e}"))
    return rows
