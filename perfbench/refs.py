"""Independent references for the benchmark's correctness checks.

Nothing here calls cyclozeta.  Words are the library's word tuples: an X
letter is ``None`` for x0 or a group element, and only the element's
``is_identity`` property is read.  Exact values are ``Fraction``s; numeric
values come from mpmath at 30 significant digits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import mpmath

DIGITS = 30


def _root(level: int, residue: int):
    return mpmath.expjpi(mpmath.mpf(2 * (residue % level)) / level)


def li(k: int, level: int, residue: int) -> complex:
    """``Li_k(zeta_N^r) = sum_{n >= 1} zeta_N^(r n) / n^k`` by mpmath."""
    with mpmath.workdps(DIGITS):
        if residue % level == 0:
            return complex(mpmath.zeta(k))
        return complex(mpmath.polylog(k, _root(level, residue)))


def stuffle_sum(a: int, b: int, x: int, y: int, level: int) -> complex:
    """``Li_{a,b}(x,y) + Li_{b,a}(y,x)`` from depth one, by the stuffle
    identity ``Li_a(x) Li_b(y) = Li_{a,b}(x,y) + Li_{b,a}(y,x) + Li_{a+b}(xy)``;
    arguments are residues mod ``level``."""
    with mpmath.workdps(DIGITS):
        prod = mpmath.mpc(li(a, level, x)) * mpmath.mpc(li(b, level, y))
        return complex(prod - mpmath.mpc(li(a + b, level, x + y)))


def zeta_2_1() -> complex:
    """``zeta(2,1) = zeta(3)`` (Euler)."""
    with mpmath.workdps(DIGITS):
        return complex(mpmath.zeta(3))


def li_1_1_minus() -> complex:
    """``Li_{1,1}(-1,-1) = (log^2 2 - zeta(2)) / 2``."""
    with mpmath.workdps(DIGITS):
        return complex((mpmath.log(2) ** 2 - mpmath.zeta(2)) / 2)


# -- exact word combinatorics ------------------------------------------------


def shuffle(u: tuple, v: tuple) -> dict:
    """Interleavings of two words, counted by the position subsets that
    receive the letters of ``u``."""
    letters = u + v
    out: dict = {}
    for order in _interleavings(len(u), len(v)):
        key = tuple(letters[i] for i in order)
        out[key] = out.get(key, 0) + 1
    return out


@lru_cache(maxsize=None)
def _interleavings(m: int, n: int) -> tuple:
    """For each m-subset of the m + n positions, the indices into ``u + v``
    that fill the positions in order."""
    out = []
    for slots in itertools.combinations(range(m + n), m):
        taken, i, j, order = set(slots), 0, m, []
        for pos in range(m + n):
            if pos in taken:
                order.append(i)
                i += 1
            else:
                order.append(j)
                j += 1
        out.append(tuple(order))
    return tuple(out)


def delannoy(r: int, s: int) -> int:
    """``D(r, s) = sum_k C(r,k) C(s,k) 2^k``: the number of terms, with
    multiplicity, of the harmonic product of words of depths r and s."""
    return sum(math.comb(r, k) * math.comb(s, k) * 2 ** k
               for k in range(min(r, s) + 1))


def _is_x1(letter) -> bool:
    return letter is not None and letter.is_identity


def _add(levels: dict, l: int, word: tuple, c) -> None:
    level = levels.setdefault(l, {})
    level[word] = level.get(word, 0) + c


def _x1_phase(word: tuple) -> dict:
    """Regularization of ``x1^m w`` for ``w`` not starting in x1 and ending
    in a group letter: ``sum_k (-1)^k head(w)(x1^k sh rest(w)) T^(m-k)/(m-k)!``,
    and ``T^m / m!`` for the pure power."""
    m = 0
    while m < len(word) and _is_x1(word[m]):
        m += 1
    if m == len(word):
        return {m: {(): Fraction(1, math.factorial(m))}}
    head, rest = word[m], word[m + 1:]
    levels: dict = {}
    for k in range(m + 1):
        for w, count in shuffle((word[0],) * k, rest).items():
            _add(levels, m - k, (head,) + w,
                 Fraction((-1) ** k * count, math.factorial(m - k)))
    return levels


def regularization(word: tuple) -> dict:
    """``bar_reg_T`` of one X word as ``{l: {word: Fraction}}``.

    The trailing x0 run goes first, by ``w a x0^n -> (-1)^n (w sh x0^n) a``
    (the shuffle map with x0 -> 0), then the leading x1 run by the closed
    form in :func:`_x1_phase`.  Zero coefficients and empty levels are
    dropped.
    """
    if not word:
        return {0: {(): Fraction(1)}}
    k = len(word)
    while k and word[k - 1] is None:
        k -= 1
    if k == 0:
        return {}
    run = len(word) - k
    body, last = word[:k - 1], word[k - 1]
    levels: dict = {}
    for w, count in shuffle(body, (None,) * run).items():
        for l, terms in _x1_phase(w + (last,)).items():
            for t, c in terms.items():
                _add(levels, l, t, (-1) ** run * count * c)
    out = {}
    for l, terms in levels.items():
        kept = {w: c for w, c in terms.items() if c != 0}
        if kept:
            out[l] = kept
    return out
