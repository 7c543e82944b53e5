"""Randomized verification of the product/coproduct duality.

A coefficient functional is multiplicative for the harmonic product exactly
when its generating series is grouplike for the dual coproduct.  The
multiplicative specimens here are truncated nested sums: evaluating
``y_{k1,g1}...y_{kr,gr}`` to ``sum_{m >= n1 > ... > nr >= 1} prod x_{n_i}^{k_i}``
with finitely many variables is multiplicative at every truncation (the
product of two nested sums expands index-by-index into exactly the
quasi-shuffle terms), and a weight-graded rescaling keeps it so.  Broken
specimens perturb one value, which the grouplike check must flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, harmonic
from .groups import FiniteAbelianGroup
from .rings import RATIONAL
from .series import Alphabet, TruncatedSeries
from .dmr import grouplike_check
from .words import y_words_up_to, y_weight


#: the largest number of summation variables of a nested-sum functional
MAX_SLOTS = 5


def nested_sum_functional(group: FiniteAbelianGroup, weight_bound: int,
                          rng: random.Random) -> dict:
    """A harmonic-multiplicative functional on the Y-word basis."""
    slots = rng.randint(1, MAX_SLOTS)
    xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(slots)]
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))

    def nested(indices: tuple[int, ...]) -> Fraction:
        # sum over slots >= n1 > n2 > ... > nr >= 1 of prod xs[n_i - 1]^k_i
        total = Fraction(0)
        def rec(pos: int, upper: int, acc: Fraction):
            nonlocal total
            if pos == len(indices):
                total += acc
                return
            for n in range(upper, 0, -1):
                rec(pos + 1, n - 1, acc * xs[n - 1] ** indices[pos])
        rec(0, slots, Fraction(1))
        return total

    table = {}
    for w in y_words_up_to(group.elements(), weight_bound):
        table[w] = lam ** y_weight(w) * nested(tuple(n for n, _ in w))
    table[()] = Fraction(1)
    return table


def broken_functional(table: dict, rng: random.Random) -> dict:
    """Perturb one weight-one value so that some diagonal pair must fail.

    For a weight-one word the only way ``(old + delta)^2 = old^2`` can
    survive is ``delta = -2 old``, so any other shift provably breaks
    multiplicativity as long as weight two is inside the bound.
    """
    out = dict(table)
    words = [w for w in out if y_weight(w) == 1]
    w = words[rng.randrange(len(words))]
    old = out[w]
    delta = Fraction(rng.randint(1, 5))
    if delta == -2 * old:
        delta += 1
    out[w] = old + delta
    return out


def functional_is_multiplicative(group: FiniteAbelianGroup, table: dict,
                                 weight_bound: int) -> bool:
    """Direct pairwise test of ``phi(u * v) = phi(u) phi(v)``."""
    words = [w for w in y_words_up_to(group.elements(), weight_bound - 1) if w]
    for u in words:
        for v in words:
            if y_weight(u) + y_weight(v) > weight_bound:
                continue
            eu = AlgebraElement.from_word(RATIONAL, "y", group, u)
            ev = AlgebraElement.from_word(RATIONAL, "y", group, v)
            value = Fraction(0)
            for w, c in harmonic(eu, ev).terms.items():
                value += c * table[w]
            if value != table[u] * table[v]:
                return False
    return True


def functional_series(group: FiniteAbelianGroup, table: dict,
                      weight_bound: int) -> TruncatedSeries:
    return TruncatedSeries.make(RATIONAL, Alphabet.y(group), weight_bound, table)


@dataclass(frozen=True)
class DualityRow:
    index: int
    kind: str  # 'multiplicative' or 'broken'
    multiplicative: bool
    grouplike: bool

    @property
    def consistent(self) -> bool:
        return self.multiplicative == self.grouplike

    @property
    def expected(self) -> bool:
        return self.multiplicative == (self.kind == "multiplicative")


@dataclass(frozen=True)
class DualityReport:
    group: FiniteAbelianGroup
    weight_bound: int
    rows: list

    @property
    def passed(self) -> bool:
        return all(r.consistent and r.expected for r in self.rows)


def duality_suite(group: FiniteAbelianGroup, weight_bound: int = 4,
                  n_maps: int = 200, seed: int = 20_24) -> DualityReport:
    """Check multiplicative-iff-grouplike on a mixed population of maps."""
    rng = random.Random(seed)
    rows = []
    for i in range(n_maps):
        table = nested_sum_functional(group, weight_bound, rng)
        kind = "multiplicative"
        if i % 2 == 1:
            table = broken_functional(table, rng)
            kind = "broken"
        direct = functional_is_multiplicative(group, table, weight_bound)
        report = grouplike_check(
            functional_series(group, table, weight_bound), "harmonic")
        rows.append(DualityRow(i, kind, direct, report.passed))
    return DualityReport(group, weight_bound, rows)
