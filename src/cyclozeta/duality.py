"""Randomized verification of the product/coproduct duality.

A coefficient functional is multiplicative for the harmonic product exactly
when its generating series is grouplike for the dual coproduct.  The
multiplicative specimens here are truncated nested sums: evaluating
``y_{k1,g1}...y_{kr,gr}`` to ``sum_{m >= n1 > ... > nr >= 1} prod x_{n_i}^{k_i}``
with finitely many variables is multiplicative at every truncation (the
product of two nested sums expands index-by-index into exactly the
quasi-shuffle terms), and a weight-graded rescaling keeps it so.  The value
depends only on the index tuple ``(k1, ..., kr)``, so a specimen computes it
once per distinct tuple, straight from the definition: a sum over the
``r``-element subsets of the summation variables.  Broken specimens perturb
one value, which the grouplike check must flag.  The suite compares each
map's grouplike verdict with how the map was built, so the construction, not
a second pair loop, is the other side of the check.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm, prod

from .checks import Check
from .errors import InvalidArgumentError
from .groups import FiniteAbelianGroup
from .rings import RATIONAL
from .series import Alphabet, TruncatedSeries
from .dmr import _pair_residuals, grouplike_check


#: the largest number of summation variables of a nested-sum functional
MAX_SLOTS = 5


def nested_sum_functional(group: FiniteAbelianGroup, weight_bound: int,
                          rng: random.Random) -> dict:
    """A harmonic-multiplicative functional on the Y-word basis, as the table
    of its values on every Y word up to ``weight_bound``.

    The variables are scaled to the integers ``a_n = x_n D``, with ``D`` the
    lcm of their denominators, so a nested sum of weight ``w`` is summed as
    an integer over ``D**w``, and each value is built as one ``Fraction``,
    with ``lam**w`` folded into its numerator and denominator."""
    slots = rng.randint(1, MAX_SLOTS)
    xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(slots)]
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    scale = lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (scale // x.denominator) for x in xs]

    @cache
    def value(ks: tuple[int, ...]) -> Fraction:
        # combinations are increasing, so n_1 > ... > n_r reads them backwards
        total = sum(prod(ints[n] ** k for n, k in zip(reversed(ns), ks))
                    for ns in combinations(range(slots), len(ks)))
        w = sum(ks)
        return Fraction(lam.numerator ** w * total,
                        (lam.denominator * scale) ** w)

    return {w: value(tuple(k for k, _ in w))
            for w in Alphabet.y(group).words_up_to(weight_bound)}


def broken_functional(table: dict, rng: random.Random) -> dict:
    """Perturb one weight-one value so that some diagonal pair must fail.

    For a weight-one word the only way ``(old + delta)^2 = old^2`` can
    survive is ``delta = -2 old``, so any other shift provably breaks
    multiplicativity as long as weight two is inside the bound.
    """
    out = dict(table)
    # a word of weight one is one letter y[1,g]
    words = [w for w in out if len(w) == 1 and w[0][0] == 1]
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
    return not any(r for _, r in _pair_residuals(
        functional_series(group, table, weight_bound), "harmonic"))


def functional_series(group: FiniteAbelianGroup, table: dict,
                      weight_bound: int) -> TruncatedSeries:
    return TruncatedSeries.make(RATIONAL, Alphabet.y(group), weight_bound, table)


def duality_suite(group: FiniteAbelianGroup, weight_bound: int = 4,
                  n_maps: int = 200, seed: int = 20_24) -> Check:
    """Check multiplicative-iff-grouplike on a mixed population of maps: the
    harmonic grouplike verdict of each map must match how it was built (even
    maps are nested sums, odd maps are broken); the residual counts the maps
    that contradict their construction."""
    if n_maps < 1:
        raise InvalidArgumentError("the population needs at least one map")
    if weight_bound < 2:
        # a broken map differs from a multiplicative one on a weight-two pair
        raise InvalidArgumentError("weight bound must be >= 2")
    rng = random.Random(seed)
    contradictions = []
    for i in range(n_maps):
        table = nested_sum_functional(group, weight_bound, rng)
        multiplicative = i % 2 == 0
        if not multiplicative:
            table = broken_functional(table, rng)
        report = grouplike_check(
            functional_series(group, table, weight_bound), "harmonic")
        if report.passed != multiplicative:
            contradictions.append(i)
    detail = f"multiplicative_iff_grouplike on {n_maps} maps"
    if contradictions:
        detail += f"; first contradicting map {contradictions[0]}"
    return Check("duality", f"maps={n_maps} weight<={weight_bound}",
                 not contradictions, float(len(contradictions)), detail)
