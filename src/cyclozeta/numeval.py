"""Numerical evaluation of multiple polylogarithms at roots of unity.

The nested sum is computed by one vectorized forward sweep: level j keeps
the partial sums of the depth-(r-j+1) tail, so the cost is linear in the
cutoff times the depth.  Conditionally convergent outer indices are handled
by averaging the partial sums over a full period of the root of unity (twice,
which kills every nontrivial oscillatory mode to second order), and the
remaining smooth tail is removed by a least-squares fit of the averaged sums
against ``log^a(n)/n^b`` through the cutoff window, extrapolated to the
limit.  Depth-one sums with trivial argument instead get an exact
Euler-Maclaurin tail.

Queries are pure and independently parallelizable; the word cache of
:class:`NumericZMap` tolerates duplicate concurrent computation (identical
results, last write wins).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import AlgebraElement
from .checks import Check, fold
from .errors import DivergentSeriesError, InvalidArgumentError, NotInH0Error
from .groups import construct_group, power_structure
from .regularization import ZMap
from .relations import fds_sides, sharp_sides
from .rings import ComplexRing
from .words import format_x_word, qg_y_word, x_word_blocks, x_word_in_h0, x_words_up_to

DEFAULT_CUTOFF = 200_000
DEFAULT_TOLERANCE = 1e-5


@dataclass(frozen=True)
class PolylogQuery:
    """A nested-sum query: indices ``k_i >= 1`` and arguments ``zeta_N^(a_i)``
    given by residues mod N."""

    indices: tuple[int, ...]
    residues: tuple[int, ...]
    level: int
    cutoff: int = DEFAULT_CUTOFF
    tolerance: float = DEFAULT_TOLERANCE

    def __post_init__(self):
        if len(self.indices) != len(self.residues) or not self.indices:
            raise InvalidArgumentError("indices and residues must align, depth >= 1")
        if any(k < 1 for k in self.indices):
            raise InvalidArgumentError("indices must be positive")
        if self.level < 1:
            raise InvalidArgumentError("level must be >= 1")
        if self.cutoff < max(1000, 20 * self.level):
            raise InvalidArgumentError(
                "cutoff must be at least max(1000, 20 * level)")
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


def _root_powers(residue: int, level: int, cutoff: int) -> np.ndarray:
    """``z^n`` for n = 1..cutoff, tiled from one exact period."""
    pattern = np.exp(2j * np.pi * (residue * np.arange(1, level + 1) % level) / level)
    reps = -(-cutoff // level)
    return np.tile(pattern, reps)[:cutoff]


def _box_smooth(values: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return values
    csum = np.concatenate(([0.0], np.cumsum(values)))
    return (csum[window:] - csum[:-window]) / window


def _em_tail(k: int, cutoff: int) -> float:
    """``sum_{n > cutoff} n^-k`` by Euler-Maclaurin, k >= 2."""
    m = float(cutoff)
    return (m ** (1 - k) / (k - 1) - 0.5 * m ** (-k)
            + k / 12.0 * m ** (-k - 1)
            - k * (k + 1) * (k + 2) / 720.0 * m ** (-k - 3))


def _fit_limit(smoothed: np.ndarray, weight: int) -> tuple[complex, float]:
    """Extrapolate the double-averaged partial sums to their limit."""
    length = len(smoothed)
    lo = max(length // 8, 256)
    checkpoints = np.unique(np.geomspace(lo, length - 1, 48).astype(int))
    y = smoothed[checkpoints]
    n = checkpoints.astype(np.float64) + 1.0
    tau = np.log(n / float(length))
    log_max = min(max(weight - 1, 1), 5)
    columns = [np.ones_like(n)]
    for a in range(log_max + 1):
        columns.append(tau ** a / n)
    second_block = min(max(weight - 2, 0), 3)
    for a in range(second_block + 1):
        columns.append(tau ** a / n ** 2)
    design = np.stack(columns, axis=1)
    scale = np.max(np.abs(design), axis=0)
    design = design / scale
    sol, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    value = sol[0] / scale[0]
    first_block = 2 + log_max
    sol_reduced, _, _, _ = np.linalg.lstsq(design[:, :first_block], y, rcond=None)
    reduced = sol_reduced[0] / scale[0]
    residual = float(np.max(np.abs(design @ sol - y)))
    bound = 5.0 * abs(value - reduced) + 50.0 * residual + 3e-8
    return complex(value), bound


def polylog_numeric(query: PolylogQuery) -> PolylogValue:
    """Evaluate the nested sum with a tail estimate."""
    r = len(query.indices)
    cutoff, level = query.cutoff, query.level
    n = np.arange(1, cutoff + 1, dtype=np.float64)
    partial = None
    for j in range(r - 1, -1, -1):
        coeff = _root_powers(query.residues[j], level, cutoff) * n ** (-float(query.indices[j]))
        if partial is None:
            term = coeff
        else:
            shifted = np.empty_like(partial)
            shifted[0] = 0.0
            shifted[1:] = partial[:-1]
            term = coeff * shifted
        partial = np.cumsum(term)
    if r == 1:
        if query.residues[0] == 0:
            value = complex(partial[-1]) + _em_tail(query.indices[0], cutoff)
            bound = 1e-12
        else:
            smoothed = _box_smooth(_box_smooth(partial, level), level)
            value = complex(smoothed[-1])
            bound = 5.0 * abs(smoothed[-1] - smoothed[-1 - level]) + 1e-12
    else:
        smoothed = _box_smooth(_box_smooth(partial, level), level)
        value, bound = _fit_limit(smoothed, sum(query.indices))
    return PolylogValue(value, bound, bound > query.tolerance)


# -- the numeric evaluation map on convergent words --------------------------


def word_to_query(word: tuple, level: int, cutoff: int = DEFAULT_CUTOFF,
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
    return PolylogQuery(indices, residues, level, cutoff, tolerance)


def zc_eval(level: int, word: tuple, cutoff: int = DEFAULT_CUTOFF,
            tolerance: float = DEFAULT_TOLERANCE) -> complex:
    """Evaluate the level-N iterated-integral map on one convergent word."""
    return polylog_numeric(word_to_query(word, level, cutoff, tolerance)).value


class NumericZMap(ZMap):
    """The complex evaluation map on the level-N convergent word basis.

    Values are computed lazily through the nested-sum engine and cached;
    the table is read-mostly and duplicate concurrent inserts are harmless.
    """

    def __init__(self, level: int, cutoff: int = DEFAULT_CUTOFF,
                 tolerance: float = DEFAULT_TOLERANCE,
                 degree_bound: int | None = None):
        if level < 1:
            raise InvalidArgumentError("level must be >= 1")
        super().__init__(ComplexRing(tolerance),
                         construct_group([level] if level > 1 else []),
                         degree_bound)
        self.level = level
        self.cutoff = cutoff
        self.tolerance = tolerance
        self._cache: dict[tuple, PolylogValue] = {}

    def eval_word_detailed(self, word: tuple) -> PolylogValue:
        hit = self._cache.get(word)
        if hit is None:
            hit = polylog_numeric(
                word_to_query(word, self.level, self.cutoff, self.tolerance))
            self._cache[word] = hit
        return hit

    def eval_word(self, word: tuple) -> complex:
        return self.eval_word_detailed(word).value


# -- the numeric identity suites ---------------------------------------------


def numeric_relation_suite(level: int, weight_bound: int,
                           tolerance: float = DEFAULT_TOLERANCE,
                           cutoff: int = DEFAULT_CUTOFF) -> list[Check]:
    """Residuals of the finite double shuffle identities and of the
    distribution identities among the numeric values up to a weight bound,
    one row each; the detail holds the summed tail bound of the values the
    row used."""
    Z = NumericZMap(level, cutoff, tolerance)
    ring = Z.ring
    group = Z.group
    rows: list[Check] = []

    def eval_with_bound(elem: AlgebraElement) -> tuple[complex, float]:
        total, bound = ring.zero, 0.0
        for w, c in elem.terms.items():
            detail = Z.eval_word_detailed(w)
            total += c * detail.value
            bound += abs(c) * detail.tail_bound
        return total, bound

    def row(name: str, params: str, word, sides) -> Check:
        (left, b1), (right, b2) = map(eval_with_bound, sides)
        check = fold(name, params, ring, [(word, left - right)], str)
        return replace(check, detail=f"bound={b1 + b2:.3e}")

    def convergent(letters):
        return [w for w in x_words_up_to(letters, weight_bound) if w and x_word_in_h0(w)]

    words = convergent(group.elements())
    for u in words:
        for v in words:
            if len(u) + len(v) <= weight_bound:
                rows.append(row("fds", f"{format_x_word(u)}|{format_x_word(v)}",
                                (u, v), fds_sides(ring, group, u, v)))
    for d in range(2, level + 1):
        if level % d != 0:
            continue
        # the words whose summation arguments are all d-th powers
        ps = power_structure(group, d)
        for w in convergent(ps.subgroup):
            query = word_to_query(w, level)
            params = f"d={d} k={query.indices} a={query.residues}"
            elem = AlgebraElement.from_word(ring, "x", group, w)
            rows.append(row("dist", params, w, sharp_sides(ps, elem)))
    return rows
