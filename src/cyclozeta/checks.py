"""The verdict of one check, and the one rule that decides it.

A :class:`Check` is one row of a CLI report.  Every residual check in the
library builds its rows with :func:`fold`, which reads a stream of
``(word, residual)`` pairs: the check passes exactly when every residual is
zero in the coefficient ring (literal zero over the rationals, within the
tolerance over the complex numbers), and it reports the largest residual
and the word that carries it, or that it compared no word at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator


@dataclass(frozen=True)
class Check:
    """``str(check)`` is the TSV row ``name params status residual detail``."""

    name: str
    params: str
    passed: bool
    residual: float
    detail: str = ""

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return "\t".join((self.name, self.params, status,
                          f"{self.residual:.6e}", self.detail))


def fold(name: str, params: str, ring, residuals: Iterable[tuple],
         fmt: Callable[[object], str]) -> Check:
    """The check over ``(word, residual)`` pairs: PASS iff every residual is
    zero in ``ring``; the residual is the largest ``ring.abs`` and the detail
    names the word that first reaches it, written by ``fmt`` (no word when
    every residual is exactly zero, and ``words=0`` over an empty stream,
    which passes vacuously).  An exact zero (a false residual) is counted
    but not measured: it can neither fail the check nor become the worst."""
    passed, worst, largest, count = True, None, 0.0, 0
    for count, (word, residual) in enumerate(residuals, 1):
        if not residual:
            continue
        size = ring.abs(residual)
        if size > largest:
            worst, largest = word, size
        if passed and not ring.is_zero(residual):
            passed = False
    detail = "words=0" if not count else "" if worst is None else f"worst={fmt(worst)}"
    return Check(name, params, passed, largest, detail)


def differences(lhs: dict, rhs: dict, zero) -> Iterator[tuple]:
    """``(key, lhs[key] - rhs[key])`` over both supports, the keys of ``lhs``
    first: the residuals of a comparison of two sparse maps, in which a key
    whose coefficients cancel exactly was still compared."""
    for key in {**lhs, **rhs}:
        yield key, lhs.get(key, zero) - rhs.get(key, zero)
