"""Series-level machinery: coproduct duality checks, the corrected series,
the four letter-substitution functors, and the membership predicates for the
double-shuffle and distribution conditions on series.

Coproducts are never materialized: a series is grouplike for the coproduct
dual to a product exactly when its coefficient functional is multiplicative,
so the checks run over word pairs through the truncation degree.  Every
check returns :class:`~cyclozeta.checks.Check` rows, one per CLI report line.

The corrected series twists and projects with the word-algebra maps
:func:`~cyclozeta.algebra.qg_apply` and :func:`~cyclozeta.algebra.project_piY`,
which return series on series.  The star functors (on series) and the sharp
functors (on polynomials) are one letter substitution read in the two
directions of a group arrow: a push forward ``x_g -> x_{hom(g)}`` or a pull
back ``x_h -> sum of preimage letters``, with ``x0 -> |ker| x0`` on the
covariant side of the duality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (AlgebraElement, HARMONIC_DIAMOND, ZERO_DIAMOND,
                      _quasi_shuffle_words, project_piY, qg_apply)
from .checks import Check, differences, fold
from .errors import AlphabetMismatchError, InvalidArgumentError
from .groups import FiniteAbelianGroup, GroupHom, PowerStructure, hom_inclusion, hom_power
from .regularization import ZMap, bar_reg, extend_Z_st
from .series import Alphabet, TruncatedSeries, series_exp
from . import words as W


# -- grouplike checks ------------------------------------------------------


@dataclass(frozen=True)
class GrouplikeReport:
    """A grouplike check and the number of word pairs it compared."""

    check: Check
    pairs_checked: int

    @property
    def passed(self) -> bool:
        return self.check.passed


def _pair_format(kind: str):
    fmt = W.format_x_word if kind == "x" else W.format_y_word
    return lambda pair: f"{fmt(pair[0])}|{fmt(pair[1])}"


def _pair_residuals(phi: TruncatedSeries, diamond):
    """``((u, v), sum_w (phi|w) n_w - (phi|u)(phi|v))`` over the nonempty
    word pairs of total degree at most the bound of ``phi``, where ``u
    *_diamond v = sum_w n_w w``: the only pair loop that multiplies words.
    It reads the word-level counts directly, with a fresh memo for each
    pair, and sums from the ring's zero."""
    alphabet, terms, zero = phi.alphabet, phi.terms, phi.ring.zero
    words = [(w, alphabet.word_degree(w))
             for w in alphabet.words_up_to(phi.degree_bound - 1) if w]
    for u, du in words:
        for v, dv in words:
            if du + dv > phi.degree_bound:
                continue
            counts = _quasi_shuffle_words(diamond)(u, v)
            lhs = sum((terms.get(w, zero) * n for w, n in counts.items()), zero)
            yield (u, v), lhs - terms.get(u, zero) * terms.get(v, zero)


def grouplike_check(phi: TruncatedSeries, product: str = "shuffle") -> GrouplikeReport:
    """Verify ``(phi | u * v) = (phi | u)(phi | v)`` for all nonempty word
    pairs within the truncation degree, together with ``(phi | 1) = 1``,
    which the check reports as the pair ``1|1``."""
    diamond = {"shuffle": ZERO_DIAMOND, "harmonic": HARMONIC_DIAMOND}.get(product)
    if diamond is None:
        raise InvalidArgumentError(f"unknown coproduct {product!r}")
    if diamond is HARMONIC_DIAMOND and phi.alphabet.kind != "y":
        raise AlphabetMismatchError("the harmonic check needs a Y-side series")
    ring = phi.ring
    alphabet = phi.alphabet
    residuals = [(((), ()), phi.coeff(()) - ring.one)]
    # every word of a product of two words in the loop is within the bound
    residuals += _pair_residuals(phi, diamond)
    check = fold(f"dmr-{product}-grouplike", f"N={alphabet.group.order}", ring,
                 residuals, _pair_format(alphabet.kind))
    return GrouplikeReport(check, len(residuals) - 1)


# -- the generating series of an evaluation map -----------------------------


def phi_from_Z(Z: ZMap, degree: int) -> TruncatedSeries:
    """The series whose coefficient at ``w`` is Z of the regularization of
    ``w`` at T = 0; its x0 and x1 coefficients vanish by construction."""
    alphabet = Alphabet.x(Z.group)
    out = {}
    for w in alphabet.words_up_to(degree):
        elem = AlgebraElement.from_word(Z.ring, "x", Z.group, w)
        out[w] = Z.eval_element(bar_reg(elem))
    return TruncatedSeries.make(Z.ring, alphabet, degree, out)


def phi_corr(phi: TruncatedSeries) -> TruncatedSeries:
    """``exp(sum_{n>=2} ((-1)^(n-1)/n) (phi | x0^(n-1) x1) x1^n)`` as a
    Y-series through the bound of ``phi``."""
    ring = phi.ring
    group = phi.alphabet.group
    identity = group.identity()
    y_alphabet = Alphabet.y(group, phi.alphabet.letters)
    arg = {}
    for n in range(2, phi.degree_bound + 1):
        word = (W.X0,) * (n - 1) + (identity,)
        c = phi.coeff(word) * Fraction((-1) ** (n - 1), n)
        arg[((1, identity),) * n] = c
    return series_exp(TruncatedSeries.make(ring, y_alphabet, phi.degree_bound, arg))


def phi_star(phi: TruncatedSeries) -> TruncatedSeries:
    """The corrected Y-side series ``phi_corr . piY(qhat(phi))``."""
    if not phi.ring.eq(phi.coeff(()), phi.ring.one):
        raise InvalidArgumentError("phi_star needs (phi | 1) = 1")
    return phi_corr(phi) * project_piY(qg_apply(phi))


# -- DMR membership -------------------------------------------------------


def dmr_check(phi: TruncatedSeries) -> list[Check]:
    """The double-shuffle-and-regularization condition on a series: shuffle
    grouplikeness, harmonic grouplikeness of the corrected series, and
    vanishing x0 and x1 coefficients.  Failures are reported, not raised."""
    ring = phi.ring
    params = f"N={phi.alphabet.group.order}"
    sh = grouplike_check(phi, "shuffle").check
    unit = phi.coeff(()) - ring.one
    if ring.is_zero(unit):
        st = grouplike_check(phi_star(phi), "harmonic").check
    else:
        # no corrected series without a unit coefficient; report the unit
        st = fold("dmr-harmonic-grouplike", params, ring, [(((), ()), unit)],
                  _pair_format("y"))
    letters = ((W.X0,), (phi.alphabet.group.identity(),))
    vanish = fold("dmr-x0-x1-vanish", params, ring,
                  ((w, phi.coeff(w)) for w in letters), W.format_x_word)
    return [sh, st, vanish]


# -- letter-substitution functors -------------------------------------------


def _ambient(letters) -> FiniteAbelianGroup:
    return letters[0].group


def _substitute(terms: dict, images, x0_factor: int) -> dict:
    """Replace each group letter ``g`` by the sum of the letters
    ``images(g)`` and each ``x0`` by ``x0_factor * x0``, linearly."""
    out: dict = {}
    for word, c in terms.items():
        factor = 1
        expansions = [()]
        for letter in word:
            if letter is W.X0:
                factor *= x0_factor
                expansions = [w + (W.X0,) for w in expansions]
            else:
                expansions = [w + (g,) for w in expansions for g in images(letter)]
        term = c * factor
        for key in expansions:
            out[key] = out[key] + term if key in out else term
    return out


def functor_star(phi: TruncatedSeries, hom: GroupHom, kind: str) -> TruncatedSeries:
    """The series-level functors of a group arrow.

    ``upper`` is contravariant: it sends a series over the codomain letters to
    one over the domain letters via ``x_h -> sum of preimage letters``.
    ``lower`` is covariant: ``x0 -> |ker| x0`` and ``x_g -> x_{image}``.
    """
    if phi.alphabet.kind != "x":
        raise AlphabetMismatchError("functor_star acts on X-side series")
    if kind == "upper":
        source, target = hom.codomain, hom.domain
        images, x0_factor = hom.preimage, 1
    elif kind == "lower":
        source, target = hom.domain, hom.codomain
        images, x0_factor = (lambda g: (hom(g),)), hom.kernel_size
    else:
        raise InvalidArgumentError(f"unknown functor kind {kind!r}")
    if not set(phi.alphabet.letters) <= set(source):
        raise AlphabetMismatchError("series alphabet does not match the arrow")
    out_alphabet = Alphabet.x(_ambient(target), target)
    return TruncatedSeries.make(phi.ring, out_alphabet, phi.degree_bound,
                                _substitute(phi.terms, images, x0_factor))


def functor_sharp(elem: AlgebraElement, hom: GroupHom, kind: str) -> AlgebraElement:
    """The polynomial-side duals: ``upper`` pushes letters forward along the
    arrow, ``lower`` replaces a letter by the sum of its preimages with
    ``x0 -> |ker| x0``."""
    if elem.kind != "x":
        raise AlphabetMismatchError("functor_sharp acts on X-side elements")
    if kind == "upper":
        target, images, x0_factor = hom.codomain, (lambda g: (hom(g),)), 1
    elif kind == "lower":
        target, images, x0_factor = hom.domain, hom.preimage, hom.kernel_size
    else:
        raise InvalidArgumentError(f"unknown functor kind {kind!r}")
    return AlgebraElement.make(elem.ring, "x", _ambient(target),
                               _substitute(elem.terms, images, x0_factor))


# -- distribution condition on series ---------------------------------------


def dmrd_check(phi: TruncatedSeries, ps: PowerStructure) -> Check:
    """One divisor's distribution condition:
    ``p^d_*(phi) = exp(sum_{g^d=1} (phi|x_g) x_1) i_d^*(phi)``."""
    ring = phi.ring
    lhs = functor_star(phi, hom_power(ps), "lower")
    restricted = functor_star(phi, hom_inclusion(ps), "upper")
    coeff = ring.zero
    for g in ps.kernel:
        coeff = coeff + phi.coeff((g,))
    identity_word = (ps.group.identity(),)
    exp_arg = TruncatedSeries.make(
        ring, restricted.alphabet, phi.degree_bound, {identity_word: coeff})
    rhs = series_exp(exp_arg) * restricted
    return fold("dmrd", f"N={ps.group.order} d={ps.d}", ring,
                differences(lhs.terms, rhs.terms, ring.zero), W.format_x_word)


# -- the coefficientwise comparison behind the scheme equivalence -----------


def eds_dmr_equality_check(Z: ZMap, degree: int) -> Check:
    """Compare the corrected series of ``phi_from_Z`` with the series whose
    coefficients come from the harmonic-side regularized map, word by word
    on the Y basis through the degree.  That map is ``rho^-1`` of the
    shuffle-side one (:func:`extend_Z_st`), so both sides share the
    correction path and the row can only fail by rounding."""
    lhs = phi_star(phi_from_Z(Z, degree))
    ring = Z.ring

    def residuals():
        for w in lhs.alphabet.words_up_to(degree):
            elem = AlgebraElement.from_word(ring, "y", Z.group, w)
            yield w, lhs.coeff(w) - extend_Z_st(Z, elem).coeff(0, ring.zero)

    return fold("eds-dmr-equality", f"N={Z.group.order} degree={degree}", ring,
                residuals(), W.format_y_word)
