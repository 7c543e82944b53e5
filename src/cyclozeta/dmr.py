"""Series-level machinery: coproduct duality checks, the corrected series,
the four letter-substitution functors, and the membership predicates for the
double-shuffle and distribution conditions on series.

Coproducts are never materialized: a series is grouplike for the coproduct
dual to a product exactly when its coefficient functional is multiplicative,
so the checks run over word pairs through the truncation degree.

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

from .algebra import (AlgebraElement, DiamondProduct, HARMONIC_DIAMOND,
                      ZERO_DIAMOND, project_piY, qg_apply, quasi_shuffle)
from .errors import AlphabetMismatchError, InvalidArgumentError
from .groups import FiniteAbelianGroup, GroupHom, PowerStructure, divisors_of_order, hom_inclusion, hom_power, power_structure
from .regularization import ZMap, bar_reg, extend_Z_st
from .rings import RATIONAL
from .series import Alphabet, TruncatedSeries, series_exp
from . import words as W


# -- grouplike checks ------------------------------------------------------


@dataclass(frozen=True)
class GrouplikeReport:
    product: str
    degree: int
    passed: bool
    max_residual: float
    worst: tuple | None  # (u, v, residual)
    unit_ok: bool
    pairs_checked: int

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} grouplike[{self.product}] degree={self.degree} "
                f"max_residual={self.max_residual:.3e} pairs={self.pairs_checked}")


def grouplike_check(phi: TruncatedSeries, product: str = "shuffle",
                    diamond: DiamondProduct | None = None) -> GrouplikeReport:
    """Verify ``(phi | u * v) = (phi | u)(phi | v)`` for all nonempty word
    pairs within the truncation degree, together with ``(phi | 1) = 1``."""
    if diamond is None:
        if product == "shuffle":
            diamond = ZERO_DIAMOND
        elif product == "harmonic":
            diamond = HARMONIC_DIAMOND
        else:
            raise InvalidArgumentError(f"unknown coproduct {product!r}")
    if diamond is HARMONIC_DIAMOND and phi.alphabet.kind != "y":
        raise AlphabetMismatchError("the harmonic check needs a Y-side series")
    ring = phi.ring
    alphabet = phi.alphabet
    bound = phi.degree_bound
    unit_ok = ring.eq(phi.coeff(()), ring.one)
    worst = None
    max_res = 0.0
    pairs = 0
    words = [w for w in alphabet.words_up_to(bound - 1) if w]
    for u in words:
        du = alphabet.word_degree(u)
        for v in words:
            if du + alphabet.word_degree(v) > bound:
                continue
            pairs += 1
            eu = AlgebraElement.from_word(RATIONAL, alphabet.kind, alphabet.group, u)
            ev = AlgebraElement.from_word(RATIONAL, alphabet.kind, alphabet.group, v)
            prod = quasi_shuffle(eu, ev, diamond)
            lhs = ring.zero
            for w, c in prod.terms.items():
                lhs = lhs + c * phi.coeff(w)
            residual = lhs - phi.coeff(u) * phi.coeff(v)
            mag = ring.abs(residual)
            if mag > max_res:
                max_res = mag
                worst = (u, v, residual)
    passed = unit_ok and (worst is None or ring.is_zero(worst[2]))
    return GrouplikeReport(product, bound, passed, max_res, worst, unit_ok, pairs)


# -- the generating series of an evaluation map -----------------------------


def phi_from_Z(Z: ZMap, degree: int, letters=None) -> TruncatedSeries:
    """The series whose coefficient at ``w`` is Z of the regularization of
    ``w`` at T = 0; its x0 and x1 coefficients vanish by construction."""
    if Z.degree_bound is not None and Z.degree_bound < degree:
        raise InvalidArgumentError(
            f"Z map working degree {Z.degree_bound} is below {degree}")
    alphabet = Alphabet.x(Z.group, letters)
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
        c = Fraction((-1) ** (n - 1), n) * phi.coeff(word)
        arg[((1, identity),) * n] = c
    return series_exp(TruncatedSeries.make(ring, y_alphabet, phi.degree_bound, arg))


def phi_star(phi: TruncatedSeries) -> TruncatedSeries:
    """The corrected Y-side series ``phi_corr . piY(qhat(phi))``."""
    if not phi.ring.eq(phi.coeff(()), phi.ring.one):
        raise InvalidArgumentError("phi_star needs (phi | 1) = 1")
    return phi_corr(phi) * project_piY(qg_apply(phi))


# -- DMR membership -------------------------------------------------------


@dataclass(frozen=True)
class DMRReport:
    degree: int
    shuffle_report: GrouplikeReport
    harmonic_report: GrouplikeReport
    x0_ok: bool
    x1_ok: bool
    passed: bool

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} dmr degree={self.degree} "
                f"shuffle={self.shuffle_report.max_residual:.3e} "
                f"harmonic={self.harmonic_report.max_residual:.3e} "
                f"x0_ok={self.x0_ok} x1_ok={self.x1_ok}")


def dmr_check(phi: TruncatedSeries,
              diamond: DiamondProduct | None = None) -> DMRReport:
    """The double-shuffle-and-regularization condition on a series: shuffle
    grouplikeness, harmonic grouplikeness of the corrected series, and
    vanishing x0 and x1 coefficients.  Failures are reported, not raised."""
    ring = phi.ring
    group = phi.alphabet.group
    sh = grouplike_check(phi, "shuffle")
    if sh.unit_ok:
        st = grouplike_check(phi_star(phi), "harmonic", diamond)
    else:
        # no corrected series without a unit coefficient; report the failure
        st = GrouplikeReport("harmonic", phi.degree_bound, False, float("inf"),
                             None, False, 0)
    x0_ok = ring.is_zero(phi.coeff((W.X0,)))
    x1_ok = ring.is_zero(phi.coeff((group.identity(),)))
    passed = sh.passed and st.passed and x0_ok and x1_ok
    return DMRReport(phi.degree_bound, sh, st, x0_ok, x1_ok, passed)


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
        for key in expansions:
            out[key] = out.get(key, 0) + factor * c
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


@dataclass(frozen=True)
class DMRDReport:
    d: int
    degree: int
    passed: bool
    max_residual: float
    worst_word: tuple | None

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} dmrd d={self.d} degree={self.degree} "
                f"max_residual={self.max_residual:.3e}")


def dmrd_check(phi: TruncatedSeries, ps: PowerStructure) -> DMRDReport:
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
    diff = lhs - rhs
    max_res = 0.0
    worst = None
    for w, c in diff.terms.items():
        mag = ring.abs(c)
        if mag > max_res:
            max_res, worst = mag, w
    passed = all(ring.is_zero(c) for c in diff.terms.values())
    return DMRDReport(ps.d, phi.degree_bound, passed, max_res, worst)


def dmrd_check_all(phi: TruncatedSeries) -> list[DMRDReport]:
    """The full distribution condition: every divisor of the group order."""
    group = phi.alphabet.group
    return [dmrd_check(phi, power_structure(group, d))
            for d in divisors_of_order(group)]


# -- the coefficientwise comparison behind the scheme equivalence -----------


@dataclass(frozen=True)
class EqualityReport:
    degree: int
    passed: bool
    max_residual: float
    worst_word: tuple | None
    words_checked: int

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} eds-dmr degree={self.degree} "
                f"max_residual={self.max_residual:.3e} words={self.words_checked}")


def eds_dmr_equality_check(Z: ZMap, degree: int) -> EqualityReport:
    """Compare the corrected series of ``phi_from_Z`` with the series whose
    coefficients come from the harmonic-side regularized map, word by word
    on the Y basis through the degree."""
    lhs = phi_star(phi_from_Z(Z, degree))
    ring = Z.ring
    max_res = 0.0
    worst = None
    count = 0
    passed = True
    for w in lhs.alphabet.words_up_to(degree):
        count += 1
        elem = AlgebraElement.from_word(ring, "y", Z.group, w)
        rhs_c = extend_Z_st(Z, elem).coeff(0, ring.zero)
        residual = lhs.coeff(w) - rhs_c
        mag = ring.abs(residual)
        if mag > max_res:
            max_res, worst = mag, w
        if not ring.is_zero(residual):
            passed = False
    return EqualityReport(degree, passed, max_res, worst, count)
