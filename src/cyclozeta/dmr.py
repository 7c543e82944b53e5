"""Series-level machinery: coproduct duality checks, the corrected series,
the four letter-substitution functors, and the membership predicates for the
double-shuffle and distribution conditions on series.

A series is grouplike for the coproduct dual to a product exactly when its
coefficient functional is multiplicative, so the checks run over word pairs
through the truncation degree.  Both products commute, because the group is
abelian, so a pair and its reverse have the same residual and each unordered
pair is checked once.  The word-level products of those pairs do not depend
on the series: they are tabulated per alphabet, bound and product, as
integer positions and counts.  One table is cached, and :func:`dmr_check`
drops the shuffle table before it builds the harmonic one.  Over the
rational ring a series' coefficients are summed as integers over the lcm
``D`` of their denominators, and only a nonzero residual is built as a
``Fraction``; the cost grows with the size of ``D``.  Other rings sum their
values as they are.  Every check returns :class:`~cyclozeta.checks.Check`
rows, one per CLI report line.

The corrected series twists and projects with the word-algebra maps
:func:`~cyclozeta.algebra.qg_apply` and :func:`~cyclozeta.algebra.project_piY`,
which return series on series.  The star functors (on series) and the sharp
functors (on polynomials) are one letter substitution read in the two
directions of a group arrow: a push forward ``x_g -> x_{hom(g)}`` or a pull
back ``x_h -> sum of preimage letters``, with ``x0 -> |ker| x0`` on the
covariant side of the duality.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice

from .algebra import (AlgebraElement, HARMONIC_DIAMOND, ZERO_DIAMOND,
                      _quasi_shuffle_words, project_piY, qg_apply)
from .checks import Check, differences, fold
from .errors import AlphabetMismatchError, InvalidArgumentError
from .groups import FiniteAbelianGroup, GroupHom, PowerStructure
from .regularization import ZMap, _reg_levels, extend_Z_st
from .rings import RATIONAL, RationalRing
from .series import Alphabet, TruncatedSeries, _word_table, series_exp
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


@lru_cache(maxsize=1)
def _pair_table(alphabet: Alphabet, bound: int, diamond) -> tuple:
    """The word-level products the pair loop reads, which no series changes:
    ``(words, us, vs, ends, positions, counts)``.  ``words`` and the word
    degrees come from the word table of the alphabet and bound
    (:func:`~cyclozeta.series._word_table`), which the series' own terms
    read as well; pair ``k`` is ``(words[us[k]], words[vs[k]])``, and its
    product ``sum_w n_w w`` is the entries ``ends[k-1]:ends[k]`` of
    ``positions`` (of ``w`` in ``words``) and ``counts`` (``n_w``), in the
    order the word recursion yields them.  The pairs are the unordered
    nonempty ones of total degree at most ``bound``, ``u`` at or before
    ``v`` in ``words`` order, first word outermost: both products commute,
    because the group is abelian, so ``(v, u)`` has the same product.  They
    are stored flat in int arrays rather than as a tuple each, and each
    first word gets its own word memo, dropped before the next one starts,
    rather than one memo for the whole table: this keeps the peak memory of
    a large ``dmr-check`` near that of the plain pair loop.  One table is cached, so the maps of one suite share it;
    :func:`dmr_check` drops the shuffle table before it builds the harmonic
    one, and that ``cache_clear()`` also resets the hit and miss counts."""
    words, degree_of = _word_table(alphabet, bound)
    index = {w: i for i, w in enumerate(words)}
    degrees = [degree_of[w] for w in words]
    firsts = [i for i, d in enumerate(degrees) if 0 < d < bound]
    us, vs, ends, positions, counts = (array("I") for _ in range(5))
    for k, u in enumerate(firsts):
        qs = _quasi_shuffle_words(diamond)
        for v in firsts[k:]:
            if degrees[u] + degrees[v] > bound:
                break  # firsts runs by degree
            for w, n in qs(words[u], words[v]).items():
                positions.append(index[w])
                counts.append(n)
            us.append(u)
            vs.append(v)
            ends.append(len(positions))
    return words, us, vs, ends, positions, counts


def _pair_residuals(phi: TruncatedSeries, diamond):
    """``((u, v), sum_w (phi|w) n_w - (phi|u)(phi|v))`` over the unordered
    nonempty word pairs of total degree at most the bound of ``phi``, ``u``
    first in word order, where ``u *_diamond v = sum_w n_w w``: the only
    pair loop that multiplies words.  The products commute, because the
    group is abelian, so ``(v, u)`` would give the same residual.  It reads
    the counts from :func:`_pair_table` and the coefficients of ``phi`` by
    position, so each word is hashed once per series.  The sum starts from
    its first term (every product of two nonempty words has one) and skips
    the multiply at count 1.

    Over the rational ring the coefficients are summed as integers: each
    is scaled to ``c * D``, with ``D`` the lcm of their denominators, so a
    pair's residual is ``r / D**2`` with ``r = lhs * D - (phi|u)(phi|v)``
    in ints.  A nonzero ``r`` is built as one ``Fraction``, and ``r == 0``
    yields the ring's zero, so the values are those of ``Fraction``
    arithmetic.  The cost of an int operation grows with the size of
    ``D``: a series whose denominators are many distinct large primes runs
    slower than with ``Fraction``s.  Every other ring sums its values as
    they are."""
    words, us, vs, ends, positions, counts = _pair_table(
        phi.alphabet, phi.degree_bound, diamond)
    zero = phi.ring.zero
    get = phi.terms.get
    vals = [get(w, zero) for w in words]
    integral = isinstance(phi.ring, RationalRing)
    if integral:
        scale = math.lcm(*(c.denominator for c in vals))
        square = scale * scale
        vals = [c.numerator * (scale // c.denominator) for c in vals]
    terms = zip(positions, counts)
    start = 0
    for u, v, end in zip(us, vs, ends):
        product = islice(terms, end - start)
        p, n = next(product)
        lhs = vals[p] if n == 1 else vals[p] * n
        for p, n in product:
            lhs = lhs + (vals[p] if n == 1 else vals[p] * n)
        start = end
        if integral:
            r = lhs * scale - vals[u] * vals[v]
            yield (words[u], words[v]), Fraction(r, square) if r else zero
        else:
            yield (words[u], words[v]), lhs - vals[u] * vals[v]


def grouplike_check(phi: TruncatedSeries, product: str = "shuffle") -> GrouplikeReport:
    """Verify ``(phi | u * v) = (phi | u)(phi | v)`` for all nonempty word
    pairs within the truncation degree, together with ``(phi | 1) = 1``,
    which the check reports as the pair ``1|1``.  Both products commute,
    because the group is abelian, so each unordered pair is checked once,
    named ``u|v`` with ``u`` first in word order, and ``pairs_checked``
    counts unordered pairs."""
    diamond = {"shuffle": ZERO_DIAMOND, "harmonic": HARMONIC_DIAMOND}.get(product)
    if diamond is None:
        raise InvalidArgumentError(f"unknown coproduct {product!r}")
    if diamond is HARMONIC_DIAMOND and phi.alphabet.kind != "y":
        raise AlphabetMismatchError("the harmonic check needs a Y-side series")
    ring = phi.ring
    alphabet = phi.alphabet
    checked = 0

    def residuals():
        # streamed into the fold: a list of every pair's row would outweigh
        # the pair table
        nonlocal checked
        yield ((), ()), phi.coeff(()) - ring.one
        # every word of a product of two words in the loop is within the bound
        for checked, row in enumerate(_pair_residuals(phi, diamond), 1):
            yield row

    check = fold(f"dmr-{product}-grouplike", f"N={alphabet.group.order}", ring,
                 residuals(), _pair_format(alphabet.kind))
    return GrouplikeReport(check, checked)


# -- the generating series of an evaluation map -----------------------------


def phi_from_Z(Z: ZMap, degree: int) -> TruncatedSeries:
    """The series whose coefficient at ``w`` is Z of the regularization of
    ``w`` at T = 0; its x0 and x1 coefficients vanish by construction.  Each
    word's T^0 row is summed over the rationals before Z evaluates it."""
    alphabet = Alphabet.x(Z.group)
    out = {}
    for w in alphabet.words_up_to(degree):
        elem = AlgebraElement.from_word(RATIONAL, "x", Z.group, w)
        out[w] = Z._eval_terms(_reg_levels(elem).get(0, {}))
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
    # nothing reads the shuffle table again; free it before the harmonic one
    _pair_table.cache_clear()
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
    lhs = functor_star(phi, ps.power, "lower")
    restricted = functor_star(phi, ps.inclusion, "upper")
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
            elem = AlgebraElement.from_word(RATIONAL, "y", Z.group, w)
            yield w, lhs.coeff(w) - extend_Z_st(Z, elem).coeff(0, ring.zero)

    return fold("eds-dmr-equality", f"N={Z.group.order} degree={degree}", ring,
                residuals(), W.format_y_word)
