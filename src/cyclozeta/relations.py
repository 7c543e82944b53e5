"""Relation elements and the word-level identities between them.

Everything in this module lives over exact rationals in the convergent
subalgebra: the distribution tails ``FDT``, the finite double shuffle
elements ``FDS`` and the regularized ones ``RDS``, the two sides of each
finite relation (:func:`fds_sides`, :func:`sharp_sides`), the exact
decomposition of the depth-two distribution tail into those pieces.  A
relation element is a plain :class:`~cyclozeta.algebra.AlgebraElement`
summed once from ``(coefficient, word)`` pairs; its constructor refuses
arguments outside the relation's range, but its formula reads at any letter
(``FDS(1, g)`` is ``RDS(g)``): the decomposition is one sum for all h.  The
weight-one tail carries the order of the d-torsion ``K_d`` as its x0 factor,
as the sharp map does, so every identity here holds on every finite abelian
group.  The regularized-distribution verifiers (the weight-two case table and
the full word range) compare the two sides of :func:`distribution_sides`
under an evaluation map and return :class:`~cyclozeta.checks.Check` rows.
They decide the conclusion only; the hypotheses have suites of their own.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraElement, harmonic, qg_apply, shuffle, x_to_y, y_to_x
from .checks import Check, fold
from .dmr import functor_sharp
from .errors import InvalidArgumentError
from .groups import (FiniteAbelianGroup, GroupElement, PowerStructure,
                     divisors_of_order, power_structure)
from .regularization import TPolynomial, ZMap, extend_Z_sh, sigma_apply
from .rings import RATIONAL
from .words import X0, format_x_word, x_words_up_to


def _combination(group: FiniteAbelianGroup, pieces) -> AlgebraElement:
    """``sum c * word`` over the ``(c, word)`` pairs, each ``c`` through ``RATIONAL.coerce``."""
    out: dict = {}
    for c, word in pieces:
        c = RATIONAL.coerce(c)
        out[word] = out[word] + c if word in out else c
    return AlgebraElement.make(RATIONAL, "x", group, out)


def fdt1_element(ps: PowerStructure, h: GroupElement) -> AlgebraElement:
    """``|K_d| * sum_{g^d = h} x0 x_g  -  x0 x_h``.

    The x0 factor is the order of the d-torsion ``K_d``, the factor the sharp
    map gives (:func:`sharp_sides`); it is ``d`` on every cyclic group."""
    if h not in ps.preimages:
        raise InvalidArgumentError(f"{h} is not a d-th power")
    return _combination(ps.group, [(len(ps.kernel), (X0, g)) for g in ps.preimages[h]]
                        + [(-1, (X0, h))])


def fdt2_element(ps: PowerStructure, h1: GroupElement,
                 h2: GroupElement) -> AlgebraElement:
    """``sum_{g1^d=h1, g2^d=h2} x_{g1} x_{g2}  -  x_{h1} x_{h2}``; needs h1 != 1."""
    if h1.is_identity:
        raise InvalidArgumentError("FDT2 requires h1 != 1")
    for h in (h1, h2):
        if h not in ps.preimages:
            raise InvalidArgumentError(f"{h} is not a d-th power")
    return _combination(ps.group, _fdt2(ps, h1, h2))


def _fdt2(ps: PowerStructure, h1: GroupElement, h2: GroupElement) -> list:
    """The words of :func:`fdt2_element`, unrefused: at ``h1 = h2 = 1`` too."""
    return ([(1, (g1, g2)) for g1 in ps.preimages[h1] for g2 in ps.preimages[h2]]
            + [(-1, (h1, h2))])


def fds_element(g1: GroupElement, g2: GroupElement) -> AlgebraElement:
    """``x0 x_{g1 g2} + x_{g1} x_{g1 g2} + x_{g2} x_{g1 g2} - x_{g1} x_{g2} - x_{g2} x_{g1}``."""
    if g1.is_identity or g2.is_identity:
        raise InvalidArgumentError("FDS requires g1, g2 != 1")
    return _combination(g1.group, _fds(g1, g2))


def _fds(g1: GroupElement, g2: GroupElement) -> list:
    """The words of :func:`fds_element`, unrefused: ``rds_element(g1)`` at ``g2 = 1``."""
    g12 = g1 * g2
    return [(1, (X0, g12)), (1, (g1, g12)), (1, (g2, g12)),
            (-1, (g1, g2)), (-1, (g2, g1))]


def rds_element(g: GroupElement) -> AlgebraElement:
    """``x0 x_g + x_g x_g - x_g x_1``: the FDS formula at ``(g, 1)``."""
    if g.is_identity:
        raise InvalidArgumentError("RDS requires g != 1")
    return _combination(g.group, _fds(g, g.group.identity()))


# -- the two sides of each finite relation -----------------------------------


def fds_sides(ring, group: FiniteAbelianGroup, u: tuple,
              v: tuple) -> tuple[AlgebraElement, AlgebraElement]:
    """The two sides the finite double shuffle relation equates on the X
    words ``u`` and ``v`` ending in group letters: ``q^-1(u * v)``, the
    harmonic product taken through the Y encoding, and ``q^-1 u sh q^-1 v``."""
    eu = AlgebraElement.from_word(ring, "x", group, u)
    ev = AlgebraElement.from_word(ring, "x", group, v)
    stuffle = qg_apply(y_to_x(harmonic(x_to_y(eu), x_to_y(ev))), inverse=True)
    return stuffle, shuffle(qg_apply(eu, inverse=True), qg_apply(ev, inverse=True))


def sharp_sides(ps: PowerStructure,
                elem: AlgebraElement) -> tuple[AlgebraElement, AlgebraElement]:
    """The two sides the finite distribution relation equates on ``elem``:
    its lower sharp image along the power map ``p^d`` and its upper sharp
    image along the inclusion ``i_d``."""
    return (functor_sharp(elem, ps.power, "lower"),
            functor_sharp(elem, ps.inclusion, "upper"))


# -- the depth-two decomposition ---------------------------------------------


@dataclass(frozen=True)
class FDTd1Report:
    d: int
    h: GroupElement
    lhs: AlgebraElement
    rhs: AlgebraElement
    difference: AlgebraElement
    passed: bool


def fdtd1_identity_check(group: FiniteAbelianGroup, d: int,
                         h: GroupElement) -> FDTd1Report:
    """Exact equality of the depth-two distribution tail against its
    decomposition into double-shuffle and lower-weight pieces, one formula
    for every d-th power h, with ``K_d*`` the nontrivial d-torsion:
    ``FDT1(h) = sum_{g1^d=h, g2 in K_d*} FDS(g1, g2) + sum_{g^d=h} RDS(g)
    - RDS(h) + FDT2(h, 1) - FDT2(h, h)``.  Each piece reads at any letter:
    FDS(1, g) is RDS(g), and the FDT2 terms cancel at h = 1.  The
    ``|K_d| - 1`` elements of ``K_d*`` balance the ``|K_d|`` of
    :func:`fdt1_element`, so it holds on every finite abelian group."""
    return _fdtd1_report(power_structure(group, d), h)


def _fdtd1_families(ps: PowerStructure, h: GroupElement) -> list:
    """The decomposition's five families of ``(sign, [(c, word), ...])``."""
    one, preimages = ps.group.identity(), ps.preimages[h]
    return [[(1, _fds(g1, g2)) for g1 in preimages for g2 in ps.kernel if g2 != one],
            [(1, _fds(g, one)) for g in preimages], [(-1, _fds(h, one))],
            [(1, _fdt2(ps, h, one))], [(-1, _fdt2(ps, h, h))]]


def _fdtd1_report(ps: PowerStructure, h: GroupElement) -> FDTd1Report:
    """:func:`fdtd1_identity_check` on a power structure already built."""
    lhs = fdt1_element(ps, h)  # refuses an h that is not a d-th power
    rhs = _combination(ps.group, [(sign * c, word) for family in _fdtd1_families(ps, h)
                                  for sign, words in family for c, word in words])
    difference = lhs - rhs
    return FDTd1Report(ps.d, h, lhs, rhs, difference, not difference.terms)


def fdtd1_grid(group: FiniteAbelianGroup) -> list[tuple[tuple[int, ...], FDTd1Report]]:
    """Run the decomposition once per distinct identity over every divisor
    d >= 2 and every d-th power h, each with the divisors it covers.

    Both sides of the cell (d, h) are fixed by h and its preimage class
    under ``p^d``, so divisors that share the class share the identity: on
    4x4 the cells h=1 at d = 4, 8 and 16 are one, with ``K_d = G``."""
    cells: dict = {}
    for ps in (power_structure(group, d) for d in divisors_of_order(group) if d >= 2):
        for h in ps.subgroup:
            cells.setdefault((h, ps.preimages[h]), []).append(ps)
    return [(tuple(p.d for p in pss), _fdtd1_report(pss[0], h))
            for (h, _), pss in cells.items()]


# -- regularized distribution -------------------------------------------------


def distribution_sides(Z: ZMap, ps: PowerStructure,
                       elem: AlgebraElement) -> tuple[TPolynomial, TPolynomial]:
    """The two T-polynomials the regularized distribution relation equates
    on ``elem``: the shuffle-regularized value of its lower sharp image, and
    ``sigma`` applied to that of its upper sharp image."""
    lower, upper = sharp_sides(ps, elem)
    return extend_Z_sh(Z, lower), sigma_apply(Z, ps.kernel, extend_Z_sh(Z, upper))


def _regdist_residuals(Z: ZMap, ps: PowerStructure, word: tuple):
    """``("T^l", lhs - rhs at T^l)`` for the two sides of the regularized
    distribution relation on the X word ``word``, through the larger degree:
    two zero polynomials still compare their constant terms."""
    zero = Z.ring.zero
    lhs, rhs = distribution_sides(Z, ps, _combination(ps.group, [(1, word)]))
    for l in range(max(lhs.degree(), rhs.degree()) + 1):
        yield f"T^{l}", lhs.coeff(l, zero) - rhs.coeff(l, zero)


def zhao_case_table(Z: ZMap, group: FiniteAbelianGroup, d: int) -> list[Check]:
    """Every case-table cell (x0, identity and each nontrivial d-th power in
    both slots): the regularized distribution relation on ``x_{h1} x_{h2}``,
    compared coefficient by coefficient in T; a cell's params name its word,
    its detail the worst T power.

    The cells are the conclusion of Zhao's weight-two statement.  Its
    hypotheses are decided by other suites, each relation once: double
    shuffle by :func:`~cyclozeta.dmr.dmr_check`, finite distribution on the
    weight-one and depth-two words by the ``dist`` rows of
    :func:`~cyclozeta.numeval.numeric_relation_suite` at weight 2."""
    ps = power_structure(group, d)
    choices = [X0] + list(ps.subgroup)
    return [fold("zhao-cell", f"d={d} cell={format_x_word((h1, h2))}",
                 Z.ring, _regdist_residuals(Z, ps, (h1, h2)), str)
            for h1 in choices for h2 in choices]


def regdist_full_check(Z: ZMap, group: FiniteAbelianGroup, d: int,
                       max_len: int) -> Check:
    """The regularized distribution relation on every word over the d-th
    power alphabet up to ``max_len``, every coefficient of T, as the one row
    ``regdist-T-level``; the detail names the worst word.

    The row also decides the relation at the value level and on the
    generating family ``x1^m sh w``, because :func:`distribution_sides` is
    linear in its element (the sharp maps, ``extend_Z_sh`` and
    ``sigma_apply`` all are).  The value-level residual of a word is its
    T^0 residual here.  Every word of ``x1^m sh w`` is a word of this range,
    so a generator's residual is an integer combination of the residuals
    here: exactly over the rationals, up to rounding over the complex
    numbers."""
    ps = power_structure(group, d)
    residuals = ((w, c) for w in x_words_up_to(ps.subgroup, max_len)
                 for _, c in _regdist_residuals(Z, ps, w))
    return fold("regdist-T-level", f"d={d}", Z.ring, residuals, format_x_word)
