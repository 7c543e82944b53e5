"""Relation elements and the word-level identities between them.

Everything in this module lives over exact rationals in the convergent
subalgebra: the distribution tails ``FDT``, the finite double shuffle
elements ``FDS`` and the regularized ones ``RDS``, the two sides of each
finite relation (:func:`fds_sides`, :func:`sharp_sides`), the exact
decomposition of the depth-two distribution tail into those pieces, and the
kernel reformulations.  The regularized-distribution verifiers (the weight-two
case table and the full word range) compare the two sides of
:func:`distribution_sides` under an evaluation map and return
:class:`~cyclozeta.checks.Check` rows.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

from .algebra import (AlgebraElement, Membership, harmonic, membership,
                      qg_apply, shuffle, x_to_y, y_to_x)
from .checks import Check, fold
from .dmr import functor_sharp, grouplike_check, phi_from_Z
from .errors import InvalidArgumentError
from .groups import (FiniteAbelianGroup, GroupElement, PowerStructure,
                     divisors_of_order, format_element, power_structure)
from .regularization import (TPolynomial, ZMap, extend_Z_sh, extend_Z_st,
                             sigma_apply)
from .rings import RATIONAL
from .words import X0, format_x_word, x_words_up_to


def _word(group, *letters) -> AlgebraElement:
    return AlgebraElement.from_word(RATIONAL, "x", group, tuple(letters))


@dataclass(frozen=True)
class RelationElement:
    """A tagged relation element of the convergent subalgebra."""

    tag: str
    params: tuple
    value: AlgebraElement

    def __post_init__(self):
        if membership(self.value) is not Membership.H0:
            raise InvalidArgumentError(f"{self.tag}{self.params} left the convergent subalgebra")


def fdt1_element(ps: PowerStructure, h: GroupElement) -> RelationElement:
    """``d * sum_{g^d = h} x0 x_g  -  x0 x_h``."""
    if h not in ps.preimages:
        raise InvalidArgumentError(f"{h} is not a d-th power")
    group = ps.group
    acc = AlgebraElement.zero(RATIONAL, "x", group)
    for g in ps.preimages[h]:
        acc = acc + _word(group, X0, g).scale(ps.d)
    acc = acc - _word(group, X0, h)
    return RelationElement("FDT1", (ps.d, h), acc)


def fdt2_element(ps: PowerStructure, h1: GroupElement,
                 h2: GroupElement) -> RelationElement:
    """``sum_{g1^d=h1, g2^d=h2} x_{g1} x_{g2}  -  x_{h1} x_{h2}``; needs h1 != 1."""
    if h1.is_identity:
        raise InvalidArgumentError("FDT2 requires h1 != 1")
    for h in (h1, h2):
        if h not in ps.preimages:
            raise InvalidArgumentError(f"{h} is not a d-th power")
    group = ps.group
    acc = AlgebraElement.zero(RATIONAL, "x", group)
    for g1 in ps.preimages[h1]:
        for g2 in ps.preimages[h2]:
            acc = acc + _word(group, g1, g2)
    acc = acc - _word(group, h1, h2)
    return RelationElement("FDT2", (ps.d, h1, h2), acc)


def fds_element(g1: GroupElement, g2: GroupElement) -> RelationElement:
    """``x0 x_{g1 g2} + x_{g1} x_{g1 g2} + x_{g2} x_{g1 g2} - x_{g1} x_{g2} - x_{g2} x_{g1}``."""
    if g1.is_identity or g2.is_identity:
        raise InvalidArgumentError("FDS requires g1, g2 != 1")
    group = g1.group
    g12 = g1 * g2
    acc = (_word(group, X0, g12) + _word(group, g1, g12) + _word(group, g2, g12)
           - _word(group, g1, g2) - _word(group, g2, g1))
    return RelationElement("FDS", (g1, g2), acc)


def rds_element(g: GroupElement) -> RelationElement:
    """``x0 x_g + x_g x_g - x_g x_1``."""
    if g.is_identity:
        raise InvalidArgumentError("RDS requires g != 1")
    group = g.group
    acc = _word(group, X0, g) + _word(group, g, g) - _word(group, g, group.identity())
    return RelationElement("RDS", (g,), acc)


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
    branch: str
    lhs: AlgebraElement
    rhs: AlgebraElement
    difference: AlgebraElement
    passed: bool


def fdtd1_identity_check(group: FiniteAbelianGroup, d: int,
                         h: GroupElement) -> FDTd1Report:
    """Exact equality of the depth-two distribution tail against its
    decomposition into double-shuffle and lower-weight pieces.

    Both branches count the nontrivial d-torsion as ``d - 1`` elements, so
    pairs with ``|K_d| != d`` are refused rather than checked vacuously.
    """
    ps = power_structure(group, d)
    if not ps.kernel_order_is_d:
        raise InvalidArgumentError(
            f"|K_{d}| = {len(ps.kernel)} != {d}: the decomposition hypothesis fails")
    if h not in ps.preimages:
        raise InvalidArgumentError(f"{h} is not a d-th power")
    lhs = fdt1_element(ps, h).value
    kernel_nontrivial = [g for g in ps.kernel if not g.is_identity]
    acc = AlgebraElement.zero(RATIONAL, "x", group)
    if h.is_identity:
        branch = "h=1"
        for g1 in kernel_nontrivial:
            for g2 in kernel_nontrivial:
                acc = acc + fds_element(g1, g2).value
        for g in kernel_nontrivial:
            acc = acc + rds_element(g).value.scale(2)
    else:
        branch = "h!=1"
        for g1 in ps.preimages[h]:
            for g2 in kernel_nontrivial:
                acc = acc + fds_element(g1, g2).value
        for g in ps.preimages[h]:
            acc = acc + rds_element(g).value
        acc = acc - rds_element(h).value
        acc = acc + fdt2_element(ps, h, group.identity()).value
        acc = acc - fdt2_element(ps, h, h).value
    difference = lhs - acc
    return FDTd1Report(d, h, branch, lhs, acc, difference, not difference.terms)


def fdtd1_grid(group: FiniteAbelianGroup) -> list[FDTd1Report]:
    """Run the decomposition over every divisor >= 2 and every d-th power."""
    out = []
    for d in divisors_of_order(group):
        if d < 2:
            continue
        ps = power_structure(group, d)
        if not ps.kernel_order_is_d:
            continue
        for h in ps.subgroup:
            out.append(fdtd1_identity_check(group, d, h))
    return out


# -- kernel reformulations ----------------------------------------------------


def kernel_lemma_eval(Z: ZMap, relation: RelationElement) -> Check:
    """Evaluate a relation element against its kernel reformulation.

    The check, named by the relation's tag, compares ``Z(element)`` with the
    reformulated difference (always taken reformulation-left minus
    reformulation-right); the two values agreeing is the content of the
    reformulation.  The distribution cases compare against the
    letter-substitution maps (so the FDT1 case matches exactly when the
    d-torsion has order d); the RDS case needs Z to be multiplicative for the
    shuffle, since it goes through the harmonic-side regularized map.
    """
    ring = Z.ring
    group = Z.group
    if relation.tag in ("FDT1", "FDT2"):
        ps = power_structure(group, relation.params[0])
        # x0 x_h for FDT1, x_{h1} x_{h2} for FDT2
        word = ((X0,) if relation.tag == "FDT1" else ()) + relation.params[1:]
        lower, upper = sharp_sides(ps, AlgebraElement.from_word(ring, "x", group, word))
        rhs_value = Z.eval_element(lower) - Z.eval_element(upper)
        detail = "Z(p_sharp) - Z(i_sharp)"
    elif relation.tag == "FDS":
        g1, g2 = relation.params
        stuffle, shuffled = fds_sides(ring, group, (g1,), (g2,))
        rhs_value = Z.eval_element(stuffle) - Z.eval_element(shuffled)
        detail = "Z(q^-1(u * v)) - Z(u sh v)"
    elif relation.tag == "RDS":
        g = relation.params[0]
        x1 = AlgebraElement.from_word(ring, "y", group, ((1, group.identity()),))
        xg = AlgebraElement.from_word(ring, "y", group, ((1, g),))
        lhs_poly = extend_Z_st(Z, y_to_x(harmonic(x1, xg)))
        rhs_poly = extend_Z_st(Z, y_to_x(x1)).mul(
            extend_Z_st(Z, y_to_x(xg)), operator.mul)
        diff = lhs_poly - rhs_poly
        rhs_value = diff.coeff(0, ring.zero)
        higher = max((ring.abs(c) for l, c in diff.coeffs.items() if l > 0),
                     default=0.0)
        detail = f"Zst(x1 * xg) - Zst(x1) Zst(xg); higher-T residue {higher:.2e}"
    else:
        raise InvalidArgumentError(f"no kernel reformulation for {relation.tag!r}")
    residual = Z.eval_element(relation.value) - rhs_value
    params = ",".join(format_element(p) if isinstance(p, GroupElement) else str(p)
                      for p in relation.params)
    return replace(fold(relation.tag, params, ring, [(relation.tag, residual)], str),
                   detail=detail)


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
    lhs, rhs = distribution_sides(
        Z, ps, AlgebraElement.from_word(Z.ring, "x", ps.group, word))
    for l in range(max(lhs.degree(), rhs.degree()) + 1):
        yield f"T^{l}", lhs.coeff(l, zero) - rhs.coeff(l, zero)


def zhao_hypotheses(Z: ZMap, ps: PowerStructure) -> list[Check]:
    """Spot-check the three hypotheses: multiplicativity of the generating
    series through weight two, and the two finite distribution families."""
    ring = Z.ring
    eds = replace(grouplike_check(phi_from_Z(Z, 2), "shuffle").check,
                  name="zhao-hypothesis-eds", params="spot_degree=2")
    nontrivial = [h for h in ps.subgroup if not h.is_identity]

    def dist_diffs(words):
        for word in words:
            lower, upper = sharp_sides(
                ps, AlgebraElement.from_word(ring, "x", ps.group, word))
            yield word, Z.eval_element(lower) - Z.eval_element(upper)

    weight1 = fold("zhao-hypothesis-weight1", f"d={ps.d}", ring,
                   dist_diffs((h,) for h in nontrivial), format_x_word)
    depth2 = fold("zhao-hypothesis-depth2", f"d={ps.d}", ring,
                  dist_diffs((h, h2) for h in nontrivial for h2 in ps.subgroup),
                  format_x_word)
    return [eds, weight1, depth2]


def zhao_case_table(Z: ZMap, group: FiniteAbelianGroup, d: int) -> list[Check]:
    """The hypothesis spot checks, then every case-table cell (x0, identity
    and each nontrivial d-th power in both slots): the regularized
    distribution relation on ``x_{h1} x_{h2}``, compared coefficient by
    coefficient in T; a cell's params name its word, its detail the worst T
    power."""
    ps = power_structure(group, d)
    choices = [X0] + list(ps.subgroup)
    return zhao_hypotheses(Z, ps) + [
        fold("zhao-cell", f"d={d} cell={format_x_word((h1, h2))}",
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
