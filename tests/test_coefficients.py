"""The coefficient contract of the exact and numeric layers.

Over the rational ring every stored coefficient is a ``Fraction`` (word
products count in ints, which enter the ring through ``ring.coerce``), over
the complex ring a ``complex``; a stored zero is pruned
exactly, by the value's truthiness, never within the ring's tolerance.  An
element is falsy exactly when it stores no term, so a T-polynomial prunes
its word-combination coefficients by the same rule.  The correction
automorphisms rho and sigma and the corrected series ``phi_star`` need
nothing of a value type but its own operators, so they also run on the
tests' strict value, which combines only with its own type.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import _StrictRing, _unwrap
from cyclozeta.algebra import AlgebraElement, harmonic, shuffle
from cyclozeta.dmr import functor_star, phi_star
from cyclozeta.groups import construct_group, power_structure
from cyclozeta.regularization import (TPolynomial, TableZMap, bar_reg_T, rho_apply,
                                      sigma_apply)
from cyclozeta.rings import COMPLEX, RATIONAL
from cyclozeta.series import Alphabet, TruncatedSeries
from cyclozeta.words import X0

G = construct_group([4])
g0, g1, g2, g3 = G.elements()


def x_elem(ring, *terms):
    """``terms`` are ``(coefficient, word)`` pairs, coerced into ``ring``."""
    return AlgebraElement.make(ring, "x", G, {w: ring.coerce(c) for c, w in terms})


def products(ring):
    """Every operation of the contract, on inputs holding unit coefficients
    (so a product of coefficients is one, the case a shortcut would store
    as a bare count)."""
    a = x_elem(ring, (1, (g1, X0)), (3, (g2,)), (1, (X0,)))
    b = x_elem(ring, (1, (g1,)), (-2, (g3, g1)), (1, (g2, X0)))
    ya = AlgebraElement.make(ring, "y", G, {((1, g1),): ring.one,
                                            ((2, g2), (1, g1)): ring.coerce(5)})
    yb = AlgebraElement.make(ring, "y", G, {((1, g1),): ring.one,
                                            ((1, g3),): ring.coerce(-1)})
    divergent = x_elem(ring, (1, (g0, g1, X0)), (2, (g0, g0, g2)), (1, (g1, X0, X0)))
    s = TruncatedSeries.make(ring, Alphabet.x(G), 3,
                             {(): ring.one, (g1,): ring.one, (X0,): ring.coerce(2),
                              (g2, g1): ring.one, (g3,): ring.coerce(-1)})
    ps = power_structure(G, 2)
    yield "shuffle", shuffle(a, b)
    yield "harmonic", harmonic(ya, yb)
    yield "concat", a.concat(b)
    yield "+", a + b
    yield "-", a - b
    yield "map_words", a.map_words(lambda w: w[:1])
    for level, c in bar_reg_T(divergent).coeffs.items():
        yield f"bar_reg_T T^{level}", c
    yield "series *", s * s
    yield "functor_star lower", functor_star(s, ps.power, "lower")
    yield "functor_star upper", functor_star(s, ps.inclusion, "upper")
    Z = correction_zmap(ring)
    p = TPolynomial.make({3: ring.one, 1: ring.one})
    yield "rho", rho_apply(Z, p)
    yield "rho inverse", rho_apply(Z, p, inverse=True)
    yield "sigma", sigma_apply(Z, ps.kernel, p)


def correction_zmap(ring):
    """The values rho and sigma read up to T^3: Z(x0^(n-1) x1) for n <= 3 and
    the weight-one values."""
    return TableZMap(ring, G, {
        (X0, g0): Fraction(3, 2), (X0, X0, g0): Fraction(-2, 5),
        (g1,): 1, (g2,): Fraction(7, 3), (g3,): -1})


@pytest.mark.parametrize("ring, kind", [(RATIONAL, Fraction), (COMPLEX, complex)],
                         ids=["rational", "complex"])
def test_every_coefficient_has_the_ring_type(ring, kind):
    for name, result in products(ring):
        coeffs = result.coeffs if isinstance(result, TPolynomial) else result.terms
        assert coeffs, name
        wrong = {type(c).__name__ for c in coeffs.values() if type(c) is not kind}
        assert not wrong, f"{name} stores coefficients of type {wrong}"


def test_corrections_need_no_reflected_operators():
    ring = _StrictRing()
    with pytest.raises(TypeError):
        2 * ring.one
    Z, exact = correction_zmap(ring), correction_zmap(RATIONAL)
    kernel = power_structure(G, 2).kernel
    p = {3: 1, 2: Fraction(-1, 2), 0: 4}
    formal = TPolynomial.make({l: ring.coerce(c) for l, c in p.items()})
    rational = TPolynomial.make({l: Fraction(c) for l, c in p.items()})
    for got, want in [(rho_apply(Z, formal), rho_apply(exact, rational)),
                      (rho_apply(Z, formal, inverse=True),
                       rho_apply(exact, rational, inverse=True)),
                      (sigma_apply(Z, kernel, formal), sigma_apply(exact, kernel, rational))]:
        assert {l: _unwrap(c) for l, c in got.coeffs.items()} == want.coeffs
        assert len(want.coeffs) == 4
    # phi_corr reads (phi | x0 x1) and (phi | x0 x0 x1) at bound 3
    values = {(): 1, (X0, g0): Fraction(3, 2), (X0, X0, g0): Fraction(-2, 5),
              (g1,): 1, (g2, g1): Fraction(7, 3), (X0, g3): -1}
    got, want = (phi_star(TruncatedSeries.make(r, Alphabet.x(G), 3,
                                               {w: r.coerce(c) for w, c in values.items()}))
                 for r in (ring, RATIONAL))
    assert {w: _unwrap(c) for w, c in got.terms.items()} == want.terms
    assert len(want.terms) == 9


def test_stored_zeros_are_pruned_exactly():
    tiny = AlgebraElement.make(COMPLEX, "x", G,
                               {(g1,): 1e-12, (g2,): 0j, (g3,): -0.0, (X0,): complex(-0.0, 0.0)})
    # kept, though the ring's tolerance calls it zero
    assert tiny.terms == {(g1,): 1e-12} and COMPLEX.is_zero(1e-12)
    exact = AlgebraElement.make(RATIONAL, "x", G, {(g1,): Fraction(0), (g2,): Fraction(1, 3)})
    assert exact.terms == {(g2,): Fraction(1, 3)}
    series = TruncatedSeries.make(COMPLEX, Alphabet.x(G), 2,
                                  {(g1,): 1e-12, (g2,): 0j, (g3,): -0.0})
    assert series.terms == {(g1,): 1e-12}


def test_element_is_false_exactly_when_no_term_is_stored():
    assert not AlgebraElement.zero(RATIONAL, "x", G)
    assert not TruncatedSeries.zero(RATIONAL, Alphabet.x(G), 2)
    assert x_elem(RATIONAL, (Fraction(1, 3), (g1,)))
    assert TruncatedSeries.one(COMPLEX, Alphabet.x(G), 2)
    # truthiness is exact: a tiny complex term is still stored
    assert x_elem(COMPLEX, (1e-12, (g1,)))


def test_tpolynomial_prunes_exact_zeros():
    zero = AlgebraElement.zero(RATIONAL, "x", G)
    a = x_elem(RATIONAL, (2, (g1, X0)))
    assert TPolynomial.make({0: zero, 1: a}).coeffs == {1: a}
    assert TPolynomial.make({0: Fraction(0), 2: Fraction(1, 2)}).coeffs == {2: Fraction(1, 2)}
    assert TPolynomial.make({0: 0j, 1: 1e-12 + 0j}).coeffs == {1: 1e-12 + 0j}
