"""Truncated series, coproduct duality, the corrected series, functors."""

import itertools
import random
import sys
import threading
import weakref
from fractions import Fraction

import pytest

from conftest import combo, elem
from cyclozeta.algebra import (AlgebraElement, HARMONIC_DIAMOND, ZERO_DIAMOND,
                              harmonic, project_piY, qg_apply, quasi_shuffle,
                              shuffle, x_to_y, y_to_x)
from cyclozeta import dmr, duality
from cyclozeta.checks import Check
from cyclozeta.dmr import (GrouplikeReport, _pair_residuals, _pair_table,
                           dmr_check, dmrd_check, eds_dmr_equality_check,
                           functor_sharp, functor_star, grouplike_check,
                           phi_corr, phi_from_Z, phi_star)
from cyclozeta.duality import (broken_functional, duality_suite,
                               functional_is_multiplicative, functional_series,
                               nested_sum_functional)
from cyclozeta.errors import (AlphabetMismatchError, DegreeBoundError,
                              InvalidArgumentError)
from cyclozeta.groups import (GroupHom, construct_group, divisors_of_order,
                              power_structure)
from cyclozeta.rings import COMPLEX, RATIONAL
from cyclozeta.series import (Alphabet, TruncatedSeries, _word_table, series_exp,
                              series_log)
from cyclozeta.words import X0, y_words_up_to
from test_regularization import prime_zmap


def x_series(group, degree, mapping, letters=None):
    return TruncatedSeries.make(RATIONAL, Alphabet.x(group, letters), degree,
                                mapping)


def element_pair_residual(series, diamond, u, v):
    """``(series | u * v) - (series | u)(series | v)`` from element products:
    multiply the two words as elements and pair the product with the
    series."""
    alphabet, ring = series.alphabet, series.ring
    coeff = lambda w: series.terms.get(w, ring.zero)
    prod = quasi_shuffle(
        AlgebraElement.from_word(RATIONAL, alphabet.kind, alphabet.group, u),
        AlgebraElement.from_word(RATIONAL, alphabet.kind, alphabet.group, v),
        diamond)
    lhs = sum(c * coeff(w) for w, c in prod.terms.items())
    return lhs - coeff(u) * coeff(v)


def element_pair_residuals(series, diamond):
    """The pair loop's residuals from element products, over the unordered
    pairs ``(u, v)`` of nonempty words within the bound, ``u`` at or before
    ``v`` in ``words_up_to`` order: both products commute, because the
    group is abelian, so ``(v, u)`` has the same residual (see
    ``test_reversed_pairs_have_equal_residuals``)."""
    alphabet, bound = series.alphabet, series.degree_bound
    words = [w for w in alphabet.words_up_to(bound - 1) if w]
    for i, u in enumerate(words):
        for v in words[i:]:
            if alphabet.word_degree(u) + alphabet.word_degree(v) <= bound:
                yield (u, v), element_pair_residual(series, diamond, u, v)


def random_series(alphabet, degree, rng, density=0.5):
    out = {}
    for w in alphabet.words_up_to(degree):
        if rng.random() < density:
            out[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return TruncatedSeries.make(RATIONAL, alphabet, degree, out)


class TestSeriesArith:
    def test_geometric_cancellation(self, Z3):
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        a = one + x_series(Z3, 2, {(X0,): Fraction(1)})
        b = one - x_series(Z3, 2, {(X0,): Fraction(1)})
        assert (a * b).terms == {(): Fraction(1), (X0, X0): Fraction(-1)}

    def test_unit(self, Z3):
        rng = random.Random(0)
        s = random_series(Alphabet.x(Z3), 2, rng)
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        assert (s * one).terms == s.terms

    def test_square(self, Z3):
        g = Z3.element(1)
        s = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2) + \
            x_series(Z3, 2, {(g,): Fraction(1)})
        sq = s * s
        assert sq.terms == {(): Fraction(1), (g,): Fraction(2),
                            (g, g): Fraction(1)}

    def test_bound_mismatch(self, Z3):
        a = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        b = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 3)
        with pytest.raises(Exception):
            a + b

    def test_coeff_beyond_bound(self, Z3):
        s = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        with pytest.raises(DegreeBoundError):
            s.coeff((X0, X0, X0))


class TestSeriesIsAlgebraElement:
    """A series is the word-algebra container plus a degree bound; the
    algebra's operations hand back series of the same ring and bound."""

    def test_is_an_element(self, Z3):
        s = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        assert isinstance(s, AlgebraElement)
        assert (s.kind, s.group) == ("x", Z3)

    def test_operations_keep_the_series_frame(self, Z3):
        rng = random.Random(3)
        alphabet = Alphabet.x(Z3, (Z3.identity(),))
        s = random_series(alphabet, 3, rng)
        t = random_series(alphabet, 3, rng)
        results = {"add": s + t, "sub": s - t, "scale": s.scale(Fraction(2, 3)),
                   "map_words": s.map_words(lambda w: w[::-1]),
                   "qg_apply": qg_apply(s), "qg_apply_inverse": qg_apply(s, True)}
        for name, r in results.items():
            assert type(r) is TruncatedSeries, name
            assert (r.ring, r.alphabet, r.degree_bound) == (RATIONAL, alphabet, 3), name
        assert (s - s).terms == {}
        assert s.scale(0).terms == {} and type(s.scale(0)) is TruncatedSeries

    def test_words_past_the_bound_are_dropped(self, Z3):
        g = Z3.element(1)
        s = x_series(Z3, 2, {(g,): Fraction(1), (g, g): Fraction(2)})
        longer = s.map_words(lambda w: (X0,) + w)
        assert type(longer) is TruncatedSeries and longer.degree_bound == 2
        assert longer.terms == {(X0, g): Fraction(1)}
        assert s.concat(s).terms == {(g, g): Fraction(1)}

    def test_y_words_past_the_weight_bound_are_dropped(self, Z3):
        """A Y word is bounded by its weight, not its length: ``y[3,g]y[3,g]``
        has two letters and weight 6, past the bound 5."""
        g = Z3.element(1)
        light, heavy = ((1, g),), ((3, g),)
        s = TruncatedSeries.make(RATIONAL, Alphabet.y(Z3), 5,
                                 {light: Fraction(1), heavy: Fraction(2),
                                  heavy + heavy: Fraction(3)})
        assert s.terms == {light: Fraction(1), heavy: Fraction(2)}
        doubled = s.map_words(lambda w: w + w)
        assert type(doubled) is TruncatedSeries and doubled.degree_bound == 5
        assert doubled.terms == {light + light: Fraction(1)}
        assert s.concat(s).terms == {light + light: Fraction(1),
                                     light + heavy: Fraction(2),
                                     heavy + light: Fraction(2)}
        with pytest.raises(DegreeBoundError):
            s.coeff(heavy + heavy)

    @pytest.mark.parametrize("kind", ["x", "y"])
    def test_words_over_other_letters_are_kept(self, Z3, kind):
        """A word within the bound that uses a letter outside the alphabet's
        letters is outside the alphabet's word table, and is kept."""
        alphabet = Alphabet(kind, Z3, (Z3.identity(),))
        g = Z3.element(1)
        letter = (g,) if kind == "x" else ((1, g),)
        s = TruncatedSeries.make(RATIONAL, alphabet, 2,
                                 {letter: Fraction(1), letter * 3: Fraction(2)})
        assert letter not in _word_table(alphabet, 2)[1]
        assert s.terms == {letter: Fraction(1)}
        assert s.coeff(letter) == Fraction(1) and s.coeff(letter * 2) == 0
        assert s.concat(s).terms == {letter * 2: Fraction(1)}
        with pytest.raises(DegreeBoundError):
            s.coeff(letter * 3)

    def test_project_piY_gives_y_series_on_same_letters(self, Z4):
        letters = (Z4.identity(), Z4.element(2))
        two = Z4.element(2)
        s = x_series(Z4, 3, {(): Fraction(1), (X0, two): Fraction(3),
                             (two, X0): Fraction(5), (two, X0, two): Fraction(7)},
                     letters)
        y = project_piY(s)
        assert type(y) is TruncatedSeries and y.degree_bound == 3
        assert y.alphabet == Alphabet.y(Z4, letters)
        assert y.terms == {(): Fraction(1), ((2, two),): Fraction(3),
                           ((1, two), (2, two)): Fraction(7)}

    def test_mismatched_series_still_refuse_to_combine(self, Z3):
        a = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        for other in (TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 3),
                      TruncatedSeries.one(RATIONAL, Alphabet.y(Z3), 2),
                      TruncatedSeries.one(RATIONAL, Alphabet.x(Z3, (Z3.identity(),)), 2),
                      AlgebraElement.one(RATIONAL, "x", Z3)):
            with pytest.raises(AlphabetMismatchError):
                a + other
            with pytest.raises(AlphabetMismatchError):
                other - a


class TestExpLog:
    def test_exp_zero(self, Z3):
        z = TruncatedSeries.zero(RATIONAL, Alphabet.x(Z3), 3)
        assert series_exp(z).terms == {(): Fraction(1)}

    def test_exp_single_letter(self, Z3):
        one_el = Z3.identity()
        c = Fraction(3, 2)
        s = series_exp(x_series(Z3, 3, {(one_el,): c}))
        assert s.terms == {(): Fraction(1), (one_el,): c,
                           (one_el,) * 2: c ** 2 / 2,
                           (one_el,) * 3: c ** 3 / 6}

    def test_log_exp_roundtrip(self, Z3):
        g = Z3.element(1)
        a = x_series(Z3, 4, {(X0,): Fraction(1), (g,): Fraction(1)})
        assert series_log(series_exp(a)).terms == a.terms

    def test_constant_term_guards(self, Z3):
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        with pytest.raises(InvalidArgumentError):
            series_exp(one)
        with pytest.raises(InvalidArgumentError):
            series_log(one - one)


class TestGrouplike:
    def test_unit_series_passes(self, Z3):
        one_x = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 3)
        assert grouplike_check(one_x, "shuffle").passed
        one_y = TruncatedSeries.one(RATIONAL, Alphabet.y(Z3), 3)
        assert grouplike_check(one_y, "harmonic").passed

    def test_exponential_of_letters_is_grouplike(self, Z3):
        g = Z3.element(1)
        arg = x_series(Z3, 4, {(X0,): Fraction(2), (g,): Fraction(-1, 3)})
        report = grouplike_check(series_exp(arg), "shuffle")
        assert report.passed and report.check.residual == 0

    def test_truncated_affine_fails(self, Z3):
        g = Z3.element(1)
        s = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2) + \
            x_series(Z3, 2, {(g,): Fraction(1)})
        report = grouplike_check(s, "shuffle")
        assert not report.passed
        # (phi|x_g sh x_g) - (phi|x_g)^2 = 0 - 1
        assert report.check.residual == 1
        assert report.check.detail == "worst=xg[1]|xg[1]"

    def test_unit_coefficient_required(self, Z3):
        s = x_series(Z3, 2, {(X0,): Fraction(1)})
        assert not grouplike_check(s, "shuffle").passed

    @pytest.mark.parametrize("coefficients, kind, diamond", [
        ("rational", "x", ZERO_DIAMOND),
        ("rational", "y", ZERO_DIAMOND),
        ("rational", "y", HARMONIC_DIAMOND),
        ("complex", "y", HARMONIC_DIAMOND),
        ("primes", "x", ZERO_DIAMOND),
    ], ids=["x-shuffle", "y-shuffle", "y-harmonic", "complex-y-harmonic",
            "prime-denominators-x-shuffle"])
    def test_pair_loop_matches_element_products(self, Z3, coefficients, kind, diamond):
        """The pair loop reads word-level counts from a table shared by every
        series with the same alphabet and bound; the formula it replaces
        multiplies the two words as elements and pairs the product.  Two
        different series run through one table, so state left over from the
        first would show in the second.  The prime case gives every stored
        coefficient its own prime denominator, leaves a third of the words
        at zero and stores the unit as an int, so the common denominator of
        the integer sums has hundreds of digits and some pairs cancel."""
        rng = random.Random(8)
        alphabet = Alphabet(kind, Z3, tuple(Z3.elements()))
        words = list(alphabet.words_up_to(4))
        primes = [p for p in range(2, 5000)
                  if all(p % q for q in range(2, int(p ** 0.5) + 1))]
        _pair_table.cache_clear()
        for _ in range(2):
            if coefficients == "complex":
                terms = {w: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                         for w in words}
                series = TruncatedSeries.make(COMPLEX, alphabet, 4, terms)
            elif coefficients == "primes":
                rng.shuffle(primes)
                terms = {w: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), p)
                         for w, p in zip(words, primes) if rng.random() < 2 / 3}
                terms[()] = 1
                series = TruncatedSeries.make(RATIONAL, alphabet, 4, terms)
            else:
                series = random_series(alphabet, 4, rng)
            got = list(_pair_residuals(series, diamond))
            assert len(got) > 100
            assert got == list(element_pair_residuals(series, diamond))
            if series.ring is RATIONAL:
                assert all(type(r) is Fraction for _, r in got)
            if coefficients == "primes":
                assert any(r == 0 for _, r in got) and any(r != 0 for _, r in got)
        info = _pair_table.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    @pytest.mark.parametrize("coefficients, kind, diamond", [
        ("rational", "x", ZERO_DIAMOND),
        ("rational", "y", ZERO_DIAMOND),
        ("rational", "y", HARMONIC_DIAMOND),
        ("complex", "y", HARMONIC_DIAMOND),
        ("primes", "x", ZERO_DIAMOND),
    ], ids=["x-shuffle", "y-shuffle", "y-harmonic", "complex-y-harmonic",
            "prime-denominators-x-shuffle"])
    def test_reversed_pairs_have_equal_residuals(self, Z3, coefficients, kind,
                                                 diamond):
        """The pair loop visits ``(u, v)`` and not ``(v, u)``: for every
        ordered pair the element-product residual of ``(v, u)`` equals that
        of ``(u, v)``, exactly over the rationals and within rounding over
        the complex numbers, because both products commute."""
        rng = random.Random(8)
        alphabet = Alphabet(kind, Z3, tuple(Z3.elements()))
        words = list(alphabet.words_up_to(4))
        if coefficients == "complex":
            terms = {w: complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                     for w in words}
            series = TruncatedSeries.make(COMPLEX, alphabet, 4, terms)
        elif coefficients == "primes":
            primes = [p for p in range(2, 5000)
                      if all(p % q for q in range(2, int(p ** 0.5) + 1))]
            terms = {w: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), p)
                     for w, p in zip(words, primes)}
            series = TruncatedSeries.make(RATIONAL, alphabet, 4, terms)
        else:
            series = random_series(alphabet, 4, rng)
        nonempty = [w for w in alphabet.words_up_to(3) if w]
        ordered = [(u, v) for u, v in itertools.product(nonempty, repeat=2)
                   if alphabet.word_degree(u) + alphabet.word_degree(v) <= 4]
        assert len(ordered) > 100
        for u, v in ordered:
            forward = element_pair_residual(series, diamond, u, v)
            backward = element_pair_residual(series, diamond, v, u)
            if series.ring is RATIONAL:
                assert backward == forward
            else:
                assert abs(backward - forward) <= 1e-12

    def test_pair_table_is_bounded_and_keyed(self, Z3):
        """One table is cached; another bound or product builds its own,
        which replaces the cached one."""
        assert _pair_table.cache_info().maxsize == 1
        rng = random.Random(9)
        alphabet = Alphabet.y(Z3)
        terms = random_series(alphabet, 4, rng).terms
        _pair_table.cache_clear()
        for bound, diamond in ((4, HARMONIC_DIAMOND), (3, HARMONIC_DIAMOND),
                               (3, ZERO_DIAMOND), (4, HARMONIC_DIAMOND)):
            series = TruncatedSeries.make(RATIONAL, alphabet, bound, terms)
            got = list(_pair_residuals(series, diamond))
            assert got == list(element_pair_residuals(series, diamond))
            assert _pair_table.cache_info().currsize == 1
        assert _pair_table.cache_info().misses == 4

    def test_threads_share_the_table_and_its_counts(self, Z3):
        """Threads that alternate two keys each read the table of their
        own key, and every call is counted once, as a hit or a miss."""
        rng = random.Random(10)
        alphabet = Alphabet.y(Z3)
        cases = []
        for bound, diamond in ((3, HARMONIC_DIAMOND), (3, ZERO_DIAMOND)):
            series = random_series(alphabet, bound, rng)
            expected = list(element_pair_residuals(series, diamond))
            cases.append((series, diamond, expected))
        _pair_table.cache_clear()
        wrong = []

        def alternate(first):
            for k in range(20):
                series, diamond, expected = cases[(first + k) % 2]
                if list(_pair_residuals(series, diamond)) != expected:
                    wrong.append(k)

        threads = [threading.Thread(target=alternate, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        info = _pair_table.cache_info()
        assert info.hits + info.misses == 80 and info.currsize == 1

    def test_dmr_check_drops_the_shuffle_table_first(self, Z3, monkeypatch):
        """Nothing reads the shuffle table after the shuffle check, so
        ``dmr_check`` frees it before it builds the corrected series, and
        no harmonic table is built while the shuffle table lives."""
        phi = phi_from_Z(prime_zmap(Z3, 4), 4)
        grouplike_check(phi, "shuffle")
        table = weakref.ref(_pair_table(phi.alphabet, 4, ZERO_DIAMOND)[4])
        freed = []

        def spy(series, real=dmr.phi_star):
            freed.append(table() is None)
            return real(series)

        monkeypatch.setattr(dmr, "phi_star", spy)
        dmr_check(phi)
        assert freed == [True]


class TestQgHat:
    def test_unit(self, Z3):
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 3)
        assert qg_apply(one).terms == one.terms

    def test_single_word_reindex(self, Z3):
        g1, g2 = Z3.element(1), Z3.element(2)
        c = Fraction(5)
        s = x_series(Z3, 2, {(g1, g2): c})
        # untwist of x1 x1 is x1 x2, so the twisted series puts c there
        assert qg_apply(s).coeff((g1, g1)) == c

    def test_roundtrip(self, Z3):
        rng = random.Random(1)
        s = random_series(Alphabet.x(Z3), 4, rng)
        assert qg_apply(qg_apply(s), inverse=True).terms == s.terms


class TestPhiFromZ:
    def test_convergent_words_take_their_values(self, Z2):
        Z = prime_zmap(Z2, 3)
        phi = phi_from_Z(Z, 3)
        w = (X0, Z2.element(1))
        assert phi.coeff(w) == Z.eval_word(w)

    def test_divergent_letters_vanish(self, Z2):
        Z = prime_zmap(Z2, 3)
        phi = phi_from_Z(Z, 3)
        assert phi.coeff((X0,)) == 0
        assert phi.coeff((Z2.identity(),)) == 0

    def test_trailing_x0_coefficient(self, Z2):
        Z = prime_zmap(Z2, 3)
        phi = phi_from_Z(Z, 3)
        s = Z2.element(1)
        assert phi.coeff((s, X0)) == -Z.eval_word((X0, s))

    def test_unit_coefficient(self, Z2):
        Z = prime_zmap(Z2, 2)
        assert phi_from_Z(Z, 2).coeff(()) == 1


class TestPhiStar:
    def test_unit_series(self, Z2):
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z2), 3)
        assert phi_star(one).terms == {(): Fraction(1)}

    def test_corr_expansion(self, Z2):
        Z = prime_zmap(Z2, 2)
        phi = phi_from_Z(Z, 2)
        corr = phi_corr(phi)
        one_y = (1, Z2.identity())
        z2_coeff = phi.coeff((X0, Z2.identity()))
        assert corr.coeff((one_y, one_y)) == -z2_coeff / 2
        assert corr.coeff(()) == 1

    def test_weight_two_survivor(self, Z2):
        # the coefficient of y_{2,1} passes through untouched
        Z = prime_zmap(Z2, 2)
        phi = phi_from_Z(Z, 2)
        star = phi_star(phi)
        assert star.coeff(((2, Z2.identity()),)) == Z.eval_word((X0, Z2.identity()))


class TestDMR:
    def test_unit_passes(self, Z2):
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z2), 3)
        assert all(c.passed for c in dmr_check(one))

    def test_exp_x1_fails_vanishing(self, Z2):
        one_el = Z2.identity()
        phi = series_exp(x_series(Z2, 3, {(one_el,): Fraction(1)}))
        *_, vanish = dmr_check(phi)
        assert not vanish.passed and vanish.detail == "worst=xg[0]"


class TestEdsDmrEquality:
    def test_exact_for_any_linear_map(self, Z2):
        # the coefficientwise identity behind the scheme comparison is a
        # formal consequence of linearity, so it must hold exactly here
        Z = prime_zmap(Z2, 4)
        report = eds_dmr_equality_check(Z, 4)
        assert report.passed and report.residual == 0

    def test_exact_over_z3(self, Z3):
        Z = prime_zmap(Z3, 3)
        report = eds_dmr_equality_check(Z, 3)
        assert report.passed


class TestFunctors:
    def test_lower_star_tables(self, Z4):
        ps = power_structure(Z4, 2)
        pd = ps.power
        g = Z4.element(1)
        s = x_series(Z4, 2, {(g,): Fraction(1), (X0,): Fraction(1)})
        image = functor_star(s, pd, "lower")
        assert image.coeff((Z4.element(2),)) == 1
        assert image.coeff((X0,)) == 2  # kernel size

    def test_upper_star_tables(self, Z4):
        ps = power_structure(Z4, 2)
        i2 = ps.inclusion
        g = Z4.element(1)  # not a square
        s = x_series(Z4, 2, {(g,): Fraction(1), (Z4.element(2),): Fraction(3)})
        image = functor_star(s, i2, "upper")
        assert image.coeff((Z4.element(2),)) == 3
        assert (g,) not in image.terms

    def test_sharp_tables(self, Z4):
        ps = power_structure(Z4, 2)
        pd, i2 = ps.power, ps.inclusion
        h = Z4.element(2)
        base = elem(Z4, h)
        lower = functor_sharp(base, pd, "lower")
        assert lower == combo(Z4, (1, (Z4.element(1),)), (1, (Z4.element(3),)))
        assert functor_sharp(elem(Z4, h), i2, "upper") == elem(Z4, h)
        two_letter = functor_sharp(elem(Z4, X0, h), pd, "lower")
        expected = combo(Z4, (2, (X0, Z4.element(1))), (2, (X0, Z4.element(3))))
        assert two_letter == expected

    def test_identity_hom_is_identity(self, Z4):
        from cyclozeta.groups import hom_identity
        rng = random.Random(2)
        s = random_series(Alphabet.x(Z4), 3, rng)
        ident = hom_identity(Z4)
        assert functor_star(s, ident, "upper").terms == s.terms
        assert functor_star(s, ident, "lower").terms == s.terms


def _pair_series_element(series, element):
    total = Fraction(0)
    for w, c in element.terms.items():
        total += c * series.coeff(w)
    return total


class TestAppendixLemmas:
    """The functor lemmas, checked through the dual pairing."""

    def setup_method(self):
        self.G = construct_group([4])
        self.ps = power_structure(self.G, 2)
        self.pd = self.ps.power
        self.i2 = self.ps.inclusion
        self.rng = random.Random(42)
        self.sub_alphabet = Alphabet.x(self.G, self.ps.subgroup)
        self.full_alphabet = Alphabet.x(self.G)

    def test_astsharp_duality(self):
        # upper star against upper sharp, for the inclusion and the power map
        for hom, s_alphabet in ((self.i2, self.full_alphabet),
                                (self.pd, self.sub_alphabet)):
            series = random_series(s_alphabet, 4, self.rng)
            dom_letters = hom.domain
            for w in Alphabet.x(self.G, dom_letters).words_up_to(4):
                lhs = functor_star(series, hom, "upper").coeff(w)
                rhs = _pair_series_element(
                    series, functor_sharp(elem(self.G, *w), hom, "upper"))
                assert lhs == rhs

    def test_lower_astsharp_duality(self):
        for hom, s_alphabet, cod_letters in (
                (self.pd, self.full_alphabet, self.ps.subgroup),
                (self.i2, self.sub_alphabet, tuple(self.G.elements()))):
            series = random_series(s_alphabet, 3, self.rng)
            for w in Alphabet.x(self.G, cod_letters).words_up_to(3):
                lhs = functor_star(series, hom, "lower").coeff(w)
                rhs = _pair_series_element(
                    series, functor_sharp(elem(self.G, *w), hom, "lower"))
                assert lhs == rhs

    def test_star_hopf_dual_form(self):
        # (phi^*(S) | u sh v) = (S | phi#(u) sh phi#(v)) through degree 4
        series = random_series(self.full_alphabet, 4, self.rng, density=0.4)
        image = functor_star(series, self.i2, "upper")
        words = [w for w in self.sub_alphabet.words_up_to(2)]
        for u in words:
            for v in words:
                if len(u) + len(v) > 4 or not u or not v:
                    continue
                lhs = _pair_series_element(image, shuffle(elem(self.G, *u),
                                                          elem(self.G, *v)))
                sharp_u = functor_sharp(elem(self.G, *u), self.i2, "upper")
                sharp_v = functor_sharp(elem(self.G, *v), self.i2, "upper")
                rhs = _pair_series_element(series, shuffle(sharp_u, sharp_v))
                assert lhs == rhs

    def test_star_hopf_dual_form_covariant(self):
        # (phi_*(S) | u sh v) = (S | phi_#(u) sh phi_#(v)) through degree 4
        series = random_series(self.full_alphabet, 4, self.rng, density=0.4)
        image = functor_star(series, self.pd, "lower")
        words = [w for w in self.sub_alphabet.words_up_to(2)]
        for u in words:
            for v in words:
                if len(u) + len(v) > 4 or not u or not v:
                    continue
                lhs = _pair_series_element(image, shuffle(elem(self.G, *u),
                                                          elem(self.G, *v)))
                sharp_u = functor_sharp(elem(self.G, *u), self.pd, "lower")
                sharp_v = functor_sharp(elem(self.G, *v), self.pd, "lower")
                rhs = _pair_series_element(series, shuffle(sharp_u, sharp_v))
                assert lhs == rhs

    def test_ast_comm_projection(self):
        series = random_series(self.full_alphabet, 4, self.rng, density=0.4)
        lhs = project_piY(functor_star(series, self.i2, "upper"))
        # act on the Y part through its X embedding
        y_part = project_piY(series)
        embedded = TruncatedSeries.make(
            RATIONAL, self.full_alphabet, 4,
            {tuple(sum(((X0,) * (n - 1) + (g,) for n, g in w), ())): c
             for w, c in y_part.terms.items()})
        rhs = project_piY(functor_star(embedded, self.i2, "upper"))
        assert lhs.terms == rhs.terms

    def test_ast_comm_twist(self):
        for hom, s_alphabet in ((self.i2, self.full_alphabet),
                                (self.pd, self.sub_alphabet)):
            series = random_series(s_alphabet, 4, self.rng, density=0.4)
            for kind in ("upper",) if hom is self.i2 else ("upper",):
                lhs = qg_apply(functor_star(series, hom, kind))
                rhs = functor_star(qg_apply(series), hom, kind)
                assert lhs.terms == rhs.terms
        # and the covariant side
        series = random_series(self.full_alphabet, 4, self.rng, density=0.4)
        lhs = qg_apply(functor_star(series, self.pd, "lower"))
        rhs = functor_star(qg_apply(series), self.pd, "lower")
        assert lhs.terms == rhs.terms

    def test_sharp_algebra_morphisms(self):
        # shuffle morphism property for both sharps, random pairs length <= 4
        letters_dom = list(self.G.elements())
        letters_cod = list(self.ps.subgroup)
        for _ in range(25):
            w1 = tuple(self.rng.choice([X0] + letters_dom)
                       for _ in range(self.rng.randint(0, 2)))
            w2 = tuple(self.rng.choice([X0] + letters_dom)
                       for _ in range(self.rng.randint(0, 2)))
            a, b = elem(self.G, *w1), elem(self.G, *w2)
            assert functor_sharp(shuffle(a, b), self.pd, "upper") == \
                shuffle(functor_sharp(a, self.pd, "upper"),
                        functor_sharp(b, self.pd, "upper"))
            v1 = tuple(self.rng.choice([X0] + letters_cod)
                       for _ in range(self.rng.randint(0, 2)))
            v2 = tuple(self.rng.choice([X0] + letters_cod)
                       for _ in range(self.rng.randint(0, 2)))
            c, d = elem(self.G, *v1), elem(self.G, *v2)
            assert functor_sharp(shuffle(c, d), self.pd, "lower") == \
                shuffle(functor_sharp(c, self.pd, "lower"),
                        functor_sharp(d, self.pd, "lower"))

    def test_sharp_harmonic_morphisms(self):
        # restriction to words ending in group letters respects the harmonic product
        letters = list(self.G.elements())
        for _ in range(15):
            w1 = tuple(self.rng.choice(letters)
                       for _ in range(self.rng.randint(1, 2)))
            w2 = tuple(self.rng.choice(letters)
                       for _ in range(self.rng.randint(1, 2)))
            a, b = elem(self.G, *w1), elem(self.G, *w2)
            st = y_to_x(harmonic(x_to_y(a), x_to_y(b)))
            lhs = functor_sharp(st, self.pd, "upper")
            rhs = y_to_x(harmonic(x_to_y(functor_sharp(a, self.pd, "upper")),
                                  x_to_y(functor_sharp(b, self.pd, "upper"))))
            assert lhs == rhs

    def test_sharp_comm_with_twist(self):
        from cyclozeta.algebra import qg_apply
        letters = [X0] + list(self.G.elements())
        for _ in range(40):
            w = tuple(self.rng.choice(letters)
                      for _ in range(self.rng.randint(0, 5)))
            a = elem(self.G, *w)
            assert qg_apply(functor_sharp(a, self.pd, "upper")) == \
                functor_sharp(qg_apply(a), self.pd, "upper")
        sub_letters = [X0] + list(self.ps.subgroup)
        for _ in range(40):
            w = tuple(self.rng.choice(sub_letters)
                      for _ in range(self.rng.randint(0, 5)))
            a = elem(self.G, *w)
            assert qg_apply(functor_sharp(a, self.pd, "lower")) == \
                functor_sharp(qg_apply(a), self.pd, "lower")

    def test_functoriality_on_z12_lattice(self, Z12):
        ps2 = power_structure(Z12, 2)
        psi = ps2.power  # Z12 -> subgroup of order 6
        sub6 = ps2.subgroup
        cube_image = tuple(sorted({g ** 3 for g in sub6}, key=lambda e: e.exponents))
        phi = GroupHom(sub6, cube_image, tuple((g, g ** 3) for g in sub6))
        composed = phi.compose(psi)
        rng = random.Random(9)
        # contravariant: (phi o psi)^* = psi^* o phi^*
        s = random_series(Alphabet.x(Z12, cube_image), 3, rng)
        lhs = functor_star(s, composed, "upper")
        rhs = functor_star(functor_star(s, phi, "upper"), psi, "upper")
        assert lhs.terms == rhs.terms
        # covariant: (phi o psi)_* = phi_* o psi_*
        s2 = random_series(Alphabet.x(Z12), 3, rng)
        lhs2 = functor_star(s2, composed, "lower")
        rhs2 = functor_star(functor_star(s2, psi, "lower"), phi, "lower")
        assert lhs2.terms == rhs2.terms


class TestDMRD:
    def test_unit_passes_all_divisors(self, Z6):
        one = TruncatedSeries.one(RATIONAL, Alphabet.x(Z6), 2)
        assert all(dmrd_check(one, power_structure(Z6, d)).passed
                   for d in divisors_of_order(Z6))

    def test_divisor_one_degeneracy(self, Z4):
        # with (phi|x1) = 0 the d = 1 condition is the identity map equality
        rng = random.Random(4)
        s = random_series(Alphabet.x(Z4), 3, rng)
        s = s - x_series(Z4, 3, {(Z4.identity(),): s.coeff((Z4.identity(),))})
        s = s - x_series(Z4, 3, {(): s.coeff(())}) + \
            TruncatedSeries.one(RATIONAL, Alphabet.x(Z4), 3)
        report = dmrd_check(s, power_structure(Z4, 1))
        assert report.passed


class TestDualitySuite:
    def test_small_population(self, Z3):
        check = duality_suite(Z3, weight_bound=3, n_maps=20, seed=5)
        assert check.passed and check.residual == 0
        assert (check.name, check.params) == ("duality", "maps=20 weight<=3")
        assert check.detail == "multiplicative_iff_grouplike on 20 maps"

    def test_direct_test_and_grouplike_check_agree_with_construction(self, Z3):
        rng = random.Random(5)
        for i in range(20):
            table = nested_sum_functional(Z3, 3, rng)
            if i % 2:
                table = broken_functional(table, rng)
            direct = functional_is_multiplicative(Z3, table, 3)
            assert direct == (i % 2 == 0)
            report = grouplike_check(functional_series(Z3, table, 3), "harmonic")
            assert report.passed == direct

    def test_pairs_checked(self, Z3):
        one = TruncatedSeries.one(RATIONAL, Alphabet.y(Z3), 4)
        # Z3 has 3, 12 and 48 Y words of weight 1, 2 and 3.  The unordered
        # pairs of total weight <= 4 are 3*4/2 + 3*12 + 3*48 + 12*13/2 =
        # 6 + 36 + 144 + 78 = 264, that is (513 ordered pairs + 15 with
        # u = v) / 2.
        assert grouplike_check(one, "harmonic").pairs_checked == 264

    def test_maps_share_one_word_table(self, Z3, monkeypatch):
        """Ten maps at Z3, weight 4, build their words and degrees once: no
        word degree is computed outside the one word table build, though
        every map builds two series and runs the harmonic check."""
        computed = []
        real = Alphabet.word_degree

        def counting(alphabet, word):
            computed.append(word)
            return real(alphabet, word)

        monkeypatch.setattr(Alphabet, "word_degree", counting)
        _word_table.cache_clear()
        _pair_table.cache_clear()
        rng = random.Random(2024)
        for i in range(10):
            table = nested_sum_functional(Z3, 4, rng)
            if i % 2:
                table = broken_functional(table, rng)
            multiplicative = functional_is_multiplicative(Z3, table, 4)
            report = grouplike_check(functional_series(Z3, table, 4), "harmonic")
            assert report.passed == multiplicative == (i % 2 == 0)
        assert _word_table.cache_info().misses == 1
        # the build takes each word's degree once
        assert computed == list(Alphabet.y(Z3).words_up_to(4))

    @pytest.mark.parametrize("seed, worst", [
        (1, "worst=y[1,g1]|y[1,g2]"),
        (2, "worst=y[1,g0]|y[1,g1]y[1,g2]"),
    ])
    def test_failure_off_the_diagonal_is_found(self, Z3, seed, worst):
        """A map that fails only on pairs of two different words: the loop
        visits each unordered pair once, shorter word first, and skipping
        ``(v, u)`` hides no failure.  Perturbing the value at
        ``y[1,g1]y[1,g2]`` moves the pair ``y[1,g1]|y[1,g2]``, whose
        product holds that word, and every pair with that word as a factor,
        by the value of its partner (zero at seed 1); within weight 3 no
        diagonal pair reads it."""
        table = nested_sum_functional(Z3, 3, random.Random(seed))
        assert functional_is_multiplicative(Z3, table, 3)
        word = ((1, Z3.element(1)), (1, Z3.element(2)))
        table[word] += 1
        series = functional_series(Z3, table, 3)
        failing = [pair for pair, r in _pair_residuals(series, HARMONIC_DIAMOND) if r]
        assert failing and all(u != v for u, v in failing)
        report = grouplike_check(series, "harmonic")
        assert not report.passed and report.check.detail == worst
        assert not functional_is_multiplicative(Z3, table, 3)

    def test_verdict_is_compared_with_construction(self, Z3, monkeypatch):
        # a grouplike check that passes every map contradicts the broken ones
        passing = GrouplikeReport(Check("stub", "", True, 0.0), 0)
        monkeypatch.setattr(duality, "grouplike_check", lambda *args: passing)
        check = duality_suite(Z3, 3, 8, 5)
        assert not check.passed and check.residual == 4
        assert check.detail.endswith("first contradicting map 1")

    def test_missing_unit_reported_not_raised(self, Z2):
        s = x_series(Z2, 2, {(X0,): Fraction(1)})
        _, harmonic_row, _ = dmr_check(s)
        assert not harmonic_row.passed and harmonic_row.detail == "worst=1|1"


def oracle_nested_sum_table(group, weight_bound, rng):
    """The table of a nested-sum specimen from its definition, drawing what
    :func:`nested_sum_functional` draws from ``rng``: every index tuple in
    ``{1..slots}^r`` is enumerated and the strictly decreasing ones kept."""
    slots = rng.randint(1, duality.MAX_SLOTS)
    xs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(slots)]
    lam = Fraction(rng.randint(1, 4), rng.randint(1, 4))

    def nested(ks):
        total = Fraction(0)
        for ns in itertools.product(range(1, slots + 1), repeat=len(ks)):
            if all(a > b for a, b in zip(ns, ns[1:])):
                term = Fraction(1)
                for n, k in zip(ns, ks):
                    term *= xs[n - 1] ** k
                total += term
        return lam ** sum(ks) * total

    sums, table = {}, {}
    for w in y_words_up_to(group.elements(), weight_bound):
        ks = tuple(k for k, _ in w)
        if ks not in sums:
            sums[ks] = nested(ks)
        table[w] = sums[ks]
    return table


class TestNestedSumSpecimen:
    @pytest.mark.parametrize("orders, weight_bound", [
        ([2], 5), ([3], 5), ([4], 3), ([2, 2], 4)], ids=["Z2", "Z3", "Z4", "2x2"])
    def test_table_matches_definition(self, orders, weight_bound):
        group = construct_group(orders)
        words = list(y_words_up_to(group.elements(), weight_bound))
        assert words[0] == ()
        for seed in (0, 7, 2024):
            rng = random.Random(seed)
            for _ in range(4):
                replay = random.Random()
                replay.setstate(rng.getstate())
                table = nested_sum_functional(group, weight_bound, rng)
                expected = oracle_nested_sum_table(group, weight_bound, replay)
                assert list(table) == words
                assert table == expected
                assert all(type(v) is Fraction for v in table.values())
                # the same draws, and no others
                assert rng.getstate() == replay.getstate()

    def test_benchmark_maps_match_definition(self, Z3):
        """The 50 maps perfbench's exact-series workload draws at Z3,
        weight 4, from the per-map seeds ``2024 * 1_000_003 + i``."""
        words = list(y_words_up_to(Z3.elements(), 4))
        for i in range(50):
            rng = random.Random(2024 * 1_000_003 + i)
            replay = random.Random(2024 * 1_000_003 + i)
            table = nested_sum_functional(Z3, 4, rng)
            expected = oracle_nested_sum_table(Z3, 4, replay)
            assert list(table) == words
            assert table == expected
            assert all(type(v) is Fraction for v in table.values())
            assert rng.getstate() == replay.getstate()


class TestNumericLevelFour:
    def test_dmr_and_distribution_at_composite_level(self):
        # the label twist is genuinely noncommutative bookkeeping here, so
        # this exercises the direction conventions end to end
        from cyclozeta.numeval import NumericZMap
        Z = NumericZMap(4)
        phi = phi_from_Z(Z, 3)
        assert all(c.passed for c in dmr_check(phi))
        assert all(dmrd_check(phi, power_structure(Z.group, d)).passed
                   for d in divisors_of_order(Z.group))


class TestExpLogReverse:
    def test_exp_of_log_roundtrip(self, Z3):
        rng = random.Random(8)
        s = random_series(Alphabet.x(Z3), 4, rng)
        s = s - x_series(Z3, 4, {(): s.coeff(())}) + \
            TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 4)
        assert series_exp(series_log(s)).terms == s.terms
