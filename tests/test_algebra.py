"""Free algebra: products, label twist, conversions, membership, pairing."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import combo, elem, oracle_quasi_shuffle_words, oracle_shuffle
from cyclozeta.algebra import (AlgebraElement, HARMONIC_DIAMOND, Membership,
                               ZERO_DIAMOND, format_element_combo, harmonic,
                               membership, parse_element_combo,
                               project_piY, qg_apply, quasi_shuffle, shuffle,
                               shuffle_words, x_to_y, y_to_x)
from cyclozeta.errors import AlphabetMismatchError, NotInH1Error
from cyclozeta.rings import COMPLEX, RATIONAL, ComplexRing
from cyclozeta.words import X0, x_word_in_h0, x_word_in_h1, x_words_up_to, y_words_up_to


class TestArith:
    def test_add_cancellation(self, Z3):
        g = Z3.element(1)
        a = elem(Z3, X0, g)
        assert (a + a.scale(-1)).terms == {}

    def test_concat(self, Z3):
        g = Z3.element(1)
        assert elem(Z3, X0).concat(elem(Z3, g)) == elem(Z3, X0, g)

    def test_scale_combines(self, Z3):
        g = Z3.element(1)
        total = elem(Z3, g).scale(2) + elem(Z3, g).scale(3)
        assert total.coeff((g,)) == 5

    def test_alphabet_mismatch(self, Z3, Z4):
        with pytest.raises(AlphabetMismatchError):
            elem(Z3, X0) + elem(Z4, X0)
        with pytest.raises(AlphabetMismatchError):
            elem(Z3, X0) + elem(Z3, (1, Z3.element(0)), kind="y")

    def test_zero_product_short_circuits(self, Z3):
        zero = AlgebraElement.zero(RATIONAL, "x", Z3)
        assert shuffle(zero, elem(Z3, X0)).terms == {}
        assert quasi_shuffle(zero, elem(Z3, X0), ZERO_DIAMOND).terms == {}


class TestShuffle:
    def test_two_letters(self, Z3):
        a, b = Z3.element(1), Z3.element(2)
        result = shuffle(elem(Z3, a), elem(Z3, b))
        assert result == combo(Z3, (1, (a, b)), (1, (b, a)))

    def test_unit(self, Z3):
        w = elem(Z3, X0, Z3.element(1))
        one = AlgebraElement.one(RATIONAL, "x", Z3)
        assert shuffle(one, w) == w and shuffle(w, one) == w

    def test_x0_with_x0xg(self, Z3):
        g = Z3.element(1)
        result = shuffle(elem(Z3, X0), elem(Z3, X0, g))
        assert result == combo(Z3, (2, (X0, X0, g)), (1, (X0, g, X0)))

    def test_cached_words_are_read_only(self, Z3):
        g = Z3.element(1)
        counts = shuffle_words((X0,), (X0, g))
        with pytest.raises(TypeError):
            counts[(X0, X0, g)] = 0
        assert shuffle_words((X0,), (X0, g)) == {(X0, X0, g): 2, (X0, g, X0): 1}

    def test_against_position_oracle(self, Z4):
        letters = [X0, Z4.element(1), Z4.element(2)]
        words = [w for w in x_words_up_to(letters[1:], 3)]
        for w1, w2 in itertools.product(words[:20], repeat=2):
            a, b = elem(Z4, *w1), elem(Z4, *w2)
            assert shuffle(a, b) == oracle_shuffle(a, b)


class TestQuasiShuffle:
    def test_harmonic_single_letters(self, Z3):
        z1, z2 = Z3.element(1), Z3.element(2)
        u = elem(Z3, (1, z1), kind="y")
        v = elem(Z3, (1, z2), kind="y")
        expected = combo(Z3,
                         (1, ((1, z1), (1, z2))),
                         (1, ((1, z2), (1, z1))),
                         (1, ((2, z1 * z2),)), kind="y")
        assert harmonic(u, v) == expected

    def test_zero_diamond_is_shuffle(self, Z4):
        letters = [(1, Z4.element(0)), (1, Z4.element(1)), (2, Z4.element(3))]
        for w1 in itertools.product(letters, repeat=2):
            for w2 in itertools.product(letters, repeat=1):
                a = elem(Z4, *w1, kind="y")
                b = elem(Z4, *w2, kind="y")
                assert quasi_shuffle(a, b, ZERO_DIAMOND) == shuffle(a, b)

    def test_weight_merge(self, Z6):
        g, h = Z6.element(1), Z6.element(2)
        result = harmonic(elem(Z6, (1, g), kind="y"), elem(Z6, (2, h), kind="y"))
        expected = combo(Z6,
                         (1, ((1, g), (2, h))),
                         (1, ((2, h), (1, g))),
                         (1, ((3, g * h),)), kind="y")
        assert result == expected

    def test_against_recursion_oracle(self, Z3):
        letters = [(1, Z3.element(0)), (1, Z3.element(1)), (2, Z3.element(2))]
        diamond_fn = lambda a, b: HARMONIC_DIAMOND.mul(a, b)
        for r1 in range(1, 3):
            for r2 in range(1, 3):
                for w1 in itertools.product(letters, repeat=r1):
                    for w2 in itertools.product(letters, repeat=r2):
                        got = quasi_shuffle(elem(Z3, *w1, kind="y"),
                                            elem(Z3, *w2, kind="y"),
                                            HARMONIC_DIAMOND)
                        want = oracle_quasi_shuffle_words(w1, w2, diamond_fn)
                        assert got.terms == {w: Fraction(c) for w, c in want.items()}


def _words_over(letters, max_len):
    out = []
    for n in range(1, max_len + 1):
        out.extend(itertools.product(letters, repeat=n))
    return out


class TestProductLaws:
    """Exhaustive commutativity/associativity on a three-letter alphabet."""

    @staticmethod
    def _check_laws(words, make, product, total_len):
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) > total_len:
                    continue
                assert product(make(w1), make(w2)) == product(make(w2), make(w1))
        for w1 in words:
            for w2 in words:
                if len(w1) + len(w2) >= total_len:
                    continue
                left = product(make(w1), make(w2))
                for w3 in words:
                    if len(w1) + len(w2) + len(w3) > total_len:
                        continue
                    c = make(w3)
                    assert product(left, c) == product(make(w1), product(make(w2), c))

    def test_shuffle_laws_exhaustive(self, Z2):
        letters = [X0, Z2.element(0), Z2.element(1)]
        self._check_laws(_words_over(letters, 5), lambda w: elem(Z2, *w),
                         shuffle, 6)

    def test_quasi_shuffle_laws_exhaustive(self, Z2):
        e, s = Z2.element(0), Z2.element(1)
        letters = [(1, e), (1, s), (2, s)]
        self._check_laws(_words_over(letters, 5),
                         lambda w: elem(Z2, *w, kind="y"), harmonic, 6)

    def test_diamond_laws_small_alphabet(self, Z4):
        # commutativity and associativity of the harmonic letter merge itself
        letters = [(n, g) for n in (1, 2) for g in Z4.elements()]
        for a in letters:
            for b in letters:
                assert HARMONIC_DIAMOND.mul(a, b) == HARMONIC_DIAMOND.mul(b, a)
                for c in letters:
                    left = [(l2, c1 * c2)
                            for l1, c1 in HARMONIC_DIAMOND.mul(a, b)
                            for l2, c2 in HARMONIC_DIAMOND.mul(l1, c)]
                    right = [(l2, c1 * c2)
                             for l1, c1 in HARMONIC_DIAMOND.mul(b, c)
                             for l2, c2 in HARMONIC_DIAMOND.mul(a, l1)]
                    assert left == right


class TestQg:
    def test_forward_example(self, Z3):
        g1, g2 = Z3.element(1), Z3.element(2)
        result = qg_apply(elem(Z3, g1, g2))
        assert result == elem(Z3, g1, g1)  # 2 - 1 = 1

    def test_inverse_example(self, Z3):
        g1 = Z3.element(1)
        result = qg_apply(elem(Z3, g1, g1), inverse=True)
        assert result == elem(Z3, g1, Z3.element(2))

    def test_x0_runs_untouched(self, Z3):
        w = elem(Z3, X0, X0, X0)
        assert qg_apply(w) == w and qg_apply(w, inverse=True) == w

    def test_roundtrip_length6_z4(self, Z4):
        letters = list(Z4.elements())
        count = 0
        for w in x_words_up_to(letters, 6):
            a = elem(Z4, *w)
            assert qg_apply(qg_apply(a), inverse=True) == a
            assert qg_apply(qg_apply(a, inverse=True)) == a
            count += 1
        assert count > 15000

    def test_commutes_with_conversion(self, Z4):
        # on words ending in a group letter the twist acts the same on both sides
        letters = list(Z4.elements())
        for w in x_words_up_to(letters, 5):
            if not w or not x_word_in_h1(w):
                continue
            a = elem(Z4, *w)
            assert x_to_y(qg_apply(a)) == qg_apply(x_to_y(a))
            assert x_to_y(qg_apply(a, inverse=True)) == qg_apply(x_to_y(a), inverse=True)

    def test_trailing_zeros_kept(self, Z3):
        g1, g2 = Z3.element(1), Z3.element(2)
        result = qg_apply(elem(Z3, g1, X0, g2, X0))
        assert result == elem(Z3, g1, X0, g1, X0)


class TestConversion:
    def test_y_to_x(self, Z3):
        g = Z3.element(1)
        assert y_to_x(elem(Z3, (3, g), kind="y")) == elem(Z3, X0, X0, g)

    def test_x_to_y(self, Z3):
        g, h = Z3.element(1), Z3.element(2)
        assert x_to_y(elem(Z3, g, h)) == elem(Z3, (1, g), (1, h), kind="y")

    def test_trailing_x0_rejected(self, Z3):
        with pytest.raises(NotInH1Error, match=r"^xg\[1\]x0 ends in x0"):
            x_to_y(elem(Z3, Z3.element(1), X0))

    def test_roundtrip(self, Z3):
        letters = list(Z3.elements())
        for w in y_words_up_to(letters, 4):
            a = elem(Z3, *w, kind="y")
            assert x_to_y(y_to_x(a)) == a


class TestMembership:
    def test_cases(self, Z3):
        g = Z3.element(1)
        one = Z3.identity()
        assert membership(elem(Z3, X0, g)) is Membership.H0
        assert membership(elem(Z3, one, g)) is Membership.H1
        assert membership(elem(Z3, g, X0)) is Membership.NEITHER
        assert membership(elem(Z3, g)) is Membership.H0
        assert membership(elem(Z3, one)) is Membership.H1
        assert membership(AlgebraElement.one(RATIONAL, "x", Z3)) is Membership.H0

    def test_h0_closed_under_both_products(self, Z3):
        import random
        rng = random.Random(7)
        letters = list(Z3.elements())
        h0_words = [w for w in x_words_up_to(letters, 4) if w and x_word_in_h0(w)]
        for _ in range(60):
            w1, w2 = rng.choice(h0_words), rng.choice(h0_words)
            a, b = elem(Z3, *w1), elem(Z3, *w2)
            assert membership(shuffle(a, b)) is Membership.H0
            st_prod = y_to_x(harmonic(x_to_y(a), x_to_y(b)))
            assert membership(st_prod) is Membership.H0


class TestProjection:
    def test_kills_trailing_x0(self, Z3):
        g = Z3.element(1)
        a = elem(Z3, X0, g) + elem(Z3, g, X0)
        assert project_piY(a) == elem(Z3, (2, g), kind="y")

    def test_unit(self, Z3):
        one = AlgebraElement.one(RATIONAL, "x", Z3)
        assert project_piY(one) == AlgebraElement.one(RATIONAL, "y", Z3)

    def test_pure_x0(self, Z3):
        assert project_piY(elem(Z3, X0, X0)).terms == {}

    def test_direct_sum_and_idempotence(self, Z3):
        # every word either converts to a Y word or ends in x0
        letters = list(Z3.elements())
        for w in x_words_up_to(letters, 4):
            assert x_word_in_h1(w) or (w and w[-1] is X0)
            a = elem(Z3, *w)
            once = project_piY(a)
            again = project_piY(y_to_x(once))
            assert once == again


class TestPairing:
    def test_coefficient_extraction(self, Z3):
        a_, b_ = Z3.element(1), Z3.element(2)
        x = combo(Z3, (1, (a_, b_)), (2, (b_, a_)))
        assert x.coeff((b_, a_)) == 2
        assert AlgebraElement.one(RATIONAL, "x", Z3).coeff(()) == 1


class TestTextForm:
    def test_roundtrip_rational(self, Z3):
        g = Z3.element(1)
        a = combo(Z3, (Fraction(3, 2), (X0, g)), (-1, (g,)), (1, (g, g)))
        text = format_element_combo(a)
        back = parse_element_combo(text, RATIONAL, "x", Z3)
        assert back == a

    def test_roundtrip_y(self, Z3):
        a = combo(Z3, (Fraction(-5, 3), ((2, Z3.element(1)), (1, Z3.element(0)))),
                  kind="y")
        text = format_element_combo(a)
        assert parse_element_combo(text, RATIONAL, "y", Z3) == a

    def test_roundtrip_complex(self, Z3):
        ring = ComplexRing()
        g = Z3.element(2)
        a = AlgebraElement.from_word(ring, "x", Z3, (X0, g), 1.5 + 2j)
        text = format_element_combo(a)
        assert parse_element_combo(text, ring, "x", Z3) == a


# -- randomized algebraic identities ------------------------------------------

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=20)


class TestRingAxioms:
    @given(rationals, rationals, rationals)
    def test_rational_ring_axioms(self, a, b, c):
        ring = RATIONAL
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert ring.one * a == a
        assert a + ring.zero == a
        assert ring.is_zero(a - a)

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False))
    def test_complex_ring_tolerance(self, a, b):
        assert COMPLEX.eq(a, a + 1e-12)
        assert COMPLEX.is_zero(a - a)
        assert COMPLEX.eq(a + b, b + a)


@st.composite
def x_words(draw, group, max_len=4):
    letters = [X0] + list(group.elements())
    length = draw(st.integers(min_value=0, max_value=max_len))
    return tuple(draw(st.sampled_from(letters)) for _ in range(length))


class TestRandomizedProducts:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_shuffle_matches_oracle(self, data):
        from cyclozeta.groups import construct_group
        G = construct_group([3])
        w1 = data.draw(x_words(G))
        w2 = data.draw(x_words(G))
        a, b = elem(G, *w1), elem(G, *w2)
        got = shuffle(a, b)
        assert got == oracle_shuffle(a, b)
        assert got == shuffle(b, a)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_qg_roundtrip_random(self, data):
        from cyclozeta.groups import construct_group
        G = construct_group([5])
        w = data.draw(x_words(G, max_len=6))
        a = elem(G, *w)
        assert qg_apply(qg_apply(a, inverse=True)) == a


@st.composite
def small_combos(draw, group, kind="x"):
    letters = [X0] + list(group.elements())
    n_terms = draw(st.integers(min_value=0, max_value=4))
    acc = AlgebraElement.zero(RATIONAL, kind, group)
    for _ in range(n_terms):
        length = draw(st.integers(min_value=0, max_value=3))
        word = tuple(draw(st.sampled_from(letters)) for _ in range(length))
        coeff = draw(rationals)
        acc = acc + AlgebraElement.from_word(RATIONAL, kind, group, word, coeff)
    return acc


class TestComboParserRoundTrip:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_format_parse_roundtrip(self, data):
        from cyclozeta.groups import construct_group
        G = construct_group([2, 4])
        a = data.draw(small_combos(G))
        text = format_element_combo(a)
        assert parse_element_combo(text, RATIONAL, "x", G) == a
