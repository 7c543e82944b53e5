"""Free algebra: products, label twist, conversions, membership, pairing."""

import gc
import itertools
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (combo, elem, oracle_quasi_shuffle_words, oracle_shuffle,
                      oracle_shuffle_words)
from cyclozeta import algebra, rings
from cyclozeta.algebra import (AlgebraElement, _quasi_shuffle_words,
                               format_element_combo, harmonic, harmonic_words,
                               parse_element_combo,
                               project_piY, qg_apply, quasi_shuffle, shuffle,
                               shuffle_words, x_to_y, y_to_x)
from cyclozeta.errors import (AlphabetMismatchError, InvalidArgumentError,
                              NotInH1Error)
from cyclozeta.rings import COMPLEX, RATIONAL, ComplexRing
from cyclozeta.series import Alphabet, TruncatedSeries
from cyclozeta.words import (X0, x_to_y_word, x_word_in_h0, x_word_in_h1,
                             x_words_up_to, y_to_x_word, y_words_up_to)


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

    def test_elements_stay_frozen(self, Z3):
        # AlgebraElement writes its fields in its own init; a series keeps
        # the generated one, and neither takes an assignment afterwards
        a = elem(Z3, X0)
        assert a == AlgebraElement(RATIONAL, "x", Z3, {(X0,): RATIONAL.one})
        series = TruncatedSeries.one(RATIONAL, Alphabet.x(Z3), 2)
        for value in (a, series):
            with pytest.raises(FrozenInstanceError):
                value.terms = {}
        assert series.degree_bound == 2 and series.terms == {(): RATIONAL.one}

    def test_zero_product_short_circuits(self, Z3):
        zero = AlgebraElement.zero(RATIONAL, "x", Z3)
        assert shuffle(zero, elem(Z3, X0)).terms == {}
        assert quasi_shuffle(zero, elem(Z3, X0), "shuffle").terms == {}


def _harmonic_merge(a, b):
    """The harmonic letter merge ``y_{n1,g1} <> y_{n2,g2} = y_{n1+n2, g1 g2}``,
    as the ``(letter, constant)`` pairs the recursion oracles read."""
    (n1, g1), (n2, g2) = a, b
    return (((n1 + n2, g1 * g2), 1),)


def _no_merge(a, b):
    """The shuffle's letter merge: none."""
    return ()


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
                assert quasi_shuffle(a, b, "shuffle") == shuffle(a, b)

    def test_harmonic_refuses_x_side_input(self, Z3):
        a, b = elem(Z3, Z3.element(1)), elem(Z3, Z3.element(2))
        with pytest.raises(AlphabetMismatchError, match="Y-side"):
            quasi_shuffle(a, b, "harmonic")
        with pytest.raises(AlphabetMismatchError, match="Y-side"):
            harmonic(a, b)

    def test_unknown_product_name_is_refused(self, Z3):
        a = elem(Z3, (1, Z3.element(1)), kind="y")
        with pytest.raises(InvalidArgumentError, match="'stuffle'"):
            quasi_shuffle(a, a, "stuffle")

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
        for r1 in range(1, 3):
            for r2 in range(1, 3):
                for w1 in itertools.product(letters, repeat=r1):
                    for w2 in itertools.product(letters, repeat=r2):
                        got = quasi_shuffle(elem(Z3, *w1, kind="y"),
                                            elem(Z3, *w2, kind="y"),
                                            "harmonic")
                        want = oracle_quasi_shuffle_words(w1, w2, _harmonic_merge)
                        assert got.terms == {w: Fraction(c) for w, c in want.items()}

    def test_word_memo_dies_without_the_cycle_collector(self, Z3):
        # a memo that referred back to itself would live until the cyclic
        # collector ran, one per product call and per pair-table row
        u = ((1, Z3.element(1)), (2, Z3.element(2)))
        v = ((1, Z3.element(0)), (1, Z3.element(1)))
        gc.disable()
        try:
            qs = _quasi_shuffle_words("harmonic")
            counts = qs(u, v)
            dropped = weakref.ref(qs)
            del qs
            assert dropped() is None
        finally:
            gc.enable()
        want = oracle_quasi_shuffle_words(u, v, _harmonic_merge)
        assert counts == want

    def test_harmonic_builds_no_memo_per_call(self, Z3, monkeypatch):
        # harmonic reads its process cache; only the grouplike pair table
        # builds word memos
        memos = []

        class Recorded(_quasi_shuffle_words):
            def __init__(self, product):
                super().__init__(product)
                memos.append(self.memo)

        monkeypatch.setattr(algebra, "_quasi_shuffle_words", Recorded)
        u = ((1, Z3.element(1)), (2, Z3.element(2)))
        v = ((1, Z3.element(0)), (1, Z3.element(1)))
        got = harmonic(elem(Z3, *u, kind="y"), elem(Z3, *v, kind="y"))
        assert memos == []
        assert got.terms == oracle_quasi_shuffle_words(u, v, _harmonic_merge)


def _harmonic_oracle(u, v):
    return oracle_quasi_shuffle_words(u, v, _harmonic_merge)


class TestWordCachePolicy:
    """A process word cache holds only the pairs of nonempty suffixes the
    recursion revisits: never the operand pair an element product asked
    for, and never a pair with an empty word.  Each test runs on the
    shuffle and on the harmonic product."""

    PRODUCTS = {"shuffle": (shuffle, shuffle_words, "x", oracle_shuffle_words),
                "harmonic": (harmonic, harmonic_words, "y", _harmonic_oracle)}

    @classmethod
    def _single_words(cls, Z3):
        """``(product, cache, kind, oracle, u, v)`` per product, for two
        words of lengths 3 and 2."""
        one, g, h = Z3.identity(), Z3.element(1), Z3.element(2)
        words = {"shuffle": ((g, X0, h), (h, g)),
                 "harmonic": (((1, g), (2, h), (1, one)), ((2, g), (1, h)))}
        return [(*cls.PRODUCTS[name], *words[name]) for name in cls.PRODUCTS]

    def test_single_words_store_their_suffix_pairs_only(self, Z3):
        for product, cache, kind, oracle, u, v in self._single_words(Z3):
            cache.cache_clear()
            got = product(elem(Z3, *u, kind=kind), elem(Z3, *v, kind=kind))
            # every pair of nonempty suffixes but (u, v) itself
            assert cache.cache_info().currsize == len(u) * len(v) - 1 == 5
            assert got.terms == oracle(u, v)

    def test_later_products_reuse_the_suffix_pairs(self, Z3):
        # the cache outlives the product: repeating it, or multiplying the
        # operands' suffixes, misses no pair
        for product, cache, kind, oracle, u, v in self._single_words(Z3):
            cache.cache_clear()
            product(elem(Z3, *u, kind=kind), elem(Z3, *v, kind=kind))
            info = cache.cache_info()
            for w1, w2 in ((u, v), (u[1:], v), (u, v[1:]), (u[2:], v[1:])):
                got = product(elem(Z3, *w1, kind=kind), elem(Z3, *w2, kind=kind))
                assert got.terms == oracle(w1, w2)
            assert cache.cache_info().misses == info.misses
            assert cache.cache_info().hits > info.hits

    def test_operand_pair_that_is_a_suffix_pair(self, Z3):
        for product, cache, kind, oracle, u, v in self._single_words(Z3):
            a = elem(Z3, *u, kind=kind) + elem(Z3, *u[1:], kind=kind)
            cache.cache_clear()
            got = product(a, elem(Z3, *v, kind=kind))
            # (u[1:], v) is stored once, as a suffix pair of (u, v)
            assert cache.cache_info().currsize == 5
            want: dict = {}
            for w1 in (u, u[1:]):
                for w, c in oracle(w1, v).items():
                    want[w] = want.get(w, 0) + c
            assert got.terms == want

    def test_all_short_products_store_only_shorter_pairs(self, Z2):
        # a memory guard: a store of the operand pairs adds every pair of
        # total length 6, 3645 more entries, and a store of the pairs with
        # an empty word adds 726 more
        e, s = Z2.element(0), Z2.element(1)
        letters = {"x": [X0, e, s], "y": [(1, e), (1, s), (2, e)]}
        # the nonempty pairs of total length t split t - 1 ways
        shorter_pairs = sum((t - 1) * 3 ** t for t in range(2, 6))
        for product, cache, kind, _ in self.PRODUCTS.values():
            words = _words_over(letters[kind], 5)
            cache.cache_clear()
            for w1 in words:
                for w2 in words:
                    if len(w1) + len(w2) <= 6:
                        product(elem(Z2, *w1, kind=kind), elem(Z2, *w2, kind=kind))
            assert cache.cache_info().currsize == shorter_pairs == 1278


def _old_rule_product(a, b, words_product):
    """The bilinear product by the rule the kernel used to follow: ``c1 * c2``
    for every pair, ``c * count`` for every term, then the pruning of
    ``make``; ``words_product`` is an independent word-level oracle."""
    out: dict = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            c = c1 * c2
            for word, count in words_product(w1, w2).items():
                term = c * count
                out[word] = out[word] + term if word in out else term
    return a._like(out)


def _parent_merge_step(w1, w2, merge, sub):
    """The recursion step as it was written before its halves were built
    by a comprehension and a plain store; the key order must not change."""
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    out: dict = {}
    for word, c in sub(w1[1:], w2).items():
        key = (w1[0],) + word
        out[key] = out.get(key, 0) + c
    for word, c in sub(w1, w2[1:]).items():
        key = (w2[0],) + word
        out[key] = out.get(key, 0) + c
    for letter, lam in merge(w1[0], w2[0]):
        for word, c in sub(w1[1:], w2[1:]).items():
            key = (letter,) + word
            out[key] = out.get(key, 0) + lam * c
    return out


def _parent_words_product(merge):
    memo: dict = {}

    def product(w1, w2):
        if (w1, w2) not in memo:
            memo[w1, w2] = _parent_merge_step(w1, w2, merge, product)
        return memo[w1, w2]
    return product


class TestProductsFollowTheOldRule:
    """``shuffle``, ``harmonic`` and ``quasi_shuffle`` skip the product by
    the ring's one and scale each distinct count once per pair; their values
    equal those of the plain rule, on every coefficient type, and the word
    products keep their key order."""

    @staticmethod
    def _operands(Z3, ring, coeffs, kind):
        one, g, h = Z3.identity(), Z3.element(1), Z3.element(2)
        if kind == "x":
            words = [(g, X0), (g, g), (one, h), (h,), (X0, g, g)]
        else:
            words = [((1, g), (2, h)), ((1, g), (1, g)), ((2, one),), ((1, h),)]
        a = combo(Z3, *zip(coeffs[:3], words[:3]), ring=ring, kind=kind)
        b = combo(Z3, *zip(coeffs[3:], words[2:]), ring=ring, kind=kind)
        # a unit term on each side: its pairs take the other coefficient as is
        return (a + AlgebraElement.from_word(ring, kind, Z3, words[-1]),
                b + AlgebraElement.from_word(ring, kind, Z3, words[0]))

    RINGS = [(RATIONAL, [Fraction(3, 2), -2, Fraction(-1, 7), 5, Fraction(2, 9), -1]),
             (COMPLEX, [1.5 + 0.25j, -2, 0.1 - 3j, 2j, -0.5, 1 + 1j])]

    @pytest.mark.parametrize("ring, coeffs", RINGS)
    def test_shuffle(self, Z3, ring, coeffs):
        a, b = self._operands(Z3, ring, coeffs, "x")
        assert shuffle(a, b) == _old_rule_product(a, b, oracle_shuffle_words)

    @pytest.mark.parametrize("ring, coeffs", RINGS)
    def test_harmonic(self, Z3, ring, coeffs):
        a, b = self._operands(Z3, ring, coeffs, "y")
        assert harmonic(a, b) == _old_rule_product(a, b, _harmonic_oracle)

    @pytest.mark.parametrize("ring, coeffs", RINGS)
    def test_quasi_shuffle_with_repeated_counts(self, Z3, ring, coeffs):
        # x0x0 sh x0xg[1] has the counts 3, 2 and 1, each scaled once
        g = Z3.element(1)
        assert sorted(shuffle_words((X0, X0), (X0, g)).values()) == [1, 2, 3]
        a, b = self._operands(Z3, ring, coeffs, "x")
        a = a + combo(Z3, (coeffs[1], (X0, X0)), ring=ring)
        b = b + combo(Z3, (coeffs[4], (X0, g)), ring=ring)
        got = quasi_shuffle(a, b, "shuffle")
        assert got == _old_rule_product(a, b, oracle_shuffle_words)

    def test_truncated_series(self, Z3):
        alphabet = Alphabet.x(Z3)
        g, h = Z3.element(1), Z3.element(2)
        a = TruncatedSeries.make(RATIONAL, alphabet, 3, {
            (): RATIONAL.one, (g,): Fraction(2, 3), (g, g): -3, (X0, h): RATIONAL.one})
        b = TruncatedSeries.make(RATIONAL, alphabet, 3, {
            (g,): RATIONAL.one, (h, X0): Fraction(-5, 4), (g, h, g): 7})
        got = shuffle(a, b)
        assert isinstance(got, TruncatedSeries)
        assert got == _old_rule_product(a, b, oracle_shuffle_words)

    @pytest.mark.parametrize("ring, c", [(RATIONAL, Fraction(5, 3)), (COMPLEX, 0.5 + 0.25j)])
    def test_cancellation_across_pairs_is_pruned(self, Z3, ring, c):
        g, h = Z3.element(1), Z3.element(2)
        a = combo(Z3, (c, (g,)), (c, (h,)), ring=ring)
        b = combo(Z3, (1, (g,)), (-1, (h,)), ring=ring)
        # c xg sh -xh + c xh sh xg cancels on xg xh and xh xg
        got = shuffle(a, b)
        assert set(got.terms) == {(g, g), (h, h)}
        assert got == _old_rule_product(a, b, oracle_shuffle_words)

    def test_underflowing_pair_coefficient_gives_zero(self, Z3):
        g, h = Z3.element(1), Z3.element(2)
        a = combo(Z3, (1e-200, (g,)), ring=COMPLEX)
        b = combo(Z3, (1e-200, (h, g)), ring=COMPLEX)  # counts 1 and 2
        assert shuffle(a, b).terms == {} and not shuffle(a, b)
        ya = combo(Z3, (1e-200, ((1, g),)), ring=COMPLEX, kind="y")
        yb = combo(Z3, (1e-200j, ((1, h),)), ring=COMPLEX, kind="y")
        assert not harmonic(ya, yb).terms

    def test_word_products_keep_the_key_order(self, Z2):
        e, s = Z2.element(0), Z2.element(1)
        x_words = [()] + _words_over([X0, e, s], 5)
        shuffle_ref = _parent_words_product(_no_merge)
        for w1 in x_words:
            for w2 in x_words:
                if len(w1) + len(w2) <= 5:
                    assert list(shuffle_words(w1, w2).items()) == list(
                        shuffle_ref(w1, w2).items())
        y_words = list(y_words_up_to([e, s], 5))  # the empty word first
        harmonic_ref = _parent_words_product(_harmonic_merge)
        harmonic_memo = _quasi_shuffle_words("harmonic")
        pairs = 0
        for w1 in y_words:
            for w2 in y_words:
                if sum(n for n, _ in w1 + w2) <= 5:
                    pairs += 1
                    want = list(harmonic_ref(w1, w2).items())
                    assert list(harmonic_words(w1, w2).items()) == want
                    assert list(harmonic_memo(w1, w2).items()) == want
        assert pairs > 1000


class TestProductsPruneWhereZerosAppear:
    """An element product tests truth only at a pair coefficient and where
    two terms met on one word; no zero is stored."""

    def test_summed_words_that_cancel_are_dropped(self, Z3):
        g, h = Z3.element(1), Z3.element(2)
        a = combo(Z3, (1, (g,)), (-1, (h,)))
        b = combo(Z3, (1, (h,)), (1, (g,)))
        got = shuffle(a, b)
        assert got == combo(Z3, (2, (g, g)), (-2, (h, h)))
        assert set(got.terms) == {(g, g), (h, h)}  # no x_g x_h, no x_h x_g

    def test_underflowing_harmonic_of_single_words_is_false(self, Z3):
        g, h = Z3.element(1), Z3.element(2)
        a = combo(Z3, (1e-200, ((1, g),)), ring=COMPLEX, kind="y")
        b = combo(Z3, (1e-200, ((2, h),)), ring=COMPLEX, kind="y")
        assert a and b
        got = harmonic(a, b)
        assert not got and got.terms == {}


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
        # commutativity and associativity of harmonic on single letters,
        # where the letter merge meets every label pair of the group
        letters = [elem(Z4, (n, g), kind="y") for n in (1, 2) for g in Z4.elements()]
        for a in letters:
            for b in letters:
                ab = harmonic(a, b)
                assert ab == harmonic(b, a)
                for c in letters:
                    assert harmonic(ab, c) == harmonic(a, harmonic(b, c))


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

    def test_y_words_share_their_letters(self, Z3):
        """The Y words of a large series repeat a few letters: the word
        enumeration and the conversion from X make one tuple per letter."""
        made = {}
        for w in y_words_up_to(Z3.elements(), 4):
            for word in (w, x_to_y_word(y_to_x_word(w))):
                for letter in word:
                    assert made.setdefault(letter, letter) is letter
        assert len(made) == 4 * Z3.order


class TestMembership:
    """Words of the convergent subalgebra H0 and of H1, the words ending in
    a group letter."""

    def test_cases(self, Z3):
        g = Z3.element(1)
        one = Z3.identity()
        for word, in_h0, in_h1 in [((X0, g), True, True), ((one, g), False, True),
                                   ((g, X0), False, False), ((g,), True, True),
                                   ((one,), False, True), ((), True, True)]:
            assert (x_word_in_h0(word), x_word_in_h1(word)) == (in_h0, in_h1), word

    def test_h0_closed_under_both_products(self, Z3):
        import random
        rng = random.Random(7)
        letters = list(Z3.elements())
        h0_words = [w for w in x_words_up_to(letters, 4) if w and x_word_in_h0(w)]
        for _ in range(60):
            w1, w2 = rng.choice(h0_words), rng.choice(h0_words)
            a, b = elem(Z3, *w1), elem(Z3, *w2)
            st_prod = y_to_x(harmonic(x_to_y(a), x_to_y(b)))
            for product in (shuffle(a, b), st_prod):
                assert all(x_word_in_h0(w) for w in product.terms)


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

    def test_rational_coerce_shares_one_fraction_per_int(self):
        for _ in range(2):  # also once the int cache was emptied
            assert RATIONAL.coerce(1) is RATIONAL.one
            assert RATIONAL.coerce(0) is RATIONAL.zero
            assert RATIONAL.coerce(6) is RATIONAL.coerce(6)
            assert type(RATIONAL.coerce(-6)) is Fraction and RATIONAL.coerce(-6) == -6
            rings._int_fraction.cache_clear()

    def test_rational_coerce_keeps_fractions_and_bools_and_refuses_the_rest(self):
        q = Fraction(3, 4)
        assert RATIONAL.coerce(q) is q
        assert RATIONAL.coerce(True) is RATIONAL.one
        assert RATIONAL.coerce(False) is RATIONAL.zero
        for value in (0.5, 2.0, np.int64(2), "1"):
            with pytest.raises(TypeError):
                RATIONAL.coerce(value)

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False),
           st.complex_numbers(max_magnitude=10, allow_nan=False,
                              allow_infinity=False))
    def test_complex_ring_tolerance(self, a, b):
        assert COMPLEX.is_zero(a - (a + 1e-12))
        assert COMPLEX.is_zero(a - a)
        assert COMPLEX.is_zero((a + b) - (b + a))


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
