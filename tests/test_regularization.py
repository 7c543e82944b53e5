"""Shuffle regularization, the correction series, and the Z extensions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import combo, elem, oracle_shuffle_words
from cyclozeta.algebra import AlgebraElement, shuffle
from cyclozeta.dmr import phi_from_Z
from cyclozeta.errors import DegreeBoundError, NotInH0Error
from cyclozeta.regularization import (TPolynomial, TableZMap, _regt_word,
                                      _tilde_word, bar_reg, bar_reg_T, extend_Z_sh, extend_Z_st,
                                      rho_apply, sigma_apply)
from cyclozeta.groups import power_structure
from cyclozeta.rings import RATIONAL
from cyclozeta.words import X0, x_word_in_h0, x_words_up_to


def primes():
    found = []
    n = 2
    while True:
        if all(n % p for p in found):
            found.append(n)
            yield n
        n += 1


def prime_zmap(group, max_len):
    """Distinct primes on the convergent word basis: formally independent
    values realized over the rationals."""
    gen = primes()
    table = {w: Fraction(next(gen))
             for w in x_words_up_to(group.elements(), max_len)
             if w and x_word_in_h0(w)}
    return TableZMap(RATIONAL, group, table)


def tpoly_from(group, entries):
    """entries: exponent -> list of (coeff, word)."""
    return TPolynomial.make({
        l: combo(group, *terms) for l, terms in entries.items()})


class TestTildeReg:
    def test_identity_on_group_letter(self, Z3):
        g = Z3.element(1)
        assert bar_reg_T(elem(Z3, g)).coeffs == {0: elem(Z3, g)}

    def test_kills_x0(self, Z3):
        assert bar_reg_T(elem(Z3, X0)).coeffs == {}

    def test_one_step_division(self, Z3):
        g = Z3.element(1)
        assert bar_reg_T(elem(Z3, g, X0)).coeffs == {0: elem(Z3, X0, g).scale(-1)}

    def test_algebra_hom(self, Z2):
        # reg(u sh v) = reg(u) sh reg(v) in A[T] on all pairs of the pool
        letters = [X0] + list(Z2.elements())
        rng = random.Random(3)
        pool = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                for _ in range(40)]
        for w1, w2 in itertools.product(pool, repeat=2):
            a, b = elem(Z2, *w1), elem(Z2, *w2)
            lhs = bar_reg_T(shuffle(a, b))
            assert lhs.coeffs == bar_reg_T(a).mul(bar_reg_T(b), shuffle).coeffs


class TestWordCaches:
    def test_caches_are_bounded(self):
        for cached in (_tilde_word, _regt_word):
            assert cached.cache_info().maxsize is not None


class TestBarRegT:
    def test_x1_to_T(self, Z3):
        one = Z3.identity()
        tp = bar_reg_T(elem(Z3, one))
        assert tp.coeffs == {1: AlgebraElement.one(RATIONAL, "x", Z3)}

    def test_identity_on_convergent(self, Z3):
        g = Z3.element(1)
        tp = bar_reg_T(elem(Z3, X0, g))
        assert tp.coeffs == {0: elem(Z3, X0, g)}

    def test_x0_to_zero(self, Z3):
        assert bar_reg_T(elem(Z3, X0)).coeffs == {}

    def test_closed_form_small(self, Z2):
        # x1 x_g  ->  x_g T - x_g x_1
        one, s = Z2.identity(), Z2.element(1)
        tp = bar_reg_T(elem(Z2, one, s))
        assert tp.coeffs == {0: elem(Z2, s, one).scale(-1), 1: elem(Z2, s)}

    def test_closed_form_oracle(self, Z2):
        # against the generating-function expansion, independently assembled
        h0_words = [w for w in x_words_up_to(Z2.elements(), 3)
                    if w and x_word_in_h0(w)]
        one = Z2.identity()
        for m in range(4):
            for w in h0_words:
                got = bar_reg_T(elem(Z2, *((one,) * m + w)))
                head, rest = w[0], w[1:]
                acc = {}
                for k in range(m + 1):
                    l = m - k
                    for word, count in oracle_shuffle_words((one,) * k, rest).items():
                        key = (l, (head,) + word)
                        acc[key] = acc.get(key, 0) + Fraction(
                            (-1) ** k * count, math.factorial(l))
                by_level = {}
                for (l, word), c in acc.items():
                    by_level.setdefault(l, {})[word] = c
                expected = TPolynomial.make({
                    l: AlgebraElement.make(RATIONAL, "x", Z2, words)
                    for l, words in by_level.items()})
                assert got.coeffs == expected.coeffs

    def test_shuffle_homomorphism(self, Z2):
        rng = random.Random(11)
        letters = [X0] + list(Z2.elements())
        pool = [tuple(rng.choice(letters) for _ in range(rng.randint(0, 3)))
                for _ in range(30)]
        for w1, w2 in itertools.product(pool[:15], pool[15:]):
            a, b = elem(Z2, *w1), elem(Z2, *w2)
            lhs = bar_reg_T(shuffle(a, b))
            rhs = bar_reg_T(a).mul(bar_reg_T(b), shuffle)
            assert lhs.coeffs == rhs.coeffs

    def test_bar_reg_at_zero(self, Z3):
        g = Z3.element(1)
        assert bar_reg(elem(Z3, g, X0)) == elem(Z3, X0, g).scale(-1)
        assert bar_reg(elem(Z3, Z3.identity())).terms == {}


def divided_power(l: int) -> TPolynomial:
    return TPolynomial.make({l: Fraction(1, math.factorial(l))})


def gamma(Z, l: int, inverse: bool = False):
    """The u^l coefficient of the comparison series (of its reciprocal when
    ``inverse``), read as the T^0 coefficient of rho (rho^-1) at T^l/l!."""
    return rho_apply(Z, divided_power(l), inverse).coeff(0)


class TestGamma:
    def test_low_coefficients(self, Z2):
        Z = prime_zmap(Z2, 4)
        assert gamma(Z, 0, inverse=True) == 1
        assert gamma(Z, 1, inverse=True) == 0
        z2_value = Z.eval_word((X0, Z2.identity()))
        assert gamma(Z, 2, inverse=True) == -z2_value / 2
        assert gamma(Z, 2) == z2_value / 2

    def test_gamma_times_inverse_is_one(self, Z2):
        Z = prime_zmap(Z2, 8)
        forward = [gamma(Z, l) for l in range(9)]
        inverse = [gamma(Z, l, inverse=True) for l in range(9)]
        # convolution of forward and inverse coefficients telescopes to 1
        for n in range(9):
            total = sum(forward[j] * inverse[n - j] for j in range(n + 1))
            assert total == (1 if n == 0 else 0)


class TestRho:
    def test_examples(self, Z2):
        Z = prime_zmap(Z2, 4)
        one = TPolynomial.constant(Fraction(1))
        assert rho_apply(Z, one).coeffs == {0: Fraction(1)}
        t = TPolynomial.make({1: Fraction(1)})
        assert rho_apply(Z, t).coeffs == {1: Fraction(1)}
        t2 = TPolynomial.make({2: Fraction(1)})
        z2_value = Z.eval_word((X0, Z2.identity()))
        assert rho_apply(Z, t2).coeffs == {2: Fraction(1), 0: z2_value}

    def test_roundtrip_degree8(self, Z2):
        Z = prime_zmap(Z2, 8)
        for l in range(9):
            p = TPolynomial.make({l: Fraction(1)})
            back = rho_apply(Z, rho_apply(Z, p), inverse=True)
            assert back.coeffs == p.coeffs
            back2 = rho_apply(Z, rho_apply(Z, p, inverse=True))
            assert back2.coeffs == p.coeffs


class TestSigma:
    def test_identity_on_constants(self, Z6):
        Z = prime_zmap(Z6, 3)
        ps = power_structure(Z6, 2)
        one = TPolynomial.constant(Fraction(7))
        assert sigma_apply(Z, ps.kernel, one).coeffs == {0: Fraction(7)}

    def test_linear_shift(self, Z6):
        Z = prime_zmap(Z6, 3)
        ps = power_structure(Z6, 2)
        t = TPolynomial.make({1: Fraction(1)})
        delta1 = sum(Z.eval_word((g,)) for g in ps.kernel if not g.is_identity)
        assert sigma_apply(Z, ps.kernel, t).coeffs == {1: Fraction(1), 0: delta1}

    def test_trivial_kernel_is_identity(self, Z3):
        Z = prime_zmap(Z3, 3)
        ps = power_structure(Z3, 1)
        p = TPolynomial.make({2: Fraction(3), 0: Fraction(1)})
        assert sigma_apply(Z, ps.kernel, p).coeffs == p.coeffs

    def test_additivity(self, Z6):
        Z = prime_zmap(Z6, 3)
        ps = power_structure(Z6, 3)
        p = TPolynomial.make({2: Fraction(1), 1: Fraction(2)})
        q = TPolynomial.make({3: Fraction(1), 0: Fraction(-1)})
        lhs = sigma_apply(Z, ps.kernel, p + q)
        rhs = sigma_apply(Z, ps.kernel, p) + sigma_apply(Z, ps.kernel, q)
        assert lhs.coeffs == rhs.coeffs

    def test_delta_series_factorials(self, Z6):
        # the T^0 coefficient of sigma at T^l/l! is delta_1^l / l!
        Z = prime_zmap(Z6, 2)
        ps = power_structure(Z6, 6)
        delta1 = sum(Z.eval_word((g,)) for g in ps.kernel if not g.is_identity)
        assert delta1
        for l in range(6):
            coeff = sigma_apply(Z, ps.kernel, divided_power(l)).coeff(0)
            assert coeff * math.factorial(l) == delta1 ** l


class TestExtend:
    def test_x1_goes_to_T(self, Z2):
        Z = prime_zmap(Z2, 4)
        tp = extend_Z_sh(Z, elem(Z2, Z2.identity()))
        assert tp.coeffs == {1: Fraction(1)}

    def test_constant_on_convergent(self, Z2):
        Z = prime_zmap(Z2, 4)
        w0 = elem(Z2, X0, Z2.element(1))
        assert extend_Z_sh(Z, w0).coeffs == {0: Z.eval_element(w0)}

    def test_depth_two_value(self, Z2):
        Z = prime_zmap(Z2, 4)
        s, one = Z2.element(1), Z2.identity()
        tp = extend_Z_sh(Z, elem(Z2, one, s))
        assert tp.coeffs == {1: Z.eval_word((s,)),
                             0: -Z.eval_word((s, one))}

    def test_ev0_is_bar_reg_composition(self, Z2):
        # the T = 0 evaluation of the extension equals Z after regularization
        Z = prime_zmap(Z2, 5)
        rng = random.Random(5)
        letters = [X0] + list(Z2.elements())
        for _ in range(40):
            w = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
            a = elem(Z2, *w)
            assert extend_Z_sh(Z, a).coeff(0, Fraction(0)) == Z.eval_element(bar_reg(a))

    def test_st_side_weight_one(self, Z2):
        Z = prime_zmap(Z2, 4)
        s = Z2.element(1)
        assert extend_Z_st(Z, elem(Z2, s)).coeffs == {0: Z.eval_word((s,))}
        assert extend_Z_st(Z, elem(Z2, Z2.identity())).coeffs == {1: Fraction(1)}


class TestZMapContracts:
    def test_rejects_divergent_words(self, Z2):
        Z = prime_zmap(Z2, 4)
        with pytest.raises(NotInH0Error):
            Z.eval_element(elem(Z2, Z2.identity()))

    def test_degree_bound(self, Z2):
        Z = prime_zmap(Z2, 2)
        with pytest.raises(DegreeBoundError):
            Z.eval_element(elem(Z2, X0, X0, Z2.element(1)))
        with pytest.raises(DegreeBoundError):
            phi_from_Z(Z, 3)

    def test_unit_value(self, Z2):
        Z = prime_zmap(Z2, 2)
        assert Z.eval_element(AlgebraElement.one(RATIONAL, "x", Z2)) == 1
