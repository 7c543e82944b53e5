"""Shuffle regularization, the correction series, and the Z extensions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import (_Counted, _StrictRing, _StrictZMap, _lift, _unwrap, combo, elem,
                      oracle_shuffle_words)
from cyclozeta.algebra import (AlgebraElement, harmonic, harmonic_words, shuffle,
                               shuffle_words)
from cyclozeta.dmr import (dmr_check, dmrd_check, eds_dmr_equality_check, phi_from_Z,
                           phi_star)
from cyclozeta.errors import DegreeBoundError, NotInH0Error
from cyclozeta.numeval import NumericZMap
from cyclozeta.regularization import (TPolynomial, TableZMap, _regt_word,
                                      _tilde_word, bar_reg_T, extend_Z_sh, extend_Z_st,
                                      rho_apply, sigma_apply)
from cyclozeta.relations import _regdist_residuals, zhao_case_table
from cyclozeta.groups import construct_group, divisors_of_order, power_structure
from cyclozeta.rings import RATIONAL
from cyclozeta.series import series_log
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


def reg_at_zero(a):
    """The T^0 coefficient of ``bar_reg_T``: x0 and x1 both sent to 0."""
    return bar_reg_T(a).coeff(0, AlgebraElement.zero(a.ring, "x", a.group))


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
        # the defining property: reg(u sh v) = reg(u) sh reg(v) in A[T] on
        # every pair of words of total length <= bound, and reg fixes the
        # convergent words
        for group, bound in ((Z2, 5), (construct_group([2, 2]), 4)):
            words = list(x_words_up_to(group.elements(), bound))
            for w1 in words:
                for w2 in x_words_up_to(group.elements(), bound - len(w1)):
                    a, b = elem(group, *w1), elem(group, *w2)
                    lhs = bar_reg_T(shuffle(a, b))
                    assert lhs.coeffs == bar_reg_T(a).mul(bar_reg_T(b), shuffle).coeffs
            for w in words:
                if x_word_in_h0(w):
                    assert bar_reg_T(elem(group, *w)).coeffs == {0: elem(group, *w)}


class TestWordCaches:
    def test_caches_are_bounded(self):
        for cached in (_tilde_word, _regt_word):
            assert cached.cache_info().maxsize is not None

    def test_unit_rows_are_the_shared_one(self, Z3):
        # every row equal to 1 is the rational ring's one, so _reg_levels
        # skips its product; over the X words of length <= 6 over Z3
        tilde = [row for w in x_words_up_to(Z3.elements(), 6) for row in _tilde_word(w)]
        regt = [c for w, _ in tilde for _, _, c in _regt_word(w)]
        units = [c for c in [c for _, c in tilde] + regt if c == 1]
        assert units and all(c is RATIONAL.one for c in units)
        # so is a row past T^1: in x1^4 x0 x0 x1, the T^2 row x0 (x1 x1 sh
        # x0 x1) / 2! holds x0 x1 x0 x1 x1 twice
        one = Z3.identity()
        rows = [c for l, _, c in _regt_word((one,) * 4 + (X0, X0, one)) if l == 2 and c == 1]
        assert rows and all(c is RATIONAL.one for c in rows)


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
        assert reg_at_zero(elem(Z3, g, X0)) == elem(Z3, X0, g).scale(-1)
        assert reg_at_zero(elem(Z3, Z3.identity())).terms == {}


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
        one = TPolynomial.make({0: Fraction(1)})
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
        one = TPolynomial.make({0: Fraction(7)})
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
            assert extend_Z_sh(Z, a).coeff(0, Fraction(0)) == Z.eval_element(reg_at_zero(a))

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


class TestExactUntilEvaluation:
    """Words are regularized over the rationals, and Z's ring enters once
    per convergent word.  Each test compares the evaluated path with
    ``bar_reg_T`` or its T^0 coefficient followed by ``eval_element``."""

    @pytest.mark.parametrize("factors, degree", [([3], 4), ([2, 2], 3)])
    def test_phi_from_Z_is_Z_of_bar_reg_exactly(self, factors, degree):
        G = construct_group(factors)
        Z = prime_zmap(G, degree)
        phi = phi_from_Z(Z, degree)
        for w in x_words_up_to(G.elements(), degree):
            assert phi.coeff(w) == Z.eval_element(reg_at_zero(elem(G, *w)))

    def test_phi_from_Z_numeric_within_ulps(self):
        Z = NumericZMap(3)
        G = Z.group
        phi = phi_from_Z(Z, 4)
        for w in x_words_up_to(G.elements(), 4):
            reg = reg_at_zero(elem(G, *w))
            scale = sum(abs(c) * abs(Z.eval_element(elem(G, *v)))
                        for v, c in reg.terms.items())
            assert abs(phi.coeff(w) - Z.eval_element(reg)) <= 4 * math.ulp(max(scale, 1.0))

    def test_phi_from_Z_evaluates_the_T0_supports(self):
        Z = NumericZMap(3)
        G = Z.group
        phi_from_Z(Z, 4)
        supports = set()
        for w in x_words_up_to(G.elements(), 4):
            level = bar_reg_T(elem(G, *w)).coeffs.get(0)
            supports |= set(level.terms) if level else set()
        supports.discard(())  # the unit is the ring's one, not a lookup
        assert set(Z._cache) == supports

    def test_extend_Z_sh_levels_on_combinations(self, Z3):
        Z = prime_zmap(Z3, 5)
        rng = random.Random(21)
        letters = [X0] + list(Z3.elements())
        cases = [combo(Z3, (1, (Z3.identity(), Z3.element(1))),
                       (1, (Z3.element(1), Z3.identity())))]  # x1 sh xg: T^0 cancels
        for _ in range(40):
            cases.append(combo(Z3, *(
                (Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
                 tuple(rng.choice(letters) for _ in range(rng.randint(0, 5))))
                for _ in range(rng.randint(2, 5)))))
        for a in cases:
            levels = {l: Z.eval_element(c) for l, c in bar_reg_T(a).coeffs.items()}
            assert extend_Z_sh(Z, a).coeffs == {l: v for l, v in levels.items() if v}


class TestRingContract:
    """Every stream needs from Z's ring only the contract of
    :mod:`cyclozeta.rings`: ``+``, ``-`` and ``*`` among its own values,
    ``bool``, and ``coerce`` of ints and ``Fraction``s; on such a ring it
    gives the rational map's values.  This holds for the element products,
    the regularized streams and the series-level suites alike."""

    SERIES_CASES = pytest.mark.parametrize("order, degree", [(3, 4), (6, 3)],
                                           ids=["Z3-degree4", "Z6-degree3"])

    @staticmethod
    def _product_operands(Z3):
        one, g, h = Z3.identity(), Z3.element(1), Z3.element(2)
        x = (combo(Z3, (Fraction(2, 3), (g, X0)), (1, (g,)), (-5, (one, h))),
             combo(Z3, (1, (g, g)), (Fraction(-1, 4), (h,)), (3, (g, X0, h))))
        y = (combo(Z3, (1, ((1, g),)), (Fraction(3, 5), ((2, h), (1, g))), kind="y"),
             combo(Z3, (-2, ((1, g), (1, g))), (1, ((1, h),)), kind="y"))
        return {"shuffle": (shuffle, x), "harmonic": (harmonic, y)}

    @pytest.mark.parametrize("name", ["shuffle", "harmonic"])
    def test_products(self, Z3, name):
        product, (a, b) = self._product_operands(Z3)[name]
        ring = _StrictRing()
        got = product(_lift(ring, a), _lift(ring, b))
        assert {w: _unwrap(c) for w, c in got.terms.items()} == product(a, b).terms

    @pytest.mark.parametrize("name", ["shuffle", "harmonic"])
    def test_products_multiply_once_per_pair_and_distinct_count(self, Z3, name):
        product, (a, b) = self._product_operands(Z3)[name]
        words = shuffle_words if name == "shuffle" else harmonic_words
        bound = 0
        for w1, c1 in a.terms.items():
            for w2, c2 in b.terms.items():
                units = (c1 == 1) + (c2 == 1)
                counts = set(words(w1, w2).values()) - {1}
                bound += (units == 0) + (0 if units == 2 else len(counts))
        ring = _StrictRing(_Counted)
        ua, ub = _lift(ring, a), _lift(ring, b)
        _Counted.products = 0
        product(ua, ub)
        assert 0 < _Counted.products <= bound
        units_only = [AlgebraElement.make(ring, e.kind, e.group, dict.fromkeys(e.terms, ring.one))
                      for e in (ua, ub)]
        _Counted.products = 0
        got = product(*units_only)
        assert _Counted.products == 0
        assert any(_unwrap(c) > 1 for c in got.terms.values())  # counts above 1 ran

    def test_phi_from_Z(self, Z3):
        rational = prime_zmap(Z3, 4)
        strict = phi_from_Z(_StrictZMap(rational), 4)
        assert {w: _unwrap(c) for w, c in strict.terms.items()} == phi_from_Z(rational, 4).terms

    def test_extend_Z_sh(self, Z3):
        rational = prime_zmap(Z3, 4)
        strict = _StrictZMap(rational)
        one, g = Z3.identity(), Z3.element(1)
        for a in (combo(Z3, (Fraction(2, 3), (one, g, X0)), (-5, (one, one, g))),
                  combo(Z3, (1, (g, X0)), (Fraction(1, 7), (X0, g)), (3, (one,)))):
            got = extend_Z_sh(strict, a).coeffs
            assert {l: _unwrap(c) for l, c in got.items()} == extend_Z_sh(rational, a).coeffs

    def test_regdist_residuals(self, Z4):
        rational = prime_zmap(Z4, 2)
        strict = _StrictZMap(rational)
        ps = power_structure(Z4, 2)
        for w in x_words_up_to(ps.subgroup, 2):
            got = [(t, _unwrap(r)) for t, r in _regdist_residuals(strict, ps, w)]
            assert got == list(_regdist_residuals(rational, ps, w))

    @staticmethod
    def _series_suite(name, group, degree):
        """The rows of one series-level suite, as a function of Z."""
        divisors = [d for d in divisors_of_order(group) if d >= 2]
        return {
            "dmr_check": lambda Z: dmr_check(phi_from_Z(Z, degree)),
            "dmrd_check": lambda Z: [dmrd_check(phi_from_Z(Z, degree), power_structure(group, d))
                                     for d in divisors],
            "zhao_case_table": lambda Z: [row for d in divisors
                                          for row in zhao_case_table(Z, group, d)],
            "eds_dmr_equality_check": lambda Z: [eds_dmr_equality_check(Z, degree)],
        }[name]

    @SERIES_CASES
    @pytest.mark.parametrize("name", ["dmr_check", "dmrd_check", "zhao_case_table",
                                      "eds_dmr_equality_check"])
    def test_series_suites(self, order, degree, name):
        group = construct_group([order])
        rational = prime_zmap(group, degree)
        suite = self._series_suite(name, group, degree)
        want = suite(rational)
        assert want and suite(_StrictZMap(rational)) == want

    @SERIES_CASES
    def test_corrected_series_and_log(self, order, degree):
        rational = prime_zmap(construct_group([order]), degree)
        strict = phi_from_Z(_StrictZMap(rational), degree)
        exact = phi_from_Z(rational, degree)
        for series in (phi_star, series_log):
            got = series(strict)
            assert {w: _unwrap(c) for w, c in got.terms.items()} == series(exact).terms
