"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact criteria assert
literal zero over the rationals, numeric ones assert the stated absolute
residuals.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import elem, oracle_shuffle_words
from cyclozeta.algebra import AlgebraElement, harmonic
from cyclozeta.dmr import dmr_check, dmrd_check, eds_dmr_equality_check, phi_from_Z
from cyclozeta.duality import duality_suite
from cyclozeta.groups import construct_group, divisors_of_order, power_structure
from cyclozeta.numeval import NumericZMap, PolylogQuery, polylog_numeric
from cyclozeta.regularization import TPolynomial, TableZMap, bar_reg_T, rho_apply, sigma_apply
from cyclozeta.relations import fdtd1_identity_check, zhao_case_table
from cyclozeta.rings import RATIONAL
from cyclozeta.words import X0, x_word_in_h0, x_words_up_to, y_words_up_to, y_weight


def report(number: int, passed: bool, detail: str):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def invariant_factor_lists(order: int, least: int = 1):
    """Every list d1 | d2 | ... of factors above 1 with product ``order``
    whose first factor is a multiple of ``least``: one list per abelian
    group of that order."""
    if order == 1:
        yield []
    for f in range(2, order + 1):
        if order % f == 0 and f % least == 0:
            for rest in invariant_factor_lists(order // f, f):
                yield [f] + rest


def test_criterion_1_fdtd1_exact_identity():
    groups = [construct_group(factors) for n in range(2, 17)
              for factors in invariant_factor_lists(n)]
    assert len(groups) == 24  # the abelian groups of order 2..16
    cells = 0
    worst = None
    for group in groups:
        for d in divisors_of_order(group):
            if d < 2:
                continue
            for h in power_structure(group, d).subgroup:
                cells += 1
                if fdtd1_identity_check(group, d, h).difference.terms:
                    worst = (group.invariant_factors, d, h)
    # every (G, d, h) with d >= 2 dividing |G| and h a d-th power, none skipped
    report(1, worst is None and cells == 131,
           f"depth-two decomposition exactly zero on {cells} (G,d,h) cells over "
           f"{len(groups)} abelian groups of order <= 16, zero tolerance")


def test_criterion_2_quasi_shuffle_laws():
    group = construct_group([4])
    words = [w for w in y_words_up_to(group.elements(), 4) if w]

    def el(w):
        return AlgebraElement.from_word(RATIONAL, "y", group, w)

    pairs = triples = 0
    ok = True
    for u in words:
        wu = y_weight(u)
        for v in words:
            if wu + y_weight(v) > 5:
                continue
            pairs += 1
            ok = ok and harmonic(el(u), el(v)) == harmonic(el(v), el(u))
    for u in words:
        wu = y_weight(u)
        for v in words:
            wv = y_weight(v)
            if wu + wv >= 5:
                continue
            left = harmonic(el(u), el(v))
            for w in words:
                if wu + wv + y_weight(w) > 5:
                    continue
                triples += 1
                ok = ok and harmonic(left, el(w)) == harmonic(el(u), harmonic(el(v), el(w)))
    report(2, ok, f"harmonic product commutative/associative on {pairs} pairs "
                  f"and {triples} triples of total weight <= 5 over Z4, exact")


def test_criterion_3_duality():
    result = duality_suite(construct_group([3]), weight_bound=4, n_maps=200,
                           seed=2024)
    consistent = 200 - int(result.residual)
    report(3, result.passed,
           f"multiplicative-iff-grouplike consistent on {consistent}/200 maps "
           f"(constructed multiplicative + deliberately broken), exact")


def test_criterion_4_regularization_oracle():
    group = construct_group([2])
    one = group.identity()
    h0_words = [w for w in x_words_up_to(group.elements(), 3)
                if w and x_word_in_h0(w)]
    checked = 0
    ok = True
    for m in range(4):
        for w in h0_words:
            got = bar_reg_T(elem(group, *((one,) * m + w)))
            head, rest = w[0], w[1:]
            levels: dict = {}
            for k in range(m + 1):
                l = m - k
                for word, count in oracle_shuffle_words((one,) * k, rest).items():
                    level = levels.setdefault(l, {})
                    key = (head,) + word
                    level[key] = level.get(key, 0) + Fraction(
                        (-1) ** k * count, math.factorial(l))
            expected = TPolynomial.make({
                l: AlgebraElement.make(RATIONAL, "x", group, words)
                for l, words in levels.items()})
            checked += 1
            ok = ok and got.coeffs == expected.coeffs
    report(4, ok, f"shuffle-division regularization equals the closed-form "
                  f"expansion on {checked} (m, word) cases, exact")


def test_criterion_5_rho_sigma_generating_identities():
    group = construct_group([4])
    one = group.identity()
    ps = power_structure(group, 2)
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    table = {}
    for n in range(2, 9):
        table[(X0,) * (n - 1) + (one,)] = Fraction(primes[n - 2])
    for i, g in enumerate(k for k in ps.kernel if not k.is_identity):
        table[(g,)] = Fraction(primes[7 + i])
    Z = TableZMap(RATIONAL, group, table)

    # independent expansion of the comparison series: naive exp via powers
    log_series = [Fraction(0)] * 9
    for n in range(2, 9):
        log_series[n] = Fraction((-1) ** n, n) * table[(X0,) * (n - 1) + (one,)]
    gamma_fwd = [Fraction(0)] * 9
    gamma_fwd[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * 8
    for k in range(1, 9):
        nxt = [Fraction(0)] * 9
        for i, c in enumerate(power):
            for j, d in enumerate(log_series):
                if i + j < 9:
                    nxt[i + j] += c * d
        power = nxt
        for i in range(9):
            gamma_fwd[i] += power[i] / math.factorial(k)

    ok = True
    for l in range(9):
        monomial = TPolynomial.make({l: Fraction(1, math.factorial(l))})
        got = rho_apply(Z, monomial)
        expected = TPolynomial.make({
            l - j: gamma_fwd[j] * Fraction(1, math.factorial(l - j))
            for j in range(l + 1)})
        ok = ok and got.coeffs == expected.coeffs
        # each T^0 coefficient above is gamma_fwd[l]; the inverse undoes it
        ok = ok and rho_apply(Z, got, inverse=True).coeffs == monomial.coeffs

    delta1 = sum(table[(g,)] for g in ps.kernel if not g.is_identity)
    for l in range(9):
        monomial = TPolynomial.make({l: Fraction(1, math.factorial(l))})
        got = sigma_apply(Z, ps.kernel, monomial)
        expected = TPolynomial.make({
            l - j: delta1 ** j * Fraction(1, math.factorial(j) * math.factorial(l - j))
            for j in range(l + 1)})
        ok = ok and got.coeffs == expected.coeffs
    report(5, ok, "rho/sigma action tables match the independently expanded "
                  "generating series at every u-order <= 8, exact")


def test_criterion_6_eds_dmr_coefficient_equality():
    Z = NumericZMap(2, tolerance=1e-5)
    result = eds_dmr_equality_check(Z, 4)
    report(6, result.passed and result.residual <= 1e-5,
           f"both corrected series agree on every Y-word of weight <= 4 at "
           f"N=2, max residual {result.residual:.2e} <= 1e-5 ({result.detail})")


def test_criterion_7_dmr_membership():
    residuals = []
    ok = True
    for level in (1, 2):
        Z = NumericZMap(level, tolerance=1e-5)
        checks = dmr_check(phi_from_Z(Z, 4))
        ok = ok and all(c.passed for c in checks)
        residuals.append(max(c.residual for c in checks))
    report(7, ok and max(residuals) <= 1e-5,
           f"numeric series is double-shuffle grouplike through degree 4 at "
           f"N=1,2; worst residual {max(residuals):.2e} <= 1e-5")


def test_criterion_8_dmrd_numeric():
    Z = NumericZMap(2, tolerance=1e-5)
    phi = phi_from_Z(Z, 3)
    result = dmrd_check(phi, power_structure(Z.group, 2))
    li2_one = polylog_numeric(PolylogQuery((2,), (0,), 2)).value
    li2_minus = polylog_numeric(PolylogQuery((2,), (1,), 2)).value
    scalar_residual = abs(li2_one - 2 * (li2_one + li2_minus))
    report(8, result.passed and result.residual <= 1e-5
           and scalar_residual <= 1e-6,
           f"distribution condition at N=2, d=2 through degree 3 "
           f"(residual {result.residual:.2e} <= 1e-5) and scalar instance "
           f"residual {scalar_residual:.2e} <= 1e-6")


def test_criterion_9_zhao_weight_two():
    Z = NumericZMap(4, tolerance=1e-5)
    cells = zhao_case_table(Z, Z.group, 2)
    worst = max(c.residual for c in cells)
    ok = all(c.passed for c in cells) and worst <= 1e-5
    report(9, ok, f"all {len(cells)} case-table cells equal as T-polynomials "
                  f"at N=4, d=2; worst per-coefficient residual {worst:.2e} <= 1e-5")


def test_criterion_10_numeric_anchors():
    # independent scalar-series oracles
    m = 10 ** 6
    n = np.arange(1, m + 1, dtype=np.float64)
    direct = float(np.sum(1.0 / n ** 2))
    tail_bound = 1.0 / m  # integral bound for the dropped tail
    engine_one = polylog_numeric(PolylogQuery((2,), (0,), 1)).value
    ok_one = (abs(engine_one - math.pi ** 2 / 6) <= 1e-6
              and abs(engine_one - direct) <= tail_bound + 1e-9)
    alternating = float(np.sum((-1.0) ** n / n ** 2))
    engine_minus = polylog_numeric(PolylogQuery((2,), (1,), 2)).value
    ok_minus = (abs(engine_minus - (-math.pi ** 2 / 12)) <= 1e-6
                and abs(engine_minus - alternating) <= 1.0 / m ** 2 + 1e-9)

    # weight-two finite double shuffle identity at N=3
    level = 3
    worst = 0.0
    for a1 in (1, 2):
        for a2 in (1, 2):
            def v(ks, rs):
                return polylog_numeric(PolylogQuery(ks, rs, level)).value
            stuffle = (v((1, 1), (a1, a2)) + v((1, 1), (a2, a1))
                       + v((2,), ((a1 + a2) % level,)))
            shuffle_side = (v((1, 1), (a1, (a2 - a1) % level))
                            + v((1, 1), (a2, (a1 - a2) % level)))
            worst = max(worst, abs(stuffle - shuffle_side))
    report(10, ok_one and ok_minus and worst <= 1e-5,
           f"depth-one anchors within 1e-6 of pi^2/6 and -pi^2/12 (and of "
           f"independent partial-sum oracles); weight-two double shuffle at "
           f"N=3 residual {worst:.2e} <= 1e-5")


def test_criterion_11_dmr_membership_weight_five_and_six():
    worst_residual, worst_bound = 0.0, 0.0
    ok = True
    for level, degree in ((2, 5), (3, 5), (2, 6)):
        Z = NumericZMap(level, tolerance=1e-5)
        checks = dmr_check(phi_from_Z(Z, degree))
        ok = ok and all(c.passed for c in checks)
        worst_residual = max(worst_residual, *(c.residual for c in checks))
        worst_bound = max(worst_bound, *(v.tail_bound for v in Z._cache.values()))
    report(11, ok and worst_residual <= 1e-5 and worst_bound <= 1e-10,
           f"numeric series is double-shuffle grouplike at N=2,3 through degree 5 "
           f"and at N=2 through degree 6; worst residual {worst_residual:.2e} "
           f"<= 1e-5, every value's tail bound <= {worst_bound:.2e} <= 1e-10")
