"""Nested-sum engine: anchors, self-consistency, identity suites."""

import math
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import cyclozeta

from conftest import em_tail_oracle, oracle_nested_sum
from cyclozeta import numeval
from cyclozeta.errors import DivergentSeriesError, NotInH0Error
from cyclozeta.numeval import (NumericZMap, PolylogQuery, numeric_relation_suite,
                               polylog_numeric, word_to_query)
from cyclozeta.relations import regdist_full_check
from cyclozeta.words import X0


def li(ks, residues, level):
    return polylog_numeric(PolylogQuery(tuple(ks), tuple(residues), level))


ZETA_2 = math.pi ** 2 / 6
ZETA_3 = 1.2020569031595942854
ZETA_5 = 1.0369277551433699263


class TestAnchors:
    def test_li2_at_one(self):
        result = li([2], [0], 1)
        assert abs(result.value - math.pi ** 2 / 6) < 1e-6

    def test_li2_at_minus_one(self):
        result = li([2], [1], 2)
        assert abs(result.value - (-math.pi ** 2 / 12)) < 1e-6

    def test_li1_at_minus_one(self):
        result = li([1], [1], 2)
        assert abs(result.value - (-math.log(2))) < 1e-6

    def test_against_partial_sum_oracle(self):
        # the engine value sits within the oracle's integral tail bound
        m = 10 ** 6
        partial = oracle_nested_sum((2,), (0,), 1, m)[-1]
        engine = li([2], [0], 1).value
        assert abs(engine - partial) <= 1.0 / m + 1.0 / m ** 2


class TestDepthOneSelfConsistency:
    @pytest.mark.parametrize("k,a,level", [
        (2, 0, 1), (3, 0, 1), (4, 0, 1),
        (2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 3), (2, 1, 4),
    ])
    def test_engine_matches_direct_summation(self, k, a, level):
        m = 400_000
        sums = oracle_nested_sum((k,), (a,), level, m)
        if a % level == 0:
            oracle = sums[-1] + em_tail_oracle(k, m)
        else:
            # one period-average of the oracle partial sums
            oracle = complex(np.mean(sums[-level:])) if level > 1 else sums[-1]
        engine = li([k], [a], level).value
        assert abs(engine - oracle) < 1e-9


class TestEngineContracts:
    def test_divergent_query_rejected(self):
        with pytest.raises(DivergentSeriesError):
            PolylogQuery((1,), (0,), 3)

    def test_symmetric_expression_invariance(self):
        # stuffle-symmetric combination is symmetric under swapping arguments
        level = 3
        for a1, a2 in [(1, 2), (1, 1), (2, 2)]:
            def symmetric(x, y):
                return (li((1, 1), (x, y), level).value
                        + li((1, 1), (y, x), level).value
                        + li((2,), ((x + y) % level,), level).value)
            assert abs(symmetric(a1, a2) - symmetric(a2, a1)) < 1e-12

    def test_low_precision_flag(self):
        result = polylog_numeric(PolylogQuery((2,), (0,), 1, tolerance=1e-30))
        assert result.low_precision


def _compositions(weight):
    if weight == 0:
        yield ()
        return
    for first in range(1, weight + 1):
        for rest in _compositions(weight - first):
            yield (first,) + rest


def _convergent_queries(level, max_weight):
    return [PolylogQuery(ks, rs, level)
            for weight in range(1, max_weight + 1)
            for ks in _compositions(weight)
            for rs in product(range(level), repeat=len(ks))
            if ks[0] > 1 or rs[0] != 0]


class TestSharedFactors:
    """The factor cache shared by all queries changes no value."""

    LEVELS = [1, 2, 3, 4, 6]

    @staticmethod
    def fingerprint(value):
        # repr tells the signs of zeros apart, which == does not
        return repr(value.value), value.tail_bound, value.low_precision

    @pytest.mark.parametrize("level", LEVELS)
    def test_values_do_not_depend_on_query_order(self, level):
        queries = _convergent_queries(level, 4)
        numeval._g_factor.cache_clear()
        forward = [self.fingerprint(polylog_numeric(q)) for q in queries]
        numeval._g_factor.cache_clear()
        backward = [self.fingerprint(polylog_numeric(q)) for q in reversed(queries)]
        assert forward == backward[::-1]

    @pytest.mark.parametrize("level", LEVELS)
    def test_cached_factor_is_the_computed_one(self, level, monkeypatch):
        cached = numeval._g_factor
        calls = set()

        def recording(letters, y):
            calls.add((letters, y))
            return cached(letters, y)

        monkeypatch.setattr(numeval, "_g_factor", recording)
        cached.cache_clear()
        for query in _convergent_queries(level, 4):
            polylog_numeric(query)
        assert calls
        for letters, y in calls:
            assert repr(cached(letters, y)) == repr(cached.__wrapped__(letters, y))


class TestZcEval:
    def test_zeta_two(self):
        G1 = NumericZMap(1).group
        word = (X0, G1.identity())
        assert abs(NumericZMap(1).eval_word(word) - math.pi ** 2 / 6) < 1e-6

    def test_level_two_letter(self):
        G = NumericZMap(2).group
        word = (X0, G.element(1))
        assert abs(NumericZMap(2).eval_word(word) - (-math.pi ** 2 / 12)) < 1e-6

    def test_depth_two_argument_twist(self):
        # x_{e1} x_{e2} evaluates with second argument e2 - e1
        level = 4
        G = NumericZMap(4).group
        e1, e2 = G.element(1), G.element(3)
        direct = li((1, 1), (1, 2), level).value  # (e1, e2 - e1)
        assert abs(NumericZMap(level).eval_word((e1, e2)) - direct) < 1e-9

    def test_rejects_divergent_word(self):
        Z = NumericZMap(2)
        G = Z.group
        with pytest.raises(NotInH0Error):
            Z.eval_word((G.identity(),))
        with pytest.raises(NotInH0Error):
            Z.eval_word((G.element(1), X0))

    def test_word_to_query_convergence_matches_membership(self):
        G = NumericZMap(2).group
        q = word_to_query((X0, G.identity()), 2)
        assert q.indices == (2,) and q.residues == (0,)

    def test_zmap_caches(self):
        Z = NumericZMap(2)
        w = (X0, Z.group.element(1))
        first = Z.eval_word(w)
        assert Z._cache[w].value == first


class TestIdentitySuites:
    def test_weight_two_level_three(self):
        checks = numeric_relation_suite(NumericZMap(3, 1e-5), 2)
        assert checks and all(c.passed for c in checks)
        assert max(c.residual for c in checks) < 1e-5
        assert {c.name for c in checks} == {"fds"}

    def test_distribution_level_two(self):
        # finite distribution is regdist's T^0 coefficient (TestRegDist in
        # test_relations shows the two residuals are one)
        check = regdist_full_check(NumericZMap(2, 1e-6), 2, 2)
        assert check.passed and check.residual < 1e-6

    def test_level_one_distribution_empty(self):
        checks = numeric_relation_suite(NumericZMap(1, 1e-5), 4)
        assert [(c.name, c.params) for c in checks] == [("fds", "x0xg[0]|x0xg[0]")]
        assert all(c.passed for c in checks)

    def test_one_row_per_unordered_pair(self):
        # both products commute: the identity on v, u is the one on u, v
        checks = numeric_relation_suite(NumericZMap(3, 1e-5), 3)
        pairs = [tuple(c.params.split("|")) for c in checks if c.name == "fds"]
        assert len(pairs) == 21 and all(c.passed for c in checks)
        for n, (u, v) in enumerate(pairs):
            assert (v, u) not in pairs[:n]

    def test_scalar_distribution_instance(self):
        # Li2(1) = 2 (Li2(1) + Li2(-1))
        lhs = li([2], [0], 2).value
        rhs = 2 * (li([2], [0], 2).value + li([2], [1], 2).value)
        assert abs(lhs - rhs) < 1e-6


class TestNumericCorrectionSeries:
    def test_gamma_coefficient_is_half_zeta_two(self):
        # at level one the u^2 coefficient of the comparison series is
        # zeta(2)/2: the T^0 coefficient of rho at T^2/2
        from cyclozeta.regularization import TPolynomial, rho_apply
        Z = NumericZMap(1)
        half_t2 = TPolynomial.make({2: 0.5 + 0j})
        assert abs(rho_apply(Z, half_t2).coeff(0) - 0.8224670) < 1e-6
        assert abs(rho_apply(Z, half_t2, inverse=True).coeff(0) + 0.8224670) < 1e-6

    def test_phi_star_weight_two_coefficient(self):
        from cyclozeta.dmr import phi_from_Z, phi_star
        Z = NumericZMap(1)
        star = phi_star(phi_from_Z(Z, 2))
        coeff = star.coeff(((2, Z.group.identity()),))
        assert abs(coeff - math.pi ** 2 / 6) < 1e-6


class TestHigherWeightAnchor:
    def test_weight_five_duality(self):
        # the nested sum with indices (2,1,1,1) at argument one equals the
        # depth-one weight-five value
        lhs = li((2, 1, 1, 1), (0, 0, 0, 0), 1).value
        rhs = li((5,), (0,), 1).value
        assert abs(lhs - rhs) < 1e-7


class TestCalibration:
    """The stated tail bound holds: error <= bound, and every bound <= 1e-12."""

    @staticmethod
    def assert_within_bound(ks, rs, level, reference):
        result = li(ks, rs, level)
        assert abs(result.value - reference) <= result.tail_bound, (ks, rs, level)
        assert result.tail_bound <= 1e-12 and not result.low_precision

    @pytest.mark.parametrize("level", [1, 2, 3, 4, 6, 7, 12])
    def test_depth_one_against_mpmath(self, level):
        mpmath = pytest.importorskip("mpmath")
        for a in range(level):
            for k in range(1 if a else 2, 6):
                with mpmath.workdps(30):
                    z = mpmath.exp(2j * mpmath.pi * a / level)
                    reference = complex(mpmath.polylog(k, z))
                self.assert_within_bound((k,), (a,), level, reference)

    def test_zeta_2_1_is_zeta_3(self):
        self.assert_within_bound((2, 1), (0, 0), 1, ZETA_3)

    def test_alternating_double_sum(self):
        # Li_{1,1}(-1,-1) = (log^2 2 - zeta(2)) / 2
        self.assert_within_bound((1, 1), (1, 1), 2,
                                 (math.log(2) ** 2 - ZETA_2) / 2)

    def test_zeta_2_1_1_1_is_zeta_5(self):
        assert abs(li((2, 1, 1, 1), (0, 0, 0, 0), 1).value - ZETA_5) <= 1e-13
        self.assert_within_bound((2, 1, 1, 1), (0, 0, 0, 0), 1, ZETA_5)


class TestExternalCrossCheck:
    def test_depth_one_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        cases = [(2, 1, 4), (2, 1, 3), (3, 1, 4), (2, 1, 6)]
        for k, a, level in cases:
            z = complex(mpmath.e ** (2j * mpmath.pi * a / level))
            reference = complex(mpmath.polylog(k, z))
            engine = li((k,), (a,), level).value
            assert abs(engine - reference) < 1e-9


class TestWithoutNumpy:
    def test_polylog_query_runs_without_numpy(self):
        # numpy set to None in sys.modules makes every import of it fail
        code = ("import sys; sys.modules['numpy'] = None\n"
                "from cyclozeta.cli import main\n"
                "sys.exit(main(['polylog', '--N', '2', '--k', '2', '--z', '1']))")
        src = str(Path(cyclozeta.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        value = complex(result.stdout.splitlines()[2].split("\t")[1])
        assert abs(value + math.pi ** 2 / 12) < 1e-12
