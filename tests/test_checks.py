"""The check record and the fold that decides every residual check."""

from fractions import Fraction

import pytest

from cyclozeta.checks import Check, differences, fold
from cyclozeta.rings import RATIONAL, ComplexRing
from cyclozeta.words import X0, format_x_word


class TestFold:
    def test_worst_word_is_the_argmax(self, Z2):
        g = Z2.element(1)
        residuals = [((X0, g), Fraction(1, 2)), ((g,), Fraction(-3)),
                     ((g, g), Fraction(2))]
        check = fold("c", "p", RATIONAL, residuals, format_x_word)
        assert check.residual == 3.0
        assert check.detail == "worst=xg[1]"
        assert not check.passed

    def test_first_word_wins_a_tie(self, Z2):
        g = Z2.element(1)
        check = fold("c", "p", RATIONAL, [((g,), 1), ((X0, g), -1)], format_x_word)
        assert check.detail == "worst=xg[1]"

    def test_exact_zero_passes_without_a_word(self, Z2):
        g = Z2.element(1)
        check = fold("c", "p", RATIONAL, [((g,), Fraction(0)), ((X0, g), 0)],
                     format_x_word)
        assert check.passed and check.residual == 0 and check.detail == ""

    def test_pass_means_zero_in_the_ring(self, Z2):
        ring = ComplexRing(1e-3)
        g = Z2.element(1)
        small = fold("c", "p", ring, [((g,), 1e-4j)], format_x_word)
        assert small.passed and small.residual == 1e-4
        assert small.detail == "worst=xg[1]"  # a PASS row still names its worst
        large = fold("c", "p", ring, [((g,), 1e-4), ((X0, g), 2e-3)], format_x_word)
        assert not large.passed and large.detail == "worst=x0xg[1]"
        # a nonzero rational residual fails however small it is
        tiny = fold("c", "p", RATIONAL, [((g,), Fraction(1, 10 ** 30))], format_x_word)
        assert not tiny.passed

    def test_empty_input_passes(self):
        check = fold("c", "p", RATIONAL, [], format_x_word)
        assert check == Check("c", "p", True, 0.0, "words=0")

    def test_cancelled_coefficients_were_compared(self, Z2):
        g = Z2.element(1)
        same = fold("c", "p", RATIONAL, differences({(g,): 1}, {(g,): 1}), format_x_word)
        assert same == Check("c", "p", True, 0.0, "")
        # the keys of the left side come first, so a tie names a left word
        tie = fold("c", "p", RATIONAL, differences({(g,): 1}, {(X0, g): 1, (g,): 2}),
                   format_x_word)
        assert not tie.passed and tie.detail == "worst=xg[1]"

    @pytest.mark.parametrize("ring, zeros, value", [
        (RATIONAL, (Fraction(0), Fraction(0)), Fraction(-3, 4)),
        (ComplexRing(1e-3), (0j, -0j), 2e-3 - 1e-3j),
    ], ids=["rational", "complex"])
    def test_exact_zeros_count_but_change_nothing(self, Z2, ring, zeros, value):
        """Zeros before and after a nonzero residual are counted, and the
        row reads as if only the nonzero residual had been compared."""
        g = Z2.element(1)
        alone = fold("c", "p", ring, [((X0, g), value)], format_x_word)
        for zero in zeros:
            rows = [((g,), zero), ((X0, g), value), ((g, g), zero)]
            check = fold("c", "p", ring, iter(rows), format_x_word)
            assert check == alone
            assert not check.passed and check.detail == "worst=x0xg[1]"
            assert check.residual == ring.abs(value)
            # only the zeros: nothing is named, and the row still counts them
            assert fold("c", "p", ring, [((g,), zero)], format_x_word) == Check(
                "c", "p", True, 0.0, "")

    def test_generator_input(self, Z2):
        g = Z2.element(1)
        check = fold("c", "p", RATIONAL, ((w, 1) for w in [(g,)]), format_x_word)
        assert not check.passed and check.detail == "worst=xg[1]"


class TestCheckRow:
    def test_str_is_one_tsv_row(self):
        row = str(Check("dmrd", "N=2 d=2", False, 1.5e-9, "worst=xg[0]"))
        assert row == "dmrd\tN=2 d=2\tFAIL\t1.500000e-09\tworst=xg[0]"

    def test_pass_row_with_empty_detail(self):
        assert str(Check("c", "p", True, 0.0)).split("\t") == [
            "c", "p", "PASS", "0.000000e+00", ""]
