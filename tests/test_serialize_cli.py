"""Round-trip formats and the command-line adapters."""

import math
import random
from fractions import Fraction

import pytest

from conftest import combo, elem
from cyclozeta import cli, serialize
from cyclozeta.algebra import shuffle
from cyclozeta.cli import main
from cyclozeta.errors import ParseError
from cyclozeta.groups import construct_group, divisors_of_order
from cyclozeta.numeval import NumericZMap, PolylogValue
from cyclozeta.regularization import bar_reg_T
from cyclozeta.rings import COMPLEX, RATIONAL
from cyclozeta.series import Alphabet, TruncatedSeries
from cyclozeta.words import X0, parse_x_word, parse_y_word
from test_regularization import prime_zmap


class TestSerializeRoundTrips:
    def test_series_rational(self, Z2):
        rng = random.Random(0)
        coeffs = {}
        alphabet = Alphabet.x(Z2)
        for w in alphabet.words_up_to(3):
            if rng.random() < 0.6:
                coeffs[w] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        series = TruncatedSeries.make(RATIONAL, alphabet, 3, coeffs)
        back = serialize.parse_series(serialize.format_series(series))
        assert back.terms == series.terms
        assert back.degree_bound == 3 and back.ring == RATIONAL

    def test_series_exact_third(self, Z2):
        alphabet = Alphabet.x(Z2)
        series = TruncatedSeries.make(RATIONAL, alphabet, 1,
                                      {(X0,): Fraction(1, 3)})
        back = serialize.parse_series(serialize.format_series(series))
        assert back.terms[(X0,)] == Fraction(1, 3)

    def test_series_complex(self, Z3):
        alphabet = Alphabet.x(Z3)
        series = TruncatedSeries.make(COMPLEX, alphabet, 2, {
            (X0,): 1.5 - 0.25j,
            (Z3.element(1), Z3.element(2)): complex(math.pi, -1 / 3),
        })
        back = serialize.parse_series(serialize.format_series(series))
        assert back.terms == series.terms  # repr round-trips doubles exactly

    def test_y_series(self, Z3):
        alphabet = Alphabet.y(Z3)
        series = TruncatedSeries.make(RATIONAL, alphabet, 3, {
            ((2, Z3.element(1)), (1, Z3.element(0))): Fraction(-7, 2)})
        back = serialize.parse_series(serialize.format_series(series))
        assert back.terms == series.terms

    @pytest.mark.parametrize("parse, text, message", [
        (serialize.parse_element, "element=Q group=Z3 ring=rational\n0\n", "bad element 'Q'"),
        (serialize.parse_element, "element=X group=Z3 ring=rational\nx0\nxg[1]\n",
         "second body line 'xg[1]'"),
        (serialize.parse_series, "alphabet=X group=Z2 degree=x ring=rational\n",
         "degree=x is not a finite number >= 0"),
        (serialize.parse_series, "alphabet=X group=Z2 degree=-1 ring=rational\n",
         "degree=-1 is not a finite number >= 0"),
        (serialize.parse_series, "alphabet=X group=Z2 degree=1 ring=complex tol=abc\n",
         "tol=abc is not a finite number >= 0"),
        (serialize.parse_series, "alphabet=X group=Z2 degree=1 ring=complex tol=nan\n",
         "tol=nan is not a finite number >= 0"),
        (serialize.parse_series, "alphabet=X group=Z2 degree=1 ring=rational\nx0x0\t1\n",
         "series line 'x0x0\\t1' is beyond degree 1"),
        (serialize.parse_series, "alphabet=X group=Z2 degree=2 ring=rational\nx0\t1\nx0\t2\n",
         "series line 'x0\\t2' repeats its word"),
    ], ids=["element-kind", "element-two-lines", "degree-text", "degree-negative",
            "tol-text", "tol-nan", "word-beyond-degree", "word-repeated"])
    def test_malformed_file_raises_parse_error(self, parse, text, message):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert message in str(info.value)

    def test_element_roundtrip(self, Z3):
        a = combo(Z3, (Fraction(2, 7), (X0, Z3.element(1))), (-1, (Z3.element(2),)))
        back = serialize.parse_element(serialize.format_element(a))
        assert back == a


class TestWordSyntax:
    def test_unclosed_letters_are_parse_errors(self, Z3):
        with pytest.raises(ParseError, match="offset 2"):
            parse_x_word("x0xg[1", Z3)
        with pytest.raises(ParseError, match="offset 7"):
            parse_y_word("y[1,g1]y[2,g2", Z3)


class TestCli:
    def test_product_matches_library(self, Z3, capsys):
        code = main(["product", "--group", "Z3", "--shuffle", "xg[1]", "xg[2]"])
        out = capsys.readouterr().out.strip()
        assert code == 0
        direct = shuffle(elem(Z3, Z3.element(1)), elem(Z3, Z3.element(2)))
        from cyclozeta.algebra import parse_element_combo
        assert parse_element_combo(out, RATIONAL, "x", Z3) == direct
        assert out == "xg[1]xg[2] + xg[2]xg[1]"

    def test_reg_command(self, capsys, tmp_path):
        out_file = tmp_path / "reg.txt"
        code = main(["reg", "--group", "Z2", "xg[0]xg[1]",
                     "--out", str(out_file)])
        printed = capsys.readouterr().out.strip()
        assert code == 0
        assert out_file.read_text().strip() == printed
        G = construct_group([2])
        direct = bar_reg_T(elem(G, G.identity(), G.element(1)))
        assert printed == serialize.format_tpoly(direct, RATIONAL)

    def test_fdt_verify_exit_zero(self, capsys):
        code = main(["fdt-verify", "--group", "Z6", "--d", "2"])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if "\tPASS\t" in l]
        assert len(lines) == 3  # one per h in the square subgroup

    def test_fdt_verify_all_divisors(self, capsys):
        code = main(["fdt-verify", "--group", "Z6"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("PASS") >= 5

    def test_polylog_value(self, capsys):
        code = main(["polylog", "--N", "1", "--k", "2", "--z", "0"])
        out = capsys.readouterr().out
        assert code == 0
        value_text = out.splitlines()[-1].split("\t")[1]
        assert abs(complex(value_text) - math.pi ** 2 / 6) < 1e-6

    def test_polylog_prints_no_negative_zero(self, capsys):
        # a real value prints its imaginary zero as +0j, as every other
        # complex value of the CLI does
        code = main(["polylog", "--N", "2", "--k", "2", "--z", "0"])
        out = capsys.readouterr().out
        assert code == 0
        value_text = out.splitlines()[-1].split("\t")[1]
        assert "-0j" not in value_text
        assert abs(complex(value_text) - math.pi ** 2 / 6) < 1e-6

    def test_duality_quick(self, capsys):
        code = main(["duality-test", "--group", "Z3", "--degree", "3",
                     "--maps", "8"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["duality-test", "--group", "Z3", "--maps", "-1"],
        # at weight one no word pair can show that a broken map is broken
        ["duality-test", "--group", "Z3", "--degree", "1", "--maps", "2"],
    ])
    def test_duality_rejects_populations_it_cannot_judge(self, capsys, argv):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_relation_suite_header(self, capsys):
        code = main(["relation-suite", "--N", "2", "--weight", "2"])
        out, err = capsys.readouterr()
        assert code == 0
        header = out.splitlines()[0]
        for needed in ("group=Z2", "degree=2", "ring=complex", "tol="):
            assert needed in header
        assert out.splitlines()[1] == "check\tparams\tstatus\tresidual\tdetail"

    def test_dmr_check_save_phi_roundtrip(self, capsys, tmp_path):
        phi_path = tmp_path / "phi.tsv"
        code = main(["dmr-check", "--N", "1", "--degree", "3",
                     "--save-phi", str(phi_path)])
        assert code == 0
        series = serialize.parse_series(phi_path.read_text())
        assert series.degree_bound == 3
        one = series.alphabet.group.identity()
        assert abs(series.coeff((X0, one)) - math.pi ** 2 / 6) < 1e-6

    def test_bad_arguments_exit_two(self, capsys):
        code = main(["fdt-verify", "--group", "Zx"])
        assert code == 2
        with pytest.raises(SystemExit) as exc:
            main(["unknown-command"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["product", "--group", "Z3", "--shuffle", "xg[1", "x0"],
        ["reg", "--group", "Z3", "xg[1"],
        ["product", "--group", "Z3", "--harmonic", "y[1,g1", "y[1,g2]"],
    ])
    def test_unclosed_letter_exits_two(self, capsys, argv):
        assert main(argv) == 2
        assert "at offset 0" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["inf", "nan", "infj", "1e999"])
    def test_non_finite_complex_coefficient_exits_two(self, capsys, literal):
        argv = ["product", "--group", "Z3", "--ring", "complex", "--shuffle",
                f"{literal}*xg[1]", "xg[2]"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: complex literal {literal!r} is not finite" in captured.err

    @pytest.mark.parametrize("argv, message", [
        (["polylog", "--N", "2", "--k", "a", "--z", "1"], "--k and --z take"),
        (["polylog", "--N", "2", "--k", "2", "--z", "0.5"], "--k and --z take"),
        (["polylog", "--N", "2", "--k", "", "--z", "1"], "--k and --z take"),
        (["dmrd-check", "--N", "4", "--d", "0"], "d=0 does not divide"),
        # at d = 1 both arrows are identities, so every row passes for any map
        (["zhao-verify", "--N", "4", "--d", "1"], "--d 1 checks nothing"),
        (["regdist", "--N", "4", "--d", "1"], "--d 1 checks nothing"),
        (["dmrd-check", "--N", "4", "--d", "1"], "--d 1 checks nothing"),
        (["fdt-verify", "--group", "Z4", "--d", "1"],
         "--d 1 checks nothing: at d = 1 both arrows are identities"),
        (["dmr-check", "--N", "2", "--degree", "0"], "--degree must be at least 2"),
        (["dmr-check", "--N", "2", "--degree", "1"], "--degree must be at least 2, got 1"),
        (["dmrd-check", "--N", "4", "--degree", "0"], "--degree must be at least 1"),
        (["eds-dmr-check", "--N", "2", "--degree", "0"], "--degree must be at least 1"),
        (["relation-suite", "--N", "3", "--weight", "0"], "--weight must be at least 2"),
        (["relation-suite", "--N", "3", "--weight", "-1"], "--weight must be at least 2"),
        (["relation-suite", "--N", "3", "--weight", "1"], "--weight must be at least 2, got 1"),
        (["regdist", "--N", "2", "--d", "2", "--max-len", "-1"],
         "--max-len must be at least 1"),
        (["dmr-check", "--N", "2", "--degree", "3", "--tol", "nan"],
         "--tol must be a finite number >= 0, got nan"),
        (["dmr-check", "--N", "2", "--degree", "3", "--tol", "inf"],
         "--tol must be a finite number >= 0, got inf"),
        (["zhao-verify", "--N", "2", "--d", "2", "--tol", "-1"],
         "--tol must be a finite number >= 0, got -1.0"),
        (["polylog", "--N", "2", "--k", "2", "--z", "1", "--tol=-inf"],
         "--tol must be a finite number >= 0, got -inf"),
        # suites with no row: Z1 has no divisor d >= 2, and at level one the
        # shortest convergent word, x0 x1, leaves no pair inside weight two
        (["dmrd-check", "--N", "1"], "the input leaves the suite no row to check"),
        (["fdt-verify", "--group", "Z1"], "the input leaves the suite no row to check"),
        (["relation-suite", "--N", "1", "--weight", "2"],
         "the input leaves the suite no row to check"),
    ], ids=["k-letter", "z-float", "k-empty", "d-zero", "zhao-d-one",
            "regdist-d-one", "dmrd-d-one", "fdt-d-one", "dmr-degree-zero",
            "dmr-degree-one", "dmrd-degree-zero", "eds-dmr-degree-zero",
            "weight-zero", "weight-negative", "weight-one", "max-len-negative",
            "tol-nan", "tol-inf", "tol-negative", "polylog-tol-minus-inf",
            "dmrd-no-divisor", "fdt-trivial-group", "relation-suite-level-one"])
    def test_bad_numeric_input_exits_two(self, capsys, argv, message):
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_tolerance_in_config_exits_two(self, capsys, tmp_path, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"tol = {value}\n")
        argv = ["polylog", "--N", "2", "--k", "2", "--z", "1", "--config", str(cfg)]
        assert main(argv) == 2
        assert "error: --tol must be a finite number >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "1e-300"])
    def test_zero_and_tiny_tolerances_are_accepted(self, capsys, tol):
        assert main(["polylog", "--N", "2", "--k", "2", "--z", "1", "--tol", tol]) == 0
        assert f"tol={float(tol)}" in capsys.readouterr().out

    def test_spot_degree_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["zhao-verify", "--N", "2", "--d", "2", "--spot-degree", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --spot-degree" in capsys.readouterr().err

    def test_check_failure_exit_one(self, capsys):
        # an impossibly tight tolerance forces FAIL rows and exit 1
        code = main(["dmrd-check", "--N", "2", "--degree", "2", "--d", "2",
                     "--tol", "1e-300"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out


class TestCliNumericCommands:
    def test_eds_dmr_check_smoke(self, capsys):
        code = main(["eds-dmr-check", "--N", "1", "--degree", "3"])
        out = capsys.readouterr().out
        assert code == 0 and "eds-dmr-equality" in out

    def test_zhao_verify_smoke(self, capsys):
        code = main(["zhao-verify", "--N", "2", "--d", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("zhao-cell") == 3  # x0 and 1 in each slot, not x0x0

    def test_regdist_smoke(self, capsys):
        code = main(["regdist", "--N", "2", "--d", "2", "--max-len", "2"])
        out = capsys.readouterr().out
        assert code == 0 and "regdist-T-level" in out

    def test_dmrd_all_divisors(self, capsys):
        code = main(["dmrd-check", "--N", "2", "--degree", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("dmrd\t") == 1  # d = 2; d = 1 compares phi with itself


def _parse_worst(check: str, detail: str, group):
    """The word a FAIL row's detail names, parsed back: a T power for a zhao
    cell, else one word."""
    assert detail.startswith("worst=")
    text = detail[len("worst="):]
    assert text
    if check == "zhao-cell":
        assert text.startswith("T^")
        return int(text[2:])
    if check == "eds-dmr-equality":
        return parse_y_word(text, group)
    return parse_x_word(text, group)


class TestCliWorstDetail:
    @pytest.mark.parametrize("argv", [
        ["eds-dmr-check", "--N", "2", "--degree", "3"],
        ["regdist", "--N", "2", "--d", "2", "--max-len", "2"],
        ["zhao-verify", "--N", "4", "--d", "2"],
    ])
    def test_fail_rows_name_a_word(self, argv, capsys):
        code = main(argv + ["--tol", "1e-300"])
        out = capsys.readouterr().out
        assert code == 1
        group = construct_group([int(argv[2])])
        failed = [line.split("\t") for line in out.splitlines()[2:]
                  if "\tFAIL\t" in line]
        assert failed
        for row in failed:
            _parse_worst(row[0], row[4], group)

    def test_dmrd_detail_names_the_worst_word(self, capsys):
        code = main(["dmrd-check", "--N", "2", "--degree", "2", "--tol", "1e-300"])
        out = capsys.readouterr().out
        assert code == 1
        group = construct_group([2])
        failed = [line.split("\t") for line in out.splitlines()[2:]
                  if "\tFAIL\t" in line]
        assert failed
        for row in failed:
            assert row[4].startswith("worst=")
            word = parse_x_word(row[4][len("worst="):], group)
            assert 1 <= len(word) <= 2

    def test_dmr_detail_names_the_worst_pair(self, capsys):
        main(["dmr-check", "--N", "2", "--degree", "3", "--tol", "1e-300"])
        rows = {row[0]: row for row in (line.split("\t") for line in
                                         capsys.readouterr().out.splitlines()[2:])}
        group = construct_group([2])
        for check, parse in (("dmr-shuffle-grouplike", parse_x_word),
                             ("dmr-harmonic-grouplike", parse_y_word)):
            u, v = rows[check][4][len("worst="):].split("|")
            assert parse(u, group) and parse(v, group)


class PrimeNumericZMap(NumericZMap):
    """``prime_zmap``'s values as a numeric map, each with tail bound 0."""

    def __init__(self, level, tol):
        super().__init__(level, tol)
        self.primes = prime_zmap(self.group, 3).table

    def eval_word_detailed(self, word):
        return PolylogValue(complex(self.primes[word]), 0.0, False)


class TestEveryRowCanFail:
    """Each numeric suite, run through the CLI's one map seam on distinct
    primes (``prime_zmap``, which satisfies no relation), prints only FAIL
    rows: a row that passed there would pass for every linear map."""

    # its two sides apply one correction to the same values; the row needs
    # a harmonic regularization of its own (ROADMAP item 3)
    OPEN = {"eds-dmr-equality"}

    @staticmethod
    def _commands(order):
        n = str(order)
        divisors = [str(d) for d in divisors_of_order(construct_group([order])) if d >= 2]
        return ([[name, "--N", n, "--degree", "3"]
                 for name in ("dmr-check", "dmrd-check", "eds-dmr-check")]
                + [["zhao-verify", "--N", n, "--d", d] for d in divisors]
                + [["regdist", "--N", n, "--d", d, "--max-len", "2"] for d in divisors]
                + [["relation-suite", "--N", n, "--weight", "3"]])

    @pytest.mark.parametrize("order", [2, 3, 4, 6])
    def test_every_row_fails_on_independent_values(self, monkeypatch, capsys, order):
        monkeypatch.setattr(cli, "NumericZMap", PrimeNumericZMap)
        passed = set()
        for argv in self._commands(order):
            main(argv)
            rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()[2:]]
            assert rows, argv
            passed |= {row[0] for row in rows if row[2] != "FAIL"}
        assert passed == self.OPEN


class TestCommandConfig:
    def test_config_file_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("subcommand = dmr-check\ndegree = 2\ntol = 1e-4\n")
        code = main(["dmr-check", "--N", "1", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        # both config values reached the meta row
        assert "degree=2" in out and "tol=0.0001" in out

    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-4\n")
        code = main(["polylog", "--N", "1", "--k", "2", "--z", "0",
                     "--tol", "1e-7", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0 and "tol=1e-07" in out

    def test_config_defaults_do_not_outlive_their_call(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-4\n")
        argv = ["polylog", "--N", "1", "--k", "2", "--z", "0"]
        assert main(argv + ["--config", str(cfg)]) == 0
        assert "tol=0.0001" in capsys.readouterr().out
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "tol=0.0001" not in out and "tol=1e-05" in out

    @pytest.mark.parametrize("argv, line, message", [
        (["dmr-check", "--N", "2"], "degree = 4.5",
         "argument --degree: invalid int value: '4.5'"),
        (["duality-test"], "maps = 2.0", "argument --maps: invalid int value: '2.0'"),
    ], ids=["degree-float", "maps-float"])
    def test_config_values_go_through_the_flag_type(self, capsys, tmp_path,
                                                   argv, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--config", str(cfg)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tol = 1e-4\ncutoff = 2000\n")
        code = main(["polylog", "--N", "1", "--k", "2", "--z", "0",
                     "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "cutoff" in captured.err
