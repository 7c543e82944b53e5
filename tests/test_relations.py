"""Relation elements, the exact identities between their sides, the
depth-two decomposition, and the weight-two regularized distribution
verifier."""

import contextlib
import io

import pytest

from conftest import combo, elem
from cyclozeta import cli, relations
from cyclozeta.algebra import harmonic, qg_apply, y_to_x
from cyclozeta.errors import InvalidArgumentError
from cyclozeta.groups import (construct_group, divisors_of_order, parse_group,
                              power_structure)
from cyclozeta.numeval import NumericZMap
from cyclozeta.regularization import bar_reg_T
from cyclozeta.relations import (_combination, _fdtd1_families, _fdtd1_report,
                                 _regdist_residuals, distribution_sides, fds_element,
                                 fds_sides, fdt1_element, fdt2_element, fdtd1_grid,
                                 fdtd1_identity_check, rds_element, regdist_full_check,
                                 sharp_sides, zhao_case_table)
from cyclozeta.words import X0, x_word_in_h0, x_words_up_to
from test_acceptance import invariant_factor_lists
from test_regularization import prime_zmap


def every_divisor(group):
    """Every divisor d >= 2 of the group's order, as ``fdt-verify`` without ``--d``."""
    return [d for d in divisors_of_order(group) if d >= 2]


class TestBuildRelation:
    def test_fdt1_z2(self, Z2):
        ps = power_structure(Z2, 2)
        one, sigma = Z2.identity(), Z2.element(1)
        rel = fdt1_element(ps, one)
        assert rel == combo(Z2, (1, (X0, one)), (2, (X0, sigma)))

    def test_rds(self, Z2):
        sigma, one = Z2.element(1), Z2.identity()
        rel = rds_element(sigma)
        assert rel == combo(Z2, (1, (X0, sigma)), (1, (sigma, sigma)),
                            (-1, (sigma, one)))

    def test_fds_z2_diagonal(self, Z2):
        sigma, one = Z2.element(1), Z2.identity()
        rel = fds_element(sigma, sigma)
        assert rel == combo(Z2, (1, (X0, one)), (2, (sigma, one)),
                            (-2, (sigma, sigma)))

    def test_all_kinds_stay_convergent(self):
        # every element the fdt-verify grid builds, |K_d| != d included
        def convergent(rel):
            return all(x_word_in_h0(w) for w in rel.terms)

        for spec in ("12", "2x2", "2x6", "4x4"):
            group = parse_group(spec)
            nontrivial = [g for g in group.elements() if not g.is_identity]
            for d in divisors_of_order(group):
                if d < 2:
                    continue
                ps = power_structure(group, d)
                for h in ps.subgroup:
                    assert convergent(fdt1_element(ps, h))
                    for h2 in ps.subgroup:
                        if not h.is_identity:
                            assert convergent(fdt2_element(ps, h, h2))
            for g1 in nontrivial:
                for g2 in nontrivial:
                    assert convergent(fds_element(g1, g2))
                assert convergent(rds_element(g1))

    def test_parameter_validation(self, Z4):
        one = Z4.identity()
        with pytest.raises(InvalidArgumentError):
            rds_element(one)
        with pytest.raises(InvalidArgumentError):
            fds_element(one, Z4.element(1))
        ps = power_structure(Z4, 2)
        with pytest.raises(InvalidArgumentError):
            fdt2_element(ps, one, Z4.element(2))
        with pytest.raises(InvalidArgumentError):
            fdt1_element(ps, Z4.element(1))  # not a square


class TestRelationSides:
    """The two sides of each finite relation differ exactly by its
    hand-written element, which stays the independent reference."""

    @pytest.mark.parametrize("order", [4, 6, 12])
    def test_fds_sides_differ_by_fds_element(self, order):
        group = construct_group([order])
        nontrivial = [g for g in group.elements() if not g.is_identity]
        for g1 in nontrivial:
            for g2 in nontrivial:
                stuffle, shuffled = fds_sides(group, (g1,), (g2,))
                assert stuffle - shuffled == fds_element(g1, g2)

    # |K_2| = 4 != d on each noncyclic group here, and |K_d| != d at some
    # larger d as well (2x4 at d = 4, 2x6 at d = 6, 4x4 at d = 4 and 8)
    @pytest.mark.parametrize("spec", ["4", "6", "12", "2x2", "2x4", "2x6", "4x4"])
    def test_sharp_sides_differ_by_fdt_elements(self, spec):
        group = parse_group(spec)
        for d in divisors_of_order(group):
            ps = power_structure(group, d)
            for h in ps.subgroup:
                lower, upper = sharp_sides(ps, elem(group, X0, h))
                assert lower - upper == fdt1_element(ps, h)
                if h.is_identity:
                    continue  # FDT2 needs h1 != 1
                for h2 in ps.subgroup:
                    lower, upper = sharp_sides(ps, elem(group, h, h2))
                    assert lower - upper == fdt2_element(ps, h, h2)

    @pytest.mark.parametrize("spec", ["Z4", "Z6", "2x2"])
    def test_regularized_harmonic_product_is_rds_element(self, spec):
        # the harmonic product x1 * x_g, regularized with x1 -> T, is the RDS
        # element plus T x_g: the regularized double shuffle relation as an
        # exact word identity
        group = parse_group(spec)
        x1 = elem(group, (1, group.identity()), kind="y")
        for g in group.elements():
            if g.is_identity:
                continue
            product = qg_apply(y_to_x(harmonic(x1, elem(group, (1, g), kind="y"))),
                               inverse=True)
            assert bar_reg_T(product).coeffs == {0: rds_element(g),
                                                 1: elem(group, g)}


class TestFDTd1:
    def test_z2_identity_branch(self, Z2):
        report = fdtd1_identity_check(Z2, 2, Z2.identity())
        assert report.passed
        assert report.lhs == combo(Z2, (1, (X0, Z2.identity())),
                                   (2, (X0, Z2.element(1))))

    def test_z4_nonidentity_branch(self, Z4):
        h = Z4.element(2)  # the square of the generator
        report = fdtd1_identity_check(Z4, 2, h)
        assert report.passed
        assert report.difference.terms == {}

    def test_z6_d3(self, Z6):
        report = fdtd1_identity_check(Z6, 3, Z6.identity())
        assert report.passed

    def test_noncyclic_kernel_passes(self):
        # |K_2| = 4 on the Klein four-group: the x0 factor is 4, not d = 2
        klein = construct_group([2, 2])
        report = fdtd1_identity_check(klein, 2, klein.identity())
        assert report.passed
        assert report.lhs == combo(klein, (-1, (X0, klein.identity())),
                                   *((4, (X0, g)) for g in klein.elements()))

    def test_grid_z12(self, Z12):
        # K_d has order d on a cyclic group, so no two cells share an identity
        grid = fdtd1_grid(Z12, [2, 3, 4, 6, 12])
        assert grid and all(r.passed for _, r in grid)
        assert all(ds == (r.d,) for ds, r in grid)
        assert {r.d for _, r in grid} == {2, 3, 4, 6, 12}

    def test_grid_has_one_row_per_identity(self):
        # the 131 cells (G, d, h) over the abelian groups of order <= 16 hold
        # 116 distinct identities; the 15 repeats are h = 1 at divisors with
        # the same K_d, as d = 4, 8, 16 on 4x4
        rows = cells = 0
        for n in range(2, 17):
            for factors in invariant_factor_lists(n):
                group = construct_group(factors)
                grid = fdtd1_grid(group, every_divisor(group))
                rows += len(grid)
                cells += sum(len(ds) for ds, _ in grid)
                sides = [(r.lhs, r.rhs) for _, r in grid]
                assert all(a != b for i, a in enumerate(sides) for b in sides[:i])
        assert (rows, cells) == (116, 131)

    def test_grid_builds_each_power_structure_once(self, monkeypatch):
        # one power_structure per (G, d) with d >= 2 over the 25 abelian
        # groups of order <= 16, the trivial one included; each identity
        # reuses the structure of its first divisor
        built = []

        def counted(group, d):
            built.append((group.invariant_factors, d))
            return power_structure(group, d)

        monkeypatch.setattr(relations, "power_structure", counted)
        groups = [construct_group(factors) for n in range(1, 17)
                  for factors in invariant_factor_lists(n)]
        assert len(groups) == 25
        for group in groups:
            fdtd1_grid(group, every_divisor(group))
        assert len(built) == len(set(built)) == 65

    def test_fdt_verify_at_one_divisor_builds_one_power_structure(self, monkeypatch):
        # each row reuses the command's structure: 4 rows at 4x4, d=2
        built = []

        def counted(group, d):
            built.append((group.invariant_factors, d))
            return power_structure(group, d)

        monkeypatch.setattr(relations, "power_structure", counted)
        monkeypatch.setattr(cli, "power_structure", counted)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["fdt-verify", "--group", "4x4", "--d", "2"]) == 0
        assert built == [((4, 4), 2)]


class TestFDTd1OneFormula:
    """The decomposition is one sum of five piece families for every h."""

    @staticmethod
    def cells(group):
        for d in divisors_of_order(group):
            if d >= 2:
                ps = power_structure(group, d)
                yield from ((ps, h) for h in ps.subgroup)

    def test_identity_cell_is_the_kernel_sum(self):
        # at h = 1: FDS over K_d* x K_d* plus twice RDS over K_d*, built
        # from the public elements one addition at a time
        for n in range(2, 17):
            for factors in invariant_factor_lists(n):
                group = construct_group(factors)
                for ps, h in self.cells(group):
                    if not h.is_identity:
                        continue
                    nontrivial = [g for g in ps.kernel if not g.is_identity]
                    expected = combo(group)
                    for g1 in nontrivial:
                        for g2 in nontrivial:
                            expected = expected + fds_element(g1, g2)
                    for g in nontrivial:
                        expected = expected + rds_element(g).scale(2)
                    assert _fdtd1_report(ps, h).rhs == expected

    @pytest.mark.parametrize("spec", ["Z6", "Z12", "2x2", "4x4"])
    def test_every_family_is_needed(self, spec):
        # dropping any one of the five families breaks every cell
        group = parse_group(spec)
        for ps, h in self.cells(group):
            families = _fdtd1_families(ps, h)
            assert len(families) == 5
            for i in range(5):
                rest = families[:i] + families[i + 1:]
                rhs = _combination(group, [(sign * c, word) for family in rest
                                           for sign, words in family
                                           for c, word in words])
                assert rhs != fdt1_element(ps, h), (ps.d, h, i)


class TestZhaoWeightTwo:
    def test_level_two_cells(self):
        Z = NumericZMap(2)
        cells = zhao_case_table(Z, 2)
        assert {c.name for c in cells} == {"zhao-cell"}
        assert len(cells) == 3  # subgroup is trivial: choices are x0 and 1, not x0x0
        assert all(c.passed for c in cells)

    def test_x0_x0_cell_is_absent(self):
        # both sides regularize to 0 for every map, so the cell could not fail
        Z = NumericZMap(2)
        ps = power_structure(Z.group, 2)
        assert "d=2 cell=x0x0" not in {c.params for c in zhao_case_table(Z, 2)}
        lhs, rhs = distribution_sides(Z, ps, elem(Z.group, X0, X0, ring=Z.ring))
        assert not lhs.coeffs and not rhs.coeffs

    def test_rows_are_told_apart(self):
        # Z6 has two nontrivial squares, so a cell must name its letters
        Z = NumericZMap(6)
        rows = [(c.name, c.params) for c in zhao_case_table(Z, 2)]
        assert len(rows) == len(set(rows)) == 4 * 4 - 1
        assert ("zhao-cell", "d=2 cell=xg[2]xg[4]") in rows

    def test_finite_distribution_hypotheses_are_in_regdist_range(self, monkeypatch):
        # the weight-one and depth-two finite distribution words of every d
        # are words regdist --max-len 2 compares, where their T^0 residual is
        # the finite relation (TestRegDist)
        compared = set()

        def recorded(Z, ps, word):
            compared.add(word)
            return iter(())

        monkeypatch.setattr(relations, "_regdist_residuals", recorded)
        for level in (4, 6, 12):
            Z = NumericZMap(level)
            for d in divisors_of_order(Z.group):
                if d < 2:
                    continue
                compared.clear()
                regdist_full_check(Z, d, 2)
                ps = power_structure(Z.group, d)
                for h in ps.subgroup:
                    if h.is_identity:
                        continue
                    for word in [(h,)] + [(h, h2) for h2 in ps.subgroup]:
                        assert word in compared, (level, d, word)


class TestRegDist:
    def test_divisor_one_trivial_for_any_map(self, Z4):
        Z = prime_zmap(Z4, 3)
        check = regdist_full_check(Z, 1, 3)
        assert check.passed and check.residual == 0
        assert check.name == "regdist-T-level"

    def test_broken_map_fails_and_names_a_word(self, Z4):
        # independent prime values satisfy no distribution relation at d = 2
        check = regdist_full_check(prime_zmap(Z4, 3), 2, 3)
        assert not check.passed and check.residual > 0
        assert check.detail == "worst=xg[2]xg[2]x0"

    @pytest.mark.parametrize("level", [2, 3, 4, 6])
    def test_finite_distribution_is_the_t0_residual(self, level):
        # on a convergent word reg and sigma are the identity: the relation
        # has no T power but T^0, whose residual is the finite relation's
        group = construct_group([level])
        Z = prime_zmap(group, 3)
        for d in divisors_of_order(group):
            if d < 2:
                continue
            ps = power_structure(group, d)
            for word in x_words_up_to(ps.subgroup, 3):
                if not word or not x_word_in_h0(word):
                    continue
                lower, upper = sharp_sides(ps, elem(group, *word))
                assert list(_regdist_residuals(Z, ps, word)) == [
                    ("T^0", Z.eval_element(lower) - Z.eval_element(upper))]

    def test_numeric_level_two(self):
        Z = NumericZMap(2)
        check = regdist_full_check(Z, 2, 3)
        assert check.passed and check.residual < 1e-5

    def test_divisor_one_identity_cell(self):
        # with trivial torsion both sides of the (1,1) cell are T^2/2
        from fractions import Fraction
        Z = NumericZMap(2)
        ps = power_structure(Z.group, 1)
        one = Z.group.identity()
        cells = {c.params: c for c in zhao_case_table(Z, 1)}
        assert cells["d=1 cell=xg[0]xg[0]"].passed
        lhs, _ = distribution_sides(Z, ps, elem(Z.group, one, one, ring=Z.ring))
        assert abs(lhs.coeff(2, 0j) - 0.5) < 1e-12


class TestNumericKernelMembership:
    """The relation elements annihilate the level-N evaluation map."""

    @pytest.mark.parametrize("level", [2, 4])
    def test_double_shuffle_elements_vanish(self, level):
        from cyclozeta.relations import fds_element, rds_element
        Z = NumericZMap(level)
        for g in Z.group.elements():
            if g.is_identity:
                continue
            assert abs(Z.eval_element(rds_element(g))) < 1e-6
            for h in Z.group.elements():
                if h.is_identity:
                    continue
                assert abs(Z.eval_element(fds_element(g, h))) < 1e-6

    @pytest.mark.parametrize("level", [2, 4, 6])
    def test_distribution_tails_vanish(self, level):
        from cyclozeta.groups import divisors_of_order
        Z = NumericZMap(level)
        for d in divisors_of_order(Z.group):
            if d < 2:
                continue
            ps = power_structure(Z.group, d)
            for h in ps.subgroup:
                assert abs(Z.eval_element(fdt1_element(ps, h))) < 1e-6
