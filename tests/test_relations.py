"""Relation elements, the depth-two decomposition, kernel reformulations,
and the weight-two regularized distribution verifier."""

import pytest

from conftest import combo, elem
from cyclozeta.algebra import Membership, membership
from cyclozeta.errors import InvalidArgumentError
from cyclozeta.groups import construct_group, divisors_of_order, power_structure
from cyclozeta.numeval import NumericZMap
from cyclozeta.relations import (distribution_sides,
                                 fds_element, fds_sides, fdt1_element,
                                 fdt2_element, fdtd1_grid, fdtd1_identity_check,
                                 kernel_lemma_eval, rds_element,
                                 regdist_full_check, zhao_case_table,
                                 sharp_sides, zhao_regdist_check)
from cyclozeta.rings import RATIONAL
from cyclozeta.words import X0
from test_regularization import prime_zmap


class TestBuildRelation:
    def test_fdt1_z2(self, Z2):
        ps = power_structure(Z2, 2)
        one, sigma = Z2.identity(), Z2.element(1)
        rel = fdt1_element(ps, one)
        assert rel.value == combo(Z2, (1, (X0, one)), (2, (X0, sigma)))

    def test_rds(self, Z2):
        sigma, one = Z2.element(1), Z2.identity()
        rel = rds_element(sigma)
        assert rel.value == combo(Z2, (1, (X0, sigma)), (1, (sigma, sigma)),
                                  (-1, (sigma, one)))

    def test_fds_z2_diagonal(self, Z2):
        sigma, one = Z2.element(1), Z2.identity()
        rel = fds_element(sigma, sigma)
        assert rel.value == combo(Z2, (1, (X0, one)), (2, (sigma, one)),
                                  (-2, (sigma, sigma)))

    def test_all_kinds_stay_convergent(self, Z12):
        ps = power_structure(Z12, 3)
        nontrivial = [g for g in Z12.elements() if not g.is_identity]
        for h in ps.subgroup:
            assert membership(fdt1_element(ps, h).value) in (Membership.H0,)
            for h2 in ps.subgroup:
                if not h.is_identity:
                    assert membership(fdt2_element(ps, h, h2).value) is Membership.H0
        for g1 in nontrivial[:4]:
            for g2 in nontrivial[:4]:
                assert membership(fds_element(g1, g2).value) is Membership.H0
            assert membership(rds_element(g1).value) is Membership.H0

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
                stuffle, shuffled = fds_sides(RATIONAL, group, (g1,), (g2,))
                assert stuffle - shuffled == fds_element(g1, g2).value

    @pytest.mark.parametrize("order", [4, 6, 12])
    def test_sharp_sides_differ_by_fdt_elements(self, order):
        group = construct_group([order])
        for d in divisors_of_order(group):
            ps = power_structure(group, d)
            for h in ps.subgroup:
                lower, upper = sharp_sides(ps, elem(group, X0, h))
                assert lower - upper == fdt1_element(ps, h).value
                if h.is_identity:
                    continue  # FDT2 needs h1 != 1
                for h2 in ps.subgroup:
                    lower, upper = sharp_sides(ps, elem(group, h, h2))
                    assert lower - upper == fdt2_element(ps, h, h2).value


class TestFDTd1:
    def test_z2_identity_branch(self, Z2):
        report = fdtd1_identity_check(Z2, 2, Z2.identity())
        assert report.passed and report.branch == "h=1"
        assert report.lhs == combo(Z2, (1, (X0, Z2.identity())),
                                   (2, (X0, Z2.element(1))))

    def test_z4_nonidentity_branch(self, Z4):
        h = Z4.element(2)  # the square of the generator
        report = fdtd1_identity_check(Z4, 2, h)
        assert report.passed and report.branch == "h!=1"
        assert report.difference.terms == {}

    def test_z6_d3(self, Z6):
        report = fdtd1_identity_check(Z6, 3, Z6.identity())
        assert report.passed

    def test_noncyclic_kernel_refused(self):
        klein = construct_group([2, 2])
        with pytest.raises(InvalidArgumentError):
            fdtd1_identity_check(klein, 2, klein.identity())

    def test_grid_z12(self, Z12):
        reports = fdtd1_grid(Z12)
        assert reports and all(r.passed for r in reports)
        assert {r.d for r in reports} == {2, 3, 4, 6, 12}


class TestKernelLemma:
    def test_distribution_cases_exact(self, Z6):
        # (a) and (b) reformulate the same element identity, so any linear
        # map must give matching values
        Z = prime_zmap(Z6, 3)
        for d in (2, 3):
            ps = power_structure(Z6, d)
            for h in ps.subgroup:
                report = kernel_lemma_eval(Z, fdt1_element(ps, h), ps)
                assert report.passed
                if not h.is_identity:
                    report2 = kernel_lemma_eval(Z, fdt2_element(ps, h, h), ps)
                    assert report2.passed

    def test_double_shuffle_case_exact(self, Z4):
        Z = prime_zmap(Z4, 3)
        for g1 in Z4.elements():
            for g2 in Z4.elements():
                if g1.is_identity or g2.is_identity:
                    continue
                report = kernel_lemma_eval(Z, fds_element(g1, g2))
                assert report.passed

    def test_regularized_case_exact(self, Z4):
        # at depth two the regularized comparison degenerates to an exact
        # element identity, so it holds for the prime-valued map as well
        Z = prime_zmap(Z4, 3)
        for g in Z4.elements():
            if g.is_identity:
                continue
            report = kernel_lemma_eval(Z, rds_element(g))
            assert report.passed

    def test_numeric_weight_two(self):
        # at level two the depth-two tail is itself a vanishing combination
        Z = NumericZMap(2)
        ps = power_structure(Z.group, 2)
        relation = fdt1_element(ps, Z.group.identity())
        check = kernel_lemma_eval(Z, relation, ps)
        assert check.passed and check.residual < 1e-6
        assert (check.name, check.params) == ("FDT1", "2,0")
        assert abs(Z.eval_element(relation.value)) < 1e-6  # finite distribution relation


class TestZhaoWeightTwo:
    def test_level_two_cells(self):
        Z = NumericZMap(2)
        checks = zhao_case_table(Z, Z.group, 2)
        cells = [c for c in checks if c.name == "zhao-cell"]
        assert len(checks) == 3 + len(cells)  # three hypotheses, then cells
        assert len(cells) == 4  # subgroup is trivial: choices are x0 and 1
        assert all(c.passed for c in checks)

    def test_x0_x0_cell_is_zero(self):
        Z = NumericZMap(2)
        ps = power_structure(Z.group, 2)
        assert zhao_regdist_check(Z, ps, X0, X0).passed
        lhs, rhs = distribution_sides(Z, ps, elem(Z.group, X0, X0, ring=Z.ring))
        assert not lhs.coeffs and not rhs.coeffs

    def test_invalid_cell_argument(self):
        Z = NumericZMap(4)
        ps = power_structure(Z.group, 2)
        with pytest.raises(InvalidArgumentError):
            zhao_regdist_check(Z, ps, Z.group.element(1), X0)


class TestRegDist:
    def test_divisor_one_trivial_for_any_map(self, Z4):
        Z = prime_zmap(Z4, 3)
        checks = regdist_full_check(Z, Z4, 1, 3)
        assert all(c.passed for c in checks)
        assert checks[0].name == "regdist-T-level" and checks[0].residual == 0

    def test_numeric_level_two(self):
        Z = NumericZMap(2)
        t_level, ev0_level, generators = regdist_full_check(Z, Z.group, 2, 3)
        assert t_level.passed and generators.passed
        assert t_level.residual < 1e-5
        # T-level pass forces ev0-level pass on the same words
        assert ev0_level.passed

    def test_divisor_one_identity_cell(self):
        # with trivial torsion both sides of the (1,1) cell are T^2/2
        from fractions import Fraction
        Z = NumericZMap(2)
        ps = power_structure(Z.group, 1)
        one = Z.group.identity()
        assert zhao_regdist_check(Z, ps, one, one).passed
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
            assert abs(Z.eval_element(rds_element(g).value)) < 1e-6
            for h in Z.group.elements():
                if h.is_identity:
                    continue
                assert abs(Z.eval_element(fds_element(g, h).value)) < 1e-6

    @pytest.mark.parametrize("level", [2, 4, 6])
    def test_distribution_tails_vanish(self, level):
        from cyclozeta.groups import divisors_of_order
        Z = NumericZMap(level)
        for d in divisors_of_order(Z.group):
            if d < 2:
                continue
            ps = power_structure(Z.group, d)
            for h in ps.subgroup:
                assert abs(Z.eval_element(fdt1_element(ps, h).value)) < 1e-6

    @pytest.mark.parametrize("level", [2, 4])
    def test_kernel_lemma_numeric_cases_c_d(self, level):
        # the two returned values coincide for the numeric map as well
        from cyclozeta.relations import fds_element, rds_element, kernel_lemma_eval
        Z = NumericZMap(level)
        g = Z.group.element(1)
        h = Z.group.element(level - 1)
        assert kernel_lemma_eval(Z, fds_element(g, h)).passed
        assert kernel_lemma_eval(Z, rds_element(g)).passed
