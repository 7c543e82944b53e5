"""Group core: construction, normalization, power structures, homs."""

import copy
import itertools
import math
import pickle
import sys
import threading
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest

from cyclozeta import groups
from cyclozeta.errors import GroupMismatchError, InvalidArgumentError, ParseError
from cyclozeta.groups import (FiniteAbelianGroup, GroupElement, GroupHom,
                              construct_group, divisors_of_order,
                              format_element, format_group,
                              hom_identity, parse_element, parse_group,
                              power_structure)


def order_counts(factors):
    """How many elements of ``Z/n1 x ... x Z/nk`` have each order, by brute
    force over the exponent vectors: a vector's order is the lcm of its
    components' orders ``n / gcd(e, n)``."""
    component_orders = [[n // math.gcd(e, n) for e in range(n)] for n in factors]
    return Counter(math.lcm(*orders)
                   for orders in itertools.product(*component_orders))


def element_order(g):
    acc = g
    n = 1
    while not acc.is_identity:
        acc = acc * g
        n += 1
    return n


class TestConstruction:
    def test_single_cyclic_factor(self):
        G = construct_group([6])
        assert G.invariant_factors == (6,)
        assert G.order == 6

    def test_already_normalized(self):
        G = construct_group([2, 4])
        assert G.invariant_factors == (2, 4)
        assert G.order == 8

    def test_crt_merge(self):
        # oracle: same multiset of element orders as the cyclic group
        merged = construct_group([2, 3])
        cyclic = construct_group([6])
        assert merged.invariant_factors == (6,)
        orders = Counter(element_order(g) for g in merged.elements())
        assert orders == Counter(element_order(g) for g in cyclic.elements())

    def test_larger_merge(self):
        assert construct_group([6, 4]).invariant_factors == (2, 12)
        assert construct_group([2, 2, 2]).invariant_factors == (2, 2, 2)
        assert construct_group([4, 6, 9]).invariant_factors == (6, 36)

    def test_order_counts_match_the_raw_factor_list(self):
        # the counts of elements of each order determine a finite abelian
        # group, so they pin the normal form without its algorithm
        for k in range(4):
            for factors in itertools.product(range(1, 13), repeat=k):
                invariants = construct_group(factors).invariant_factors
                assert 1 not in invariants
                assert all(b % a == 0 for a, b in zip(invariants, invariants[1:]))
                assert order_counts(invariants) == order_counts(factors), factors

    def test_trivial_group(self):
        G = construct_group([])
        assert G.order == 1 and G.is_trivial
        assert G.elements() == (G.identity(),)

    def test_unit_factors_dropped(self):
        assert construct_group([1, 5]).invariant_factors == (5,)

    def test_bad_factors(self):
        with pytest.raises(InvalidArgumentError):
            construct_group([0])
        with pytest.raises(InvalidArgumentError):
            construct_group([-3])
        with pytest.raises(InvalidArgumentError):
            FiniteAbelianGroup((4, 2))

    def test_enumeration_distinct(self):
        G = construct_group([2, 4])
        assert len(set(G.elements())) == G.order


class TestArithmetic:
    def test_modular_addition(self, Z6):
        assert Z6.element(2) * Z6.element(3) == Z6.element(5)

    def test_inverse(self, Z6):
        assert Z6.element(4).inverse() == Z6.element(2)
        assert Z6.identity().inverse() == Z6.identity()

    @pytest.mark.parametrize("factors", [[6], [2, 4], [2, 2, 2]])
    def test_inverse_is_the_interned_negation(self, factors):
        G = construct_group(factors)
        for g in G.elements():
            inverse = g.inverse()
            assert inverse is G.element(tuple(-e for e in g.exponents))
            assert g.inverse() is inverse
            assert g * inverse is G.identity()

    def test_power(self, Z6):
        assert Z6.element(2) ** 3 == Z6.identity()
        assert Z6.element(2) ** -1 == Z6.element(4)

    def test_canonical_reduction(self, Z6):
        assert Z6.element(8) == Z6.element(2)
        assert hash(Z6.element(8)) == hash(Z6.element(2))

    def test_mismatched_groups(self, Z6, Z4):
        with pytest.raises(GroupMismatchError):
            Z6.element(1) * Z4.element(1)


class TestElementContract:
    """One instance per element per process, shared by equal groups, with
    identity equality and hash."""

    def test_reduction_returns_the_same_instance(self, Z3):
        assert Z3.element(4) is Z3.element(1)
        assert Z3.element((1,)) is Z3.elements()[1]
        assert parse_element("7", Z3) is Z3.element(1)

    def test_operations_return_enumerated_instances(self):
        G = construct_group([2, 4])
        els = G.elements()
        ids = {id(g) for g in els}
        assert G.identity() is els[0]
        assert [g.index for g in els] == list(range(G.order))
        assert [g.is_identity for g in els] == [True] + [False] * 7
        for g in els:
            assert G.element(g.exponents) is els[g.index]
            assert id(g.inverse()) in ids
            for k in (-3, 0, 2, 5):
                assert id(g ** k) in ids
            for h in els:
                assert id(g * h) in ids

    def test_equal_groups_built_apart(self):
        a, b = construct_group([6]).element(1), construct_group([2, 3]).element(1)
        assert a is b
        assert a == b and hash(a) == hash(b)
        assert a * b == construct_group([6]).element(2)

    def test_hash_is_the_value_type_hash(self):
        # identity hash and equality are C-level: a word's hash and its dict
        # comparisons never call into Python code
        assert GroupElement.__hash__ is object.__hash__
        assert GroupElement.__eq__ is object.__eq__

    def test_attributes_are_read_only(self, Z3):
        g = Z3.element(1)
        for name, value in (("exponents", (2,)), ("index", 2), ("group", Z3)):
            with pytest.raises(FrozenInstanceError):
                setattr(g, name, value)
        assert g.exponents == (1,) and g.index == 1

    def test_copies_are_equal(self, Z6):
        g = Z6.element(5)
        assert copy.deepcopy(g) == g
        assert pickle.loads(pickle.dumps(g)) == g

    def test_copies_are_the_interned_instance(self):
        for G in (construct_group([6]), construct_group([2, 4]), construct_group([])):
            for g in G.elements():
                assert copy.deepcopy(g) is g
                assert copy.copy(g) is g
                assert pickle.loads(pickle.dumps(g)) is g

    def test_threads_naming_a_new_group_share_one_table(self):
        factors = (3, 3, 999_999)
        assert factors not in groups._TABLES
        barrier = threading.Barrier(8, timeout=10)
        made = []

        def name_group():
            barrier.wait()
            G = FiniteAbelianGroup(factors)
            made.append((G._interned, [G.element((1, 2, k)) for k in range(50)]))

        threads = [threading.Thread(target=name_group) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(made) == 8
        table, elements = made[0]
        assert table is groups._TABLES[factors]
        for other_table, other_elements in made[1:]:
            assert other_table is table
            assert all(g is h for g, h in zip(elements, other_elements))

    def test_large_group_stays_lazy(self):
        G = parse_group("Z1000000")
        before = set(G._interned)
        g = parse_element("999999", G)
        assert (g * g).exponents == (999998,) and g.inverse().exponents == (1,)
        # the table is shared by every Z1000000 of the process: count what
        # this test adds
        assert set(G._interned) - before == {999999, 999998, 1} - before


class TestPowerStructure:
    def test_z6_squares(self, Z6):
        ps = power_structure(Z6, 2)
        assert {g.exponents[0] for g in ps.subgroup} == {0, 2, 4}
        assert {g.exponents[0] for g in ps.kernel} == {0, 3}

    def test_z2_squares(self, Z2):
        ps = power_structure(Z2, 2)
        assert len(ps.subgroup) == 1 and ps.subgroup[0].is_identity
        assert len(ps.kernel) == 2

    def test_klein_four_flag(self):
        G = construct_group([2, 2])
        ps = power_structure(G, 2)
        assert len(ps.kernel) == 4  # |K_2| != d off the cyclic groups

    def test_preimage_classes(self, Z12):
        for d in (2, 3, 4, 6):
            ps = power_structure(Z12, d)
            sizes = [len(ps.preimages[h]) for h in ps.subgroup]
            assert all(s == len(ps.kernel) for s in sizes)
            assert sum(sizes) == Z12.order

    def test_inclusion_composition(self, Z12):
        # i_d followed by p^d is the d-th power map restricted to the subgroup
        for d in (2, 3, 4):
            ps = power_structure(Z12, d)
            for g in Z12.elements():
                h = ps.power_map[g]
                assert ps.power_map[h] == h ** d

    def test_cyclic_kernel_order(self):
        for n in range(2, 25):
            G = construct_group([n])
            for d in divisors_of_order(G):
                assert len(power_structure(G, d).kernel) == d

    def test_invalid_divisor(self, Z6):
        with pytest.raises(InvalidArgumentError):
            power_structure(Z6, 4)


class TestDivisors:
    @pytest.mark.parametrize("n,expected", [
        (6, [1, 2, 3, 6]),
        (1, [1]),
        (12, [1, 2, 3, 4, 6, 12]),
    ])
    def test_divisors(self, n, expected):
        assert divisors_of_order(construct_group([n] if n > 1 else [])) == expected


class TestHoms:
    def test_power_hom_tables(self, Z4):
        ps = power_structure(Z4, 2)
        p = ps.power
        assert p(Z4.element(1)) == Z4.element(2)
        assert p.kernel_size == 2
        assert set(p.preimage(Z4.element(2))) == {Z4.element(1), Z4.element(3)}

    def test_inclusion_hom(self, Z4):
        ps = power_structure(Z4, 2)
        i = ps.inclusion
        assert i(Z4.element(2)) == Z4.element(2)
        assert i.kernel_size == 1

    def test_arrows_are_built_once_on_first_use(self, Z4):
        ps = power_structure(Z4, 2)
        assert "power" not in vars(ps) and "inclusion" not in vars(ps)
        assert ps.power is ps.power and ps.inclusion is ps.inclusion

    def test_compose(self, Z12):
        ps2 = power_structure(Z12, 2)
        p2 = ps2.power
        i2 = ps2.inclusion
        comp = p2.compose(i2)  # p^2 o i_2 : G^2 -> G^2, the squaring map there
        for h in ps2.subgroup:
            assert comp(h) == h ** 2

    def test_non_hom_rejected(self, Z4):
        els = tuple(Z4.elements())
        mapping = tuple((g, Z4.element(1)) for g in els)
        with pytest.raises(InvalidArgumentError):
            GroupHom(els, els, mapping)

    def test_identity_hom(self, Z6):
        ident = hom_identity(Z6)
        assert all(ident(g) == g for g in Z6.elements())


class TestTextForms:
    def test_group_specs(self):
        assert parse_group("Z6").invariant_factors == (6,)
        assert parse_group("2x4").invariant_factors == (2, 4)
        assert parse_group("2,4").invariant_factors == (2, 4)
        assert parse_group("Z1").is_trivial
        assert format_group(construct_group([2, 4])) == "2x4"
        assert format_group(construct_group([6])) == "Z6"

    def test_element_roundtrip(self):
        G = construct_group([2, 4])
        g = G.element((1, 3))
        assert parse_element(format_element(g), G) == g

    def test_bad_specs(self):
        with pytest.raises(ParseError):
            parse_group("")
        with pytest.raises(ParseError):
            parse_group("Zx")
        with pytest.raises(ParseError):
            parse_element("1:2:3", construct_group([2, 4]))
