"""Finite abelian groups in invariant-factor form.

Groups are written multiplicatively in the mathematics but realized
additively on exponent vectors: an element of ``Z/n1 x ... x Z/nk`` is the
tuple of its exponents reduced mod ``n_i``, and the identity is the zero
vector.  A group is an immutable value.  There is one
:class:`GroupElement` instance per element per process: ``element()``,
``identity()``, ``elements()``, parsing, ``*``, ``inverse()`` and ``**``
all return that instance, and two equal groups built separately share it.
Equality of elements is therefore identity, and the hash is ``object``'s,
so hashing and comparing a word never runs Python code.  The instances are
made on first use, never as a table of the whole group, and a process keeps
one table per group it names.
"""

from __future__ import annotations

import itertools
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from math import gcd, lcm, prod

from .errors import GroupMismatchError, InvalidArgumentError, ParseError

#: the element instances of every group this process has named, by
#: invariant factors and element index
_TABLES: dict[tuple[int, ...], dict[int, "GroupElement"]] = {}


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group ``Z/n1 x ... x Z/nk`` with ``n1 | n2 | ... | nk``.

    The empty factor tuple is the trivial group.  Use :func:`construct_group`
    to build one from an arbitrary factor list; the constructor itself
    requires invariant-factor form.
    """

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise InvalidArgumentError(
                    f"{self.invariant_factors} is not a divisibility chain")
        if any(n < 2 for n in self.invariant_factors):
            raise InvalidArgumentError("invariant factors must be >= 2")
        # mixed-radix place values, so that index order is elements() order
        strides = [1]
        for n in reversed(self.invariant_factors[1:]):
            strides.insert(0, n * strides[0])
        object.__setattr__(self, "_strides", tuple(strides))
        # setdefault gives two threads that name a new group one table
        object.__setattr__(self, "_interned",
                           _TABLES.setdefault(self.invariant_factors, {}))

    def __reduce__(self):
        return FiniteAbelianGroup, (self.invariant_factors,)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def element(self, exponents) -> "GroupElement":
        if isinstance(exponents, int):
            exponents = (exponents,)
        exponents = tuple(exponents)
        factors = self.invariant_factors
        if len(exponents) != len(factors):
            raise InvalidArgumentError(
                f"exponent vector {exponents} has wrong rank for {self}")
        return self._intern(tuple(e % n for e, n in zip(exponents, factors)))

    def _intern(self, reduced: tuple[int, ...]) -> "GroupElement":
        """The one instance with these reduced exponents, made on first use."""
        index = sum(e * s for e, s in zip(reduced, self._strides))
        g = self._interned.get(index)
        if g is None:
            # setdefault keeps one instance when two threads race here
            g = self._interned.setdefault(index, GroupElement._make(self, reduced, index))
        return g

    def identity(self) -> "GroupElement":
        return self._intern((0,) * len(self.invariant_factors))

    @cached_property
    def _elements(self) -> tuple["GroupElement", ...]:
        ranges = [range(n) for n in self.invariant_factors]
        return tuple(self._intern(exps) for exps in itertools.product(*ranges))

    def elements(self) -> tuple["GroupElement", ...]:
        return self._elements

    def __str__(self):
        return format_group(self)


class GroupElement:
    """An element as a canonically reduced exponent vector.

    There is one instance per element per process, shared by equal groups;
    ``GroupElement(group, exponents)``, copies and unpickled elements all
    return ``group.element(exponents)``.  Equality is identity and the hash
    is ``object``'s.  ``index`` is the element's position in
    ``group.elements()``.  Products and the inverse are looked up among
    those this element has formed so far.
    """

    __slots__ = ("group", "exponents", "index", "_products", "_inverse")

    def __new__(cls, group: FiniteAbelianGroup, exponents) -> "GroupElement":
        return group.element(exponents)

    @classmethod
    def _make(cls, group: FiniteAbelianGroup, reduced: tuple[int, ...],
              index: int) -> "GroupElement":
        g = object.__new__(cls)
        for name, value in (("group", group), ("exponents", reduced), ("index", index),
                            ("_products", {}), ("_inverse", None)):
            object.__setattr__(g, name, value)
        return g

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return GroupElement, (self.group, self.exponents)

    def __repr__(self):
        return f"GroupElement(group={self.group!r}, exponents={self.exponents!r})"

    def _check(self, other: "GroupElement"):
        if self.group != other.group:
            raise GroupMismatchError(
                f"elements of {self.group} and {other.group} cannot be combined")

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group is not self.group:
            self._check(other)
        product = self._products.get(other.index)
        if product is None:
            product = self._products[other.index] = self.group.element(
                tuple(a + b for a, b in zip(self.exponents, other.exponents)))
        return product

    def inverse(self) -> "GroupElement":
        if self._inverse is None:
            object.__setattr__(self, "_inverse", self ** -1)
        return self._inverse

    def __pow__(self, k: int) -> "GroupElement":
        return self.group.element(tuple(k * e for e in self.exponents))

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    def __str__(self):
        return format_element(self)


def construct_group(factors) -> FiniteAbelianGroup:
    """Build a group from an arbitrary list of cyclic factors.

    The list is normalized to invariant-factor form by the diagonal sweep
    ``Z/a x Z/b = Z/gcd(a,b) x Z/lcm(a,b)`` over every pair, so ``[2, 3]``
    and ``[6]`` give the same group.  Factors equal to 1 are trivial direct
    summands and are dropped.
    """
    ns = list(factors)
    for n in ns:
        if not isinstance(n, int) or n <= 0:
            raise InvalidArgumentError(f"cyclic factor {n!r} must be a positive integer")
    # after row i, ns[i] divides every later entry
    for i in range(len(ns)):
        for j in range(i + 1, len(ns)):
            ns[i], ns[j] = gcd(ns[i], ns[j]), lcm(ns[i], ns[j])
    return FiniteAbelianGroup(tuple(n for n in ns if n > 1))


def divisors_of_order(group: FiniteAbelianGroup) -> list[int]:
    """All positive divisors of ``|G|`` in increasing order."""
    n = group.order
    return [d for d in range(1, n + 1) if n % d == 0]


@dataclass(frozen=True)
class PowerStructure:
    """The d-th power map data: subgroup ``G^d``, kernel ``K_d`` and tables.

    ``|K_d|`` is ``d`` on a cyclic group but can be larger on others
    (``Z/2 x Z/2`` with ``d = 2`` has ``|K_2| = 4``); the distribution
    relations take it as ``len(kernel)``, never as ``d``.
    """

    group: FiniteAbelianGroup
    d: int
    subgroup: tuple[GroupElement, ...]
    kernel: tuple[GroupElement, ...]
    power_map: dict[GroupElement, GroupElement]
    preimages: dict[GroupElement, tuple[GroupElement, ...]]

    @cached_property
    def power(self) -> GroupHom:
        """``p^d : G ->> G^d``, the d-th power map, built on first use."""
        return GroupHom(tuple(self.group.elements()), self.subgroup,
                        tuple(self.power_map.items()))

    @cached_property
    def inclusion(self) -> GroupHom:
        """``i_d : G^d -> G``, the canonical inclusion, built on first use."""
        return GroupHom(self.subgroup, tuple(self.group.elements()),
                        tuple((h, h) for h in self.subgroup))


def power_structure(group: FiniteAbelianGroup, d: int) -> PowerStructure:
    """Enumerate ``G^d``, ``K_d``, ``p^d`` and its preimage classes."""
    if d <= 0 or group.order % d != 0:
        raise InvalidArgumentError(f"d={d} does not divide |G|={group.order}")
    power_map = {g: g ** d for g in group.elements()}
    subgroup = sorted({h for h in power_map.values()}, key=lambda e: e.exponents)
    kernel = tuple(g for g in group.elements() if power_map[g].is_identity)
    preimages = {
        h: tuple(g for g in group.elements() if power_map[g] == h) for h in subgroup
    }
    return PowerStructure(group, d, tuple(subgroup), kernel, power_map, preimages)


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism between (subgroups of) finite abelian groups.

    ``domain`` and ``codomain`` list the elements of the two groups; they may
    be proper subgroups of their ambient groups, which is how the arrows
    ``p^d : G -> G^d`` and ``i_d : G^d -> G`` are represented.  ``table`` is
    ``mapping`` as a dict, built once while the mapping is validated.
    """

    domain: tuple[GroupElement, ...]
    codomain: tuple[GroupElement, ...]
    mapping: tuple[tuple[GroupElement, GroupElement], ...]

    def __post_init__(self):
        table = dict(self.mapping)
        object.__setattr__(self, "table", table)
        dom, cod = set(self.domain), set(self.codomain)
        if set(table) != dom:
            raise InvalidArgumentError("mapping must cover the domain exactly")
        if not set(table.values()) <= cod:
            raise InvalidArgumentError("mapping leaves the codomain")
        for a in self.domain:
            for b in self.domain:
                if table[a * b] != table[a] * table[b]:
                    raise InvalidArgumentError("mapping is not a homomorphism")

    @cached_property
    def kernel_size(self) -> int:
        return sum(1 for g in self.domain if self.table[g].is_identity)

    def __call__(self, g: GroupElement) -> GroupElement:
        return self.table[g]

    def preimage(self, h: GroupElement) -> tuple[GroupElement, ...]:
        return tuple(g for g in self.domain if self.table[g] == h)

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """The arrow ``self o inner``."""
        if set(inner.codomain) != set(self.domain):
            raise InvalidArgumentError("arrows are not composable")
        return GroupHom(
            inner.domain, self.codomain,
            tuple((g, self.table[inner.table[g]]) for g in inner.domain))


def hom_identity(group: FiniteAbelianGroup) -> GroupHom:
    els = tuple(group.elements())
    return GroupHom(els, els, tuple((g, g) for g in els))


def parse_group(text: str) -> FiniteAbelianGroup:
    """Parse ``Z6``, ``2x4`` or ``2,4`` into a (normalized) group."""
    text = text.strip()
    if not text:
        raise ParseError("empty group spec")
    if text[0] in "Zz":
        body = text[1:]
    else:
        body = text
    parts = [p.strip() for p in body.replace("x", ",").split(",")]
    if not parts or any(not p for p in parts):
        raise ParseError(f"bad group spec {text!r}")
    try:
        factors = [int(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad group spec {text!r}") from exc
    if any(f <= 0 for f in factors):
        raise ParseError(f"bad group spec {text!r}")
    return construct_group(factors)


def format_group(group: FiniteAbelianGroup) -> str:
    if group.is_trivial:
        return "Z1"
    if len(group.invariant_factors) == 1:
        return f"Z{group.invariant_factors[0]}"
    return "x".join(str(n) for n in group.invariant_factors)


def parse_element(text: str, group: FiniteAbelianGroup) -> GroupElement:
    """Parse a colon-separated exponent vector, e.g. ``1:3``."""
    text = text.strip()
    if group.is_trivial:
        if text in ("", "0"):
            return group.identity()
        raise ParseError(f"bad element {text!r} for the trivial group")
    try:
        exps = tuple(int(p) for p in text.split(":"))
    except ValueError as exc:
        raise ParseError(f"bad element spec {text!r}") from exc
    if len(exps) != len(group.invariant_factors):
        raise ParseError(f"element {text!r} has wrong rank for {group}")
    return group.element(exps)


def format_element(g: GroupElement) -> str:
    if g.group.is_trivial:
        return "0"
    return ":".join(str(e) for e in g.exponents)
