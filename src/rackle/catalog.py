"""Named group constructors and the desk-scale catalog.

Coverage is complete for every isomorphism type of order up to 12 and
documented-partial from 13 to 16 (all abelian types, both dihedral and
dicyclic families, and the two order-16 products with a nonabelian factor),
plus S4, a bundled order-24 fixture, and A5 for the nonsolvable path. S5 is
reachable by name only: the catalog sweeps need its subgroups, which are
beyond the subgroup cap.
"""

from __future__ import annotations

from importlib import resources

from .errors import TooLarge, UnknownGroup
from .groups import (
    FiniteGroup,
    direct_product,
    group_from_cayley_table,
    group_from_permutation_generators,
    parse_cayley,
    parse_cycles,
)
from .lattice import AbstractLattice, parse_lattice
from .textio import stem


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise TooLarge("cyclic order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return group_from_cayley_table(table, name="triv" if n == 1 else f"Z{n}")


def dihedral(order: int) -> FiniteGroup:
    """Symmetries of the (order/2)-gon; argument is the group order."""
    if order < 2 or order % 2:
        raise TooLarge(f"dihedral order must be even, got {order}")
    m = order // 2
    # index i < m: rotation r^i; index m+i: reflection s r^i
    def mul(x: int, y: int) -> int:
        xi, xs = x % m, x >= m
        yi, ys = y % m, y >= m
        if not xs and not ys:
            return (xi + yi) % m
        if not xs and ys:
            return m + (yi - xi) % m
        if xs and not ys:
            return m + (xi + yi) % m
        return (yi - xi) % m
    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    return group_from_cayley_table(table, name=f"D{m}")


def dicyclic(order: int) -> FiniteGroup:
    """Dicyclic group of the given order (a multiple of 4); Q8 is dicyclic(8)."""
    if order < 4 or order % 4:
        raise TooLarge(f"dicyclic order must be a multiple of 4, got {order}")
    m = order // 4
    two_m = 2 * m
    # index i < 2m: a^i; index 2m+i: b a^i, with b^2 = a^m, b a b^-1 = a^-1
    def mul(x: int, y: int) -> int:
        xi, xb = x % two_m, x >= two_m
        yi, yb = y % two_m, y >= two_m
        if not xb and not yb:
            return (xi + yi) % two_m
        if not xb and yb:
            return two_m + (yi - xi) % two_m
        if xb and not yb:
            return two_m + (xi + yi) % two_m
        return (m - xi + yi) % two_m
    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    name = f"Q{order}" if (order & (order - 1)) == 0 else f"Dic{m}"
    return group_from_cayley_table(table, name=name)


def symmetric(n: int) -> FiniteGroup:
    if n > 5:
        raise TooLarge("symmetric groups are provided up to degree 5")
    if n <= 1:
        return cyclic(1)
    gens = [parse_cycles("(1 2)", n), parse_cycles(str(tuple(range(1, n + 1))), n)]
    return group_from_permutation_generators(n, gens, name=f"S{n}")


def alternating(n: int) -> FiniteGroup:
    if n > 5:
        raise TooLarge("alternating groups are provided up to degree 5")
    if n <= 2:
        return cyclic(1)
    gens = [parse_cycles("(1 2 3)", n), parse_cycles(f"({n - 2} {n - 1} {n})", n)]
    return group_from_permutation_generators(n, gens, name=f"A{n}")


# ---------------------------------------------------------------------------
# bundled fixtures


def fixture_text(filename: str) -> str:
    ref = resources.files("rackle").joinpath("fixtures").joinpath(filename)
    return ref.read_text(encoding="utf-8")


def fixture_group(filename: str) -> FiniteGroup:
    return parse_cayley(fixture_text(filename), name=stem(filename))


def fixture_lattice(filename: str) -> AbstractLattice:
    return parse_lattice(fixture_text(filename), name=stem(filename))


def sl23() -> FiniteGroup:
    """The order-24 fixture: a dicyclic (quaternion) normal part extended by
    an order-3 rotation; derived length 3."""
    return fixture_group("sl23.cay")


def stall_lattice() -> AbstractLattice:
    """Synthetic lattice whose normal-abelian candidates are all single atoms."""
    return fixture_lattice("stall.lat")


# ---------------------------------------------------------------------------
# the catalog


def catalog_entries(max_order: int = 12) -> list[FiniteGroup]:
    """Catalog groups of order up to max_order, in (order, name) order."""
    z2, z3, z4 = cyclic(2), cyclic(3), cyclic(4)
    out: list[FiniteGroup] = [cyclic(1)]
    out += [cyclic(n) for n in range(2, 17)]
    out += [
        direct_product(z2, z2, "Z2xZ2"),
        direct_product(z4, z2, "Z4xZ2"),
        direct_product(direct_product(z2, z2, "Z2xZ2"), z2, "Z2xZ2xZ2"),
        direct_product(z3, z3, "Z3xZ3"),
        direct_product(cyclic(6), z2, "Z6xZ2"),
        direct_product(cyclic(8), z2, "Z8xZ2"),
        direct_product(z4, z4, "Z4xZ4"),
        direct_product(direct_product(z4, z2, "Z4xZ2"), z2, "Z4xZ2xZ2"),
        direct_product(direct_product(direct_product(z2, z2, "x"), z2, "x"), z2, "Z2xZ2xZ2xZ2"),
        symmetric(3),
        dihedral(8),
        dicyclic(8),
        dihedral(10),
        dihedral(12),
        alternating(4),
        dicyclic(12),
        dihedral(14),
        dihedral(16),
        dicyclic(16),
        direct_product(z2, dihedral(8), "Z2xD4"),
        direct_product(z2, dicyclic(8), "Z2xQ8"),
        symmetric(4),
        sl23(),
        alternating(5),
    ]
    out = [g for g in out if g.order <= max_order]
    out.sort(key=lambda g: (g.order, g.name))
    return out


_ALIASES = {
    "v4": "Z2xZ2",
    "k4": "Z2xZ2",
    "s3": "S3",
    "d3": "S3",
    "q8": "Q8",
    "dic2": "Q8",
    "q16": "Q16",
    "dic4": "Q16",
    "sl23": "sl23",
    "a5": "A5",
    "triv": "triv",
    "z1": "triv",
}


def named_group(name: str) -> FiniteGroup:
    """Look a group up by catalog name (case-insensitive, a few aliases)."""
    want = _ALIASES.get(name.lower(), name)
    specials = {
        "sl23": sl23,
        "A5": lambda: alternating(5),
        "S4": lambda: symmetric(4),
        "S5": lambda: symmetric(5),
    }
    for key, maker in specials.items():
        if want.lower() == key.lower():
            return maker()
    for g in catalog_entries(max_order=10_000):
        if g.name.lower() == want.lower():
            return g
    raise UnknownGroup(f"no catalog group named {name!r}")
