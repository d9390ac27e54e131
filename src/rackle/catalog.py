"""Named group constructors and the desk-scale catalog.

The catalog is one table of (name, order, constructor) entries; a lookup
builds only the groups it returns. Coverage is complete for every
isomorphism type of order up to 12 and documented-partial from 13 to 16
(all abelian types, both dihedral and dicyclic families, and the two
order-16 products with a nonabelian factor), plus S4, a bundled order-24
fixture, and A5 for the nonsolvable path. S5 is a name outside the catalog:
the catalog sweeps need its subgroups, which are beyond the subgroup cap.
"""

from __future__ import annotations

from functools import partial, reduce
from importlib import resources
from operator import itemgetter
from typing import Callable

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


def _twisted(order: int, square: int, name: str) -> FiniteGroup:
    """<a, b | a^k = 1, b a b^-1 = a^-1, b^2 = a^square> for k = order/2."""
    k = order // 2
    # index i < k: a^i; index k+i: b a^i
    def mul(x: int, y: int) -> int:
        xi, xb = x % k, x >= k
        yi, yb = y % k, y >= k
        if not xb and not yb:
            return (xi + yi) % k
        if not xb and yb:
            return k + (yi - xi) % k
        if xb and not yb:
            return k + (xi + yi) % k
        return (square - xi + yi) % k
    table = [[mul(x, y) for y in range(order)] for x in range(order)]
    return group_from_cayley_table(table, name=name)


def dihedral(order: int) -> FiniteGroup:
    """Symmetries of the (order/2)-gon; argument is the group order."""
    if order < 2 or order % 2:
        raise TooLarge(f"dihedral order must be even, got {order}")
    return _twisted(order, 0, f"D{order // 2}")


def dicyclic(order: int) -> FiniteGroup:
    """Dicyclic group of the given order (a multiple of 4); Q8 is dicyclic(8)."""
    if order < 4 or order % 4:
        raise TooLarge(f"dicyclic order must be a multiple of 4, got {order}")
    name = f"Q{order}" if (order & (order - 1)) == 0 else f"Dic{order // 4}"
    return _twisted(order, order // 4, name)


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


def sl23() -> FiniteGroup:
    """The order-24 fixture: a dicyclic (quaternion) normal part extended by
    an order-3 rotation; derived length 3."""
    return fixture_group("sl23.cay")


def stall_lattice() -> AbstractLattice:
    """Synthetic lattice whose normal-abelian candidates are all single atoms."""
    return parse_lattice(fixture_text("stall.lat"), name="stall")


# ---------------------------------------------------------------------------
# the catalog


def _abelian(*orders: int) -> FiniteGroup:
    """Z{n1}xZ{n2}x...: the cyclic groups of those orders, multiplied from the left."""
    name = "x".join(map("Z{}".format, orders))
    return reduce(partial(direct_product, name=name), map(cyclic, orders))


# (name, order, constructor) for every catalog group: a constructor runs
# only when its group is asked for
_CATALOG: list[tuple[str, int, Callable[[], FiniteGroup]]] = [
    ("triv", 1, partial(cyclic, 1)),
    *((f"Z{n}", n, partial(cyclic, n)) for n in range(2, 17)),
    ("Z2xZ2", 4, partial(_abelian, 2, 2)),
    ("Z4xZ2", 8, partial(_abelian, 4, 2)),
    ("Z2xZ2xZ2", 8, partial(_abelian, 2, 2, 2)),
    ("Z3xZ3", 9, partial(_abelian, 3, 3)),
    ("Z6xZ2", 12, partial(_abelian, 6, 2)),
    ("Z8xZ2", 16, partial(_abelian, 8, 2)),
    ("Z4xZ4", 16, partial(_abelian, 4, 4)),
    ("Z4xZ2xZ2", 16, partial(_abelian, 4, 2, 2)),
    ("Z2xZ2xZ2xZ2", 16, partial(_abelian, 2, 2, 2, 2)),
    ("S3", 6, partial(symmetric, 3)),
    ("D4", 8, partial(dihedral, 8)),
    ("Q8", 8, partial(dicyclic, 8)),
    ("D5", 10, partial(dihedral, 10)),
    ("D6", 12, partial(dihedral, 12)),
    ("A4", 12, partial(alternating, 4)),
    ("Dic3", 12, partial(dicyclic, 12)),
    ("D7", 14, partial(dihedral, 14)),
    ("D8", 16, partial(dihedral, 16)),
    ("Q16", 16, partial(dicyclic, 16)),
    ("Z2xD4", 16, lambda: direct_product(cyclic(2), dihedral(8), "Z2xD4")),
    ("Z2xQ8", 16, lambda: direct_product(cyclic(2), dicyclic(8), "Z2xQ8")),
    ("S4", 24, partial(symmetric, 4)),
    ("sl23", 24, sl23),
    ("A5", 60, partial(alternating, 5)),
]


def catalog_entries(max_order: int = 12) -> list[FiniteGroup]:
    """Catalog groups of order up to max_order, in (order, name) order."""
    by_order = sorted(_CATALOG, key=itemgetter(1, 0))
    return [make() for _, order, make in by_order if order <= max_order]


# constructor by lower-case name: the catalog's, and S5's
_MAKERS = {name.lower(): make for name, _, make in _CATALOG} | {"s5": partial(symmetric, 5)}
# names that are no catalog name in any case, as _MAKERS keys
_ALIASES = {"v4": "z2xz2", "k4": "z2xz2", "d3": "s3", "dic2": "q8", "dic4": "q16", "z1": "triv"}


def named_group(name: str) -> FiniteGroup:
    """Build the one group of that catalog name or alias, in any case."""
    key = name.lower()
    make = _MAKERS.get(_ALIASES.get(key, key))
    if make is None:
        raise UnknownGroup(f"no catalog group named {name!r}")
    return make()
