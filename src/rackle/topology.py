"""Mobius numbers and reduced Euler characteristics of subrack lattices.

The order complex of the proper part of a group's subrack lattice collapses
to a sphere whose dimension is set by the class count; the testable shadow of
that statement is mu(bottom, top) = (-1)^c, checked here by Weisner's theorem
(Stanley, EC1, Cor. 3.9.3; exact on lattices only) and by chain counting.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_LIMITS, Limits
from .errors import TooLarge
from .lattice import AbstractLattice


def mobius_bottom_top(lat: AbstractLattice) -> int:
    """mu(bottom, top) by Weisner's theorem, one forward push over joins.

    Weisner (Stanley, EC1, Cor. 3.9.3): with a the lowest atom of x,
    mu(bottom, x) = -sum mu(bottom, y) over the y with a not in supp y and
    y ∨ a = x. Each y pushes its value to x = y ∨ p for each atom p below
    its lowest atom that is x's lowest atom; y has fewer atoms than x, so a
    pass by support size finishes x first. Exact on lattices only.
    """
    if lat.is_boolean():
        return (-1) ** lat.n_atoms
    sup = lat.supports
    acc = [0] * lat.size
    acc[lat.bottom] = -1                 # mu(bottom, bottom) = 1
    for y in lat._above[0]:
        mu = -acc[y]
        if mu:
            sy = sup[y]
            for p, x in lat.atom_joins(y, ((sy & -sy) or 1 << lat.n_atoms) - 1):
                if sup[x] & -sup[x] == 1 << p:
                    acc[x] += mu
    return mu


@dataclass(frozen=True)
class ProperPart:
    """The lattice with its ends removed; order inherited."""

    source: AbstractLattice
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def leq(self, i: int, j: int) -> bool:
        return self.source.leq(self.members[i], self.members[j])


def proper_part(lat: AbstractLattice) -> ProperPart:
    members = tuple(x for x in range(lat.size) if x not in (lat.bottom, lat.top))
    return ProperPart(source=lat, members=members)


def reduced_euler_characteristic(
    part: ProperPart, limits: Limits = DEFAULT_LIMITS
) -> int:
    """Alternating chain count over the proper part.

    A chain of k elements contributes (-1)^(k-1); the empty chain contributes
    -1. Dynamic programming over a linear extension keeps it polynomial, and
    Python integers absorb the growth.
    """
    n = part.size
    if n > limits.chain_count_cap:
        raise TooLarge(
            f"chain counting capped at {limits.chain_count_cap} elements, got {n}"
        )
    order = sorted(
        range(n), key=lambda i: sum(1 for j in range(n) if part.leq(j, i))
    )
    # c[i] = signed count of chains whose maximum is element i
    c: dict[int, int] = {}
    for i in order:
        below = [j for j in order if j != i and part.leq(j, i)]
        c[i] = 1 - sum(c[j] for j in below)
    return -1 + sum(c.values())
