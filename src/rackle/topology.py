"""Mobius numbers and reduced Euler characteristics of subrack lattices.

The order complex of the proper part of a group's subrack lattice collapses
to a sphere whose dimension is set by the class count; the testable shadow of
that statement is mu(bottom, top) = (-1)^c, checked here two independent ways.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_LIMITS, Limits
from .errors import TooLarge
from .lattice import AbstractLattice


def mobius_bottom_top(lat: AbstractLattice) -> int:
    """mu(bottom, top) by the standard downward recursion.

    Boolean lattices short-circuit to (-1)^atoms; everything else runs the
    summation in a bottom-up pass by support size, so every element strictly
    below x has its value when x is reached.
    """
    if lat.is_boolean():
        return (-1) ** lat.n_atoms
    sup = lat.supports
    mu = {lat.bottom: 1}
    for x in sorted(range(lat.size), key=lambda x: sup[x].bit_count()):
        if x != lat.bottom:
            sx = sup[x]
            mu[x] = -sum(v for y, v in mu.items() if sup[y] & sx == sup[y])
    return mu[lat.top]


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
    members = tuple(
        x for x in range(lat.size) if x != lat.bottom and x != lat.top
    )
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


def sphere_check(lat: AbstractLattice, class_count: int) -> bool:
    """Does mu(bottom, top) match (-1)^(number of classes)?"""
    return mobius_bottom_top(lat) == (-1) ** class_count
