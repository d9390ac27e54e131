"""Mobius numbers and reduced Euler characteristics of subrack lattices.

The order complex of the proper part of a group's subrack lattice collapses
to a sphere whose dimension is set by the class count; the testable shadow of
that statement is mu(bottom, top) = (-1)^c, checked here by Weisner's theorem
(Stanley, EC1, Cor. 3.9.3; exact on lattices only) and by chain counting.
"""

from __future__ import annotations

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
    for y in lat.ranked:
        mu = -acc[y]
        if mu:
            sy = sup[y]
            for p, x in lat.atom_joins(y, ((sy & -sy) or 1 << lat.n_atoms) - 1):
                if sup[x] & -sup[x] == 1 << p:
                    acc[x] += mu
    return mu


def reduced_euler_characteristic(
    lat: AbstractLattice, limits: Limits = DEFAULT_LIMITS
) -> int:
    """Alternating chain count over the proper part (bottom and top removed).

    A chain of k elements contributes (-1)^(k-1); the empty chain contributes
    -1. lat.ranked, the elements by support size, is a linear extension with
    bottom first and top last, so one pass over the rest finishes every
    element after all elements below it; Python integers absorb the growth.
    Only containment is used, never Weisner's theorem, so this stays an
    independent check on mobius_bottom_top.
    """
    n = lat.size - 2
    if n > limits.chain_count_cap:
        raise TooLarge(
            f"chain counting capped at {limits.chain_count_cap} elements, got {n}"
        )
    # (support, signed count of the chains whose maximum it is); supports are
    # distinct, so an earlier one inside s lies strictly below it
    counted: list[tuple[int, int]] = []
    for s in map(lat.supports.__getitem__, lat.ranked[1:-1]):
        counted.append((s, 1 - sum(c for t, c in counted if t & s == t)))
    return -1 + sum(c for _, c in counted)
