"""Mobius numbers and reduced Euler characteristics of subrack lattices.

The order complex of the proper part of a group's subrack lattice collapses
to a sphere whose dimension is set by the class count; the testable shadow of
that statement is mu(bottom, top) = (-1)^c, checked here by Rota's crosscut
theorem over the coatoms (Stanley, EC1, Cor. 3.9.4; exact on lattices only)
and by chain counting.
"""

from __future__ import annotations

from .closedsets import bits
from .config import DEFAULT_LIMITS, Limits
from .errors import NotGroupLattice, TooLarge
from .lattice import AbstractLattice


def mobius_bottom_top(lat: AbstractLattice) -> int:
    """mu(bottom, top) by Rota's crosscut theorem over the coatoms.

    Crosscut (Stanley, EC1, Cor. 3.9.4): mu(bottom, top) is the sum of
    (-1)^|S| over the sets S of coatoms whose meet is bottom. The lattice is
    atomistic, so a meet's support is the intersection of the supports.
    counts maps each intersection so far to the signed count of the coatom
    sets giving it; coatom co extends each set with it, so the count k at s
    adds -k at s & co. On a group's subrack lattice the coatoms are the c
    class complements, so at most 2^c intersections arise. One that is no
    support proves the order is no lattice and raises NotGroupLattice, so
    counts never outgrows the lattice.
    """
    if lat.is_boolean():
        return (-1) ** lat.n_atoms
    index = lat.support_index
    counts = {lat.supports[lat.top]: 1}
    for co in map(lat.supports.__getitem__, lat.proper_maximal):
        for s, k in list(counts.items()):
            t = s & co
            if t not in index:
                raise NotGroupLattice(
                    f"coatoms meet in atoms {bits(t)}, which no element has: "
                    "the order is no lattice"
                )
            counts[t] = counts.get(t, 0) - k
    return counts.get(0, 0)


def reduced_euler_characteristic(
    lat: AbstractLattice, limits: Limits = DEFAULT_LIMITS
) -> int:
    """Alternating chain count over the proper part (bottom and top removed).

    A chain of k elements contributes (-1)^(k-1); the empty chain contributes
    -1. lat.ranked, the elements by support size, is a linear extension with
    bottom first and top last, so one pass over the rest finishes every
    element after all elements below it; Python integers absorb the growth.
    Only containment is used, never meets or the crosscut theorem, so this
    stays an independent check on mobius_bottom_top.
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
