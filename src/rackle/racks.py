"""Racks as operation tables, the three conjugation-rack constructors, and
subrack closure over bitmasks.

A rack here is a square table op[a][b] = a ▷ b over indices 0..m-1. For
conjugation racks a ▷ b is a b a^-1 inside some finite group; those always
satisfy the quandle axioms, but raw tables can be fed in and checked too.

Closures that grow a closed set one point at a time (closure_extend) cross
a new point a only with the members of moves[a], the points b for which
a ▷ b ≠ b or b ▷ a ≠ a (see moves_of).
Every other product is b or a, both already present. In a conjugation rack
moves[a] is the complement of a's centralizer, so an abelian group's rack
closes every set without a single product. A point with moves[a] == 0 is
fixed (in a conjugation rack, a central element): every subset of the fixed
points can be added to a closed set and leaves it closed, so the enumerator
runs closedsets.close_by_one over the other points only, with closure_extend
as its step, and adds the fixed ones as a Boolean factor. closure_extend
stops at the first forbidden point that enters and returns what it has so
far, that point included; the walker reads the forbidden points in it as
the witness that lets later sets skip the same extend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .closedsets import bits
from .errors import BadIndex, FormatError, NotPrime
from .groups import FiniteGroup, conjugacy_classes
from .textio import format_table, parse_table, read_file

OpTable = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ConjugationRack:
    size: int
    op: OpTable
    # ground_labels[i] = index of this point inside the source group, if any
    ground_labels: tuple[int, ...] | None = None
    name: str = ""

    def __repr__(self) -> str:
        return f"<rack {self.name or 'unnamed'}, {self.size} points>"


@dataclass(frozen=True)
class AxiomReport:
    is_rack: bool
    is_quandle: bool
    # on failure: ("A1", a, b, c) or ("A2", a) or ("A3", a)
    witnesses: tuple[tuple, ...]


def verify_rack_axioms(op: Sequence[Sequence[int]]) -> AxiomReport:
    """Check self-distributivity, bijective translations, and idempotence."""
    m = len(op)
    for row in op:
        if len(row) != m or any(not (0 <= x < m) for x in row):
            raise BadIndex("operation table is not square over [0,m)")
    witnesses: list[tuple] = [("A2", a) for a in range(m) if len(set(op[a])) != m]
    # A1: a ▷ (b ▷ c) = (a ▷ b) ▷ (a ▷ c); the first failing triple in order
    a1 = next(
        (("A1", a, b, c) for a, ra in enumerate(op) for b, rb in enumerate(op)
         for c in range(m) if ra[rb[c]] != op[ra[b]][ra[c]]),
        None,
    )
    if a1:
        witnesses.append(a1)
    is_rack = not witnesses
    a3 = next((a for a in range(m) if op[a][a] != a), None)
    if is_rack and a3 is not None:
        witnesses.append(("A3", a3))
    return AxiomReport(
        is_rack=is_rack,
        is_quandle=is_rack and a3 is None,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# constructors from groups


def _conjugation_rack(
    g: FiniteGroup, members: Sequence[int], name: str
) -> ConjugationRack:
    """Conjugation a ▷ b = a b a^-1 on members, a subset closed under it;
    point i of the rack is members[i]."""
    pos = {x: i for i, x in enumerate(members)}
    return ConjugationRack(
        size=len(members),
        op=tuple(tuple(pos[g.conj(a, b)] for b in members) for a in members),
        ground_labels=tuple(members),
        name=name,
    )


def group_rack(g: FiniteGroup) -> ConjugationRack:
    """Whole-group conjugation quandle: op[a][b] = a b a^-1."""
    return _conjugation_rack(g, range(g.order), g.name)


def conjugacy_class_rack(g: FiniteGroup, class_index: int) -> ConjugationRack:
    """Conjugation restricted to one class; classes are closed under it."""
    cc = conjugacy_classes(g)
    if not (0 <= class_index < cc.count):
        raise BadIndex(f"class index {class_index} out of range [0,{cc.count})")
    return _conjugation_rack(g, cc.classes[class_index], f"{g.name or 'G'}-class{class_index}")


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def p_power_rack(g: FiniteGroup, p: int) -> ConjugationRack:
    """Conjugation on the elements whose order is a power of p.

    The identity has order p^0 and is always kept. When p does not divide
    |G| the ground set degenerates to {identity}; that is legitimate, just
    uninteresting.
    """
    if not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    members = []
    for x in range(g.order):
        k = g.element_order(x)
        while k % p == 0:
            k //= p
        if k == 1:
            members.append(x)
    return _conjugation_rack(g, members, f"{g.name or 'G'}-{p}power")


# ---------------------------------------------------------------------------
# closure


def closure_mask(rows: Sequence[Sequence[int]], seed_mask: int) -> int:
    """Least superset of the seed closed under internal ▷, as a bitmask.

    Worklist saturation: when a point enters, cross it with everything
    already present, both ways.
    """
    mask = seed_mask
    work = bits(seed_mask)
    while work:
        a = work.pop()
        ra = rows[a]
        m = mask
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            for c in (ra[b], rows[b][a]):
                bit = 1 << c
                if not mask & bit:
                    mask |= bit
                    work.append(c)
    return mask


def moves_of(rows: Sequence[Sequence[int]]) -> list[int]:
    """moves[a]: bitmask of the points b with a ▷ b ≠ b or b ▷ a ≠ a.

    Both sides count. A rule that kept only a ▷ b ≠ b would miss b ▷ a when
    a enters a set holding b, and the converse rule would miss a ▷ b.
    """
    m = len(rows)
    out = []
    for a in range(m):
        ra = rows[a]
        mask = 0
        for b in range(m):
            if ra[b] != b or rows[b][a] != a:
                mask |= 1 << b
        out.append(mask)
    return out


def closure_extend(
    rows: Sequence[Sequence[int]],
    moves: Sequence[int],
    closed_mask: int,
    j: int,
    forbidden: int = 0,
) -> int:
    """Closure of closed_mask ∪ {j}, exploiting that closed_mask is closed.

    moves is moves_of(rows). Each point a that enters is crossed, both ways,
    only with the members in moves[a]: for any other member b the products
    are b and a, already present. As soon as a new point inside the
    forbidden mask enters, it returns the part built so far, that point
    included: a subset of the closure that holds a forbidden point, so a
    caller that would discard such a closure never pays for finishing it.
    """
    mask = closed_mask | (1 << j)
    work = [j]
    while work:
        a = work.pop()
        ra = rows[a]
        m = mask & moves[a]
        while m:
            low = m & -m
            b = low.bit_length() - 1
            m ^= low
            for c in (ra[b], rows[b][a]):
                bit = 1 << c
                if not mask & bit:
                    if bit & forbidden:
                        return mask | bit
                    mask |= bit
                    work.append(c)
    return mask


def rack_closure(rack: ConjugationRack, seeds: Iterable[int]) -> frozenset[int]:
    """Subrack generated by the seeds."""
    mask = 0
    for s in seeds:
        if not (0 <= s < rack.size):
            raise BadIndex(f"seed {s} outside ground set of size {rack.size}")
        mask |= 1 << s
    return frozenset(bits(closure_mask(rack.op, mask)))


# ---------------------------------------------------------------------------
# file format


def parse_rack(text: str, name: str = "") -> ConjugationRack:
    """Rack table text: first line m, then m rows of m indices. '#' comments."""
    op = tuple(parse_table(text))
    report = verify_rack_axioms(op)
    if not report.is_rack:
        raise FormatError(f"table violates rack axioms: {report.witnesses[0]}")
    return ConjugationRack(size=len(op), op=op, name=name)


def format_rack(rack: ConjugationRack) -> str:
    return format_table(rack.op)


def load_rack(path: str) -> ConjugationRack:
    text, name = read_file(path)
    return parse_rack(text, name=name)
