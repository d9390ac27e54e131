"""Recovering group structure from the bare subrack-lattice order.

Everything in this module sees only an AbstractLattice: conjugacy classes come
back as coatom complements, maximal abelian subgroups as maximal Boolean
intervals, normal abelian candidates as unions of class blocks, quotients as
join posets over coset partitions, and derived length by recursion over all of
it. Atom p is support bit p, so parts, blocks and supports are all masks over
support bits. The one group-side step, coset_partition_of, is here so the
two roads can be compared in tests: it takes the cosets that groups.quotient
also builds on, from groups.cosets, and checks that each is a subrack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Sequence

from .closedsets import bits, close_by_one, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import (
    BadPartition,
    MissingElement,
    NoPartition,
    NotGroupLattice,
    NotNormal,
    RackleError,
)
from .groups import NOT_SOLVABLE, FiniteGroup, _NotSolvable, cosets
from .lattice import AbstractLattice, order_key


@dataclass(frozen=True)
class AtomClassPartition:
    """Blocks of atoms, one per coatom: the atoms NOT below that coatom.
    The blocks are disjoint, so the sum of some blocks is their union."""

    blocks: tuple[int, ...]        # masks over atom positions

    @property
    def count(self) -> int:
        return len(self.blocks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def central_atoms(self) -> int:
        """Mask of atoms sitting in singleton blocks."""
        return sum(b for b in self.blocks if b.bit_count() == 1)


def ReconstructionContext(lat: AbstractLattice) -> AbstractLattice:
    """Return `lat` unchanged: every function here takes the lattice itself.

    Kept only because perfbench/workloads.py still wraps its lattice in this
    call; it goes with the next change to the benchmark.
    """
    return lat


# ---------------------------------------------------------------------------
# classes, Boolean elements, normal abelian candidates


def recover_classes(lat: AbstractLattice) -> AtomClassPartition:
    """One block per coatom: the atoms missing under it.

    On a group-rack lattice the coatoms are the complements of single
    conjugacy classes, so the blocks tile the atom set; anything else means
    the input is not such a lattice. A Boolean lattice's coatoms are top
    less one atom each, so its blocks are its atoms, with no coatom walk.
    """
    if lat.is_boolean():
        return AtomClassPartition(blocks=tuple(1 << p for p in range(lat.n_atoms)))
    full = (1 << lat.n_atoms) - 1
    blocks = [full & ~lat.supports[co] for co in lat.proper_maximal]
    covered = 0
    for b in blocks:
        if covered & b:
            raise NotGroupLattice("coatom complements overlap")
        covered |= b
    if covered != full:
        raise NotGroupLattice("coatom complements do not cover the atoms")
    blocks.sort(key=lambda b: bits(b)[0])
    return AtomClassPartition(blocks=tuple(blocks))


def maximal_boolean_elements(lat: AbstractLattice) -> list[int]:
    """Elements whose lower interval is Boolean, maximal among those.

    A copy of lat.maximal_boolean, which each lattice computes once.
    """
    return list(lat.maximal_boolean)


def max_normal_abelian(
    lat: AbstractLattice,
    classes: AtomClassPartition | None = None,
) -> list[int]:
    """Candidates for maximal normal abelian subgroups, lattice-only.

    For each maximal Boolean element A, collect the class blocks lying wholly
    below A; their union must itself be a lattice element. Keep the
    inclusion-maximal results: small unions (down to the identity atom alone)
    occur legitimately but never name a maximal normal abelian subgroup.
    A union equal to A's support is A, with no lookup (on a Boolean lattice, always).
    """
    if classes is None:
        classes = recover_classes(lat)
    sup = lat.supports
    cands = set()
    for a in lat.maximal_boolean:
        union = sum(b for b in classes.blocks if b & sup[a] == b)
        elem = a if union == sup[a] else lat.support_index.get(union)
        if elem is None:
            raise MissingElement(
                f"class-block union {union:b} is not a lattice element"
            )
        cands.add(elem)
    return sorted(
        x for x in cands if not any(x != y and sup[x] & sup[y] == sup[x] for y in cands)
    )


# ---------------------------------------------------------------------------
# group-side coset machinery (the other road, for cross-checking)


def coset_partition_of(
    g: FiniteGroup, members: frozenset[int]
) -> list[frozenset[int]]:
    """The cosets of a normal subgroup, each checked to be a subrack: the
    identity's coset first, the rest by least member. Each coset is checked
    by g.conj over its own pairs: |G|·|N| products, no |G|² rack table."""
    parts = cosets(g, members)
    for c in parts:
        if any(g.conj(x, y) not in c for x in c for y in c):
            raise NotNormal(f"coset {sorted(c)} is not closed under conjugation")
    parts.sort(key=lambda c: g.identity not in c)
    return parts


# ---------------------------------------------------------------------------
# the partition bijection and its matching oracle


def matching_bijection_oracle(
    p_parts: Sequence[frozenset], q_parts: Sequence[frozenset]
) -> list[int] | None:
    """Perfect matching on the intersection graph, by augmenting paths.

    Each part of P in turn starts a depth-first search for a free part of Q,
    kept as a loop: taken holds the parts of Q on the alternating path, and
    nexts, for each part of P on it, the rest of its row to try.
    """
    m = len(p_parts)
    adj = [[j for j in range(m) if p_parts[i] & q_parts[j]] for i in range(m)]
    match_q: list[int | None] = [None] * m
    for root in range(m):
        seen: set[int] = set()
        taken: list[int] = []
        nexts = [iter(adj[root])]
        while nexts:
            j = next((j for j in nexts[-1] if j not in seen), None)
            if j is None:                # a dead end: back up one step
                nexts.pop()
                del taken[-1:]
            elif match_q[j] is None:     # flip the path, root first
                i = root
                for q in taken + [j]:
                    i, match_q[q] = match_q[q], i
                break
            else:
                seen.add(j)
                taken.append(j)
                nexts.append(iter(adj[match_q[j]]))
        else:
            return None
    f: list[int] = [0] * m
    for j, i in enumerate(match_q):
        f[i] = j
    return f


def partition_bijection(
    p_parts: Sequence[Iterable], q_parts: Sequence[Iterable]
) -> list[int]:
    """Bijection i -> f(i) between part indices with P_i ∩ Q_f(i) never empty.

    Two partitions of one set into parts of one size s always admit one, by
    Hall's condition: k parts of P cover k·s points, and a part of Q holds
    only s of them, so those k parts meet at least k parts of Q. The
    augmenting-path matcher therefore always finds a perfect matching.
    """
    ps = [frozenset(p) for p in p_parts]
    qs = [frozenset(q) for q in q_parts]
    if len(ps) != len(qs) or not ps:
        raise BadPartition("partitions must have the same nonzero part count")
    sizes = {len(p) for p in ps} | {len(q) for q in qs}
    if len(sizes) != 1:
        raise BadPartition(f"parts must share one size, got {sorted(sizes)}")
    union_p = frozenset(x for p in ps for x in p)
    union_q = frozenset(x for q in qs for x in q)
    n = sizes.pop()
    if len(union_p) != n * len(ps) or union_p != union_q:
        raise BadPartition("inputs must partition the same set")
    f = matching_bijection_oracle(ps, qs)
    if f is None:
        raise BadPartition("no intersecting bijection exists")
    return f


# ---------------------------------------------------------------------------
# hypothetical coset partitions


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    lines: tuple[str, ...]
    join_poset: AbstractLattice | None = None    # built when C3 passes

    def text(self) -> str:
        return "\n".join(self.lines)


def _c3(lat: AbstractLattice, parts: Sequence[int]) -> PartitionReport:
    """Condition C3 on a partition of the atoms, exactly, by two facts.

    C3: for every index set I and every tuple X of one atom from each part
    in I, join(U) = sat(join(X)), where U is the union of the parts in I and
    sat(S) is the union of the parts that meet S. It holds exactly when
    (A) every join of a set of parts is a union of parts, and
    (B) sat(S) is a lattice element for every element S.
    (A) and (B) give C3: with J = join(U) and Y = join(X), Y ⊆ J, so
    sat(Y) ⊆ sat(J) = J by (A); sat(Y) holds U and is an element by (B), so
    J ⊆ sat(Y). C3 gives (A), since J = sat(Y), and (B): for an element S,
    take X in S, one atom from each part meeting S; sat(join(X)) = sat(S),
    so sat(S) = join(sat(S)).

    (B) costs one pass over the supports, at ⌈m/8⌉ table lookups each for
    m atoms. Table k maps a byte c, atoms 8k up, to the union of the parts
    its atoms lie in, built by doubling once per atom. sat(S) is the union
    of the parts of S's atoms, and a union splits over S's bytes, so ORing
    one entry per byte gives it exactly. (A) is what join_poset checks as
    it walks the joins of parts, so the join poset comes back with a PASS.
    """
    owner = [0] * lat.n_atoms             # atom -> the part holding it
    for p in parts:
        for a in bits(p):
            owner[a] = p
    tables = []
    for k in range(0, lat.n_atoms, 8):
        table = [0]
        for p in owner[k:k + 8]:
            table += [t | p for t in table]
        tables.append(table)
    for s in lat.supports:
        sat, rest = 0, s
        for table in tables:
            sat |= table[rest & 255]
            rest >>= 8
        if sat not in lat.support_index:
            added = next(i for i, p in enumerate(parts) if p & s and p & ~s)
            return PartitionReport(False, (
                f"FAIL C3 S={bits(s)}: sat(S) adds part {added} and is no element",))
    try:
        jp = join_poset(lat, parts)
    except NotGroupLattice as exc:
        return PartitionReport(False, (f"FAIL C3 {exc}",))
    return PartitionReport(True, (
        f"PASS C3 sat(S) is an element for all {lat.size} S, "
        f"and the {jp.size} joins of parts are unions of parts",), jp)


def is_hypothetical_coset_partition(
    lat: AbstractLattice, parts: Sequence[int]
) -> PartitionReport:
    """Check the three coset-partition conditions on parts (masks over the
    atoms), with witnesses; a PASS carries the parts' join poset.

    The distinguished part C1 is the first part. A partition with no parts,
    an empty part, or a bit that is no atom fails C1 and is checked no
    further. C3 is checked exactly (see _c3), on partitions only: after a
    C1 failure it is not reported.
    """
    classes = recover_classes(lat)
    lines: list[str] = []
    full = (1 << lat.n_atoms) - 1

    covered = reduce(or_, parts, 0)
    disjoint = sum(p.bit_count() for p in parts) == covered.bit_count()
    stray = covered & ~full
    if not parts or stray or 0 in parts:
        cause = (f"bits {bits(stray)} lie beyond the {lat.n_atoms} atoms" if stray else
                 f"part {parts.index(0)} is empty" if parts else "no parts")
        return PartitionReport(ok=False, lines=(f"FAIL C1 {cause}",))
    sizes = {p.bit_count() for p in parts}
    partition = disjoint and covered == full and len(sizes) == 1
    ok = partition
    if partition:
        lines.append(f"PASS C1 {len(parts)} parts of size {sizes.pop()}")
    else:
        lines.append(
            "FAIL C1 "
            + ("parts overlap" if not disjoint else
               "parts miss atoms" if covered != full else
               f"part sizes {sorted(sizes)}")
        )

    c1 = parts[0]
    union_blocks = sum(b for b in classes.blocks if b & c1 == b)
    central = classes.central_atoms()
    if union_blocks == c1 and c1 & central:
        lines.append("PASS C2 distinguished part is a class union with a central atom")
    else:
        ok = False
        if union_blocks != c1:
            lines.append("FAIL C2 distinguished part is not a union of class blocks")
        else:
            lines.append("FAIL C2 distinguished part has no central atom")

    if not partition:
        return PartitionReport(ok=False, lines=tuple(lines))
    c3 = _c3(lat, parts)
    return PartitionReport(ok and c3.ok, tuple(lines) + c3.lines, c3.join_poset)


def _covers(
    lat: AbstractLattice,
    table: Sequence[Sequence[int]],
    full: int,
    covered: int,
    placed: list[int],
    joins: list[int],
    memo: dict[int, int],
) -> Iterator[tuple[int, ...]]:
    """Exact covers of full that extend placed; joins holds the support of
    join(p ∪ q) for each pair p, q of placed parts, and memo the support of
    each join(p ∪ q) found so far, by p | q, for every branch to share.

    Each step places a part through the lowest uncovered atom f. Every atom
    below f is covered, so a part that holds f and misses the cover has f as
    its lowest atom: the candidates are table[f] alone, the parts whose
    lowest atom is f. No placed part straddles a join in joins: a candidate
    that meets one without lying inside it is skipped, and its own joins
    with the placed parts must split none of them (it lies inside each).
    """
    if covered == full:
        yield tuple(placed)
        return
    free = ~covered & full
    for cand in table[(free & -free).bit_length() - 1]:
        if cand & covered or any(cand & j and cand & j != cand for j in joins):
            continue
        new = []
        for u in (cand | p for p in placed):
            if u not in memo:
                memo[u] = lat.supports[lat.join_mask(u)]
            new.append(memo[u])
        if not any(p & j and p & j != p for j in new for p in placed):
            yield from _covers(lat, table, full, covered | cand, placed + [cand],
                               joins + new, memo)


def find_coset_partition(
    lat: AbstractLattice, n_elem: int
) -> tuple[tuple[int, ...], AbstractLattice]:
    """Search for a coset-style partition whose distinguished part is N.

    Candidate parts are supports of lattice elements of the right size
    (cosets are subracks, so the true partition survives this restriction).
    One depth-first search over the atoms in order yields exact covers, each
    step placing a part through the lowest uncovered atom; the first cover
    that passes is_hypothetical_coset_partition is returned, as a tuple of
    part masks with N first, with the join poset that check built. The
    candidates are indexed by their lowest atom, each index in the order of
    sorted(..., key=bits), which fixes which passing cover comes first.

    The search is pruned by fact (A) of _c3 on pairs: every placed part lies
    inside or outside join(a ∪ b) for every pair a, b of placed parts. This
    is sound. A cover that passes C3 satisfies (A), so join(a ∪ b) is a
    union of its parts, and a part, disjoint from the others, lies inside
    that union or misses it. A partial cover with a part that straddles such
    a join therefore fails C3, and so does every cover extending it.
    """
    sn = lat.supports[n_elem]
    size = sn.bit_count()
    full = (1 << lat.n_atoms) - 1
    if size == 0 or lat.n_atoms % size != 0:
        raise NoPartition(f"atom count {lat.n_atoms} not divisible by part size {size}")
    table: list[list[int]] = [[] for _ in range(lat.n_atoms)]
    for s in sorted({s for s in lat.supports if s.bit_count() == size}, key=bits):
        table[(s & -s).bit_length() - 1].append(s)
    for parts in _covers(lat, table, full, sn, [sn], [], {}):
        rep = is_hypothetical_coset_partition(lat, parts)
        if rep.ok:
            return parts, rep.join_poset
    raise NoPartition("no candidate partition satisfies the conditions")


# ---------------------------------------------------------------------------
# join poset and the recursion


def join_poset(lat: AbstractLattice, parts: Sequence[int]) -> AbstractLattice:
    """Joins of unions of parts (masks over the atoms), as a lattice whose
    atoms are the parts.

    On a genuine group-rack lattice this is the subrack lattice of the
    quotient. It is enumerated by close_by_one over part indices with the
    closure S ↦ {parts below join(∪S)}, the subrack enumeration's walk with
    another closure. A set of parts has the same join as its closure, so
    every join is reached, each from its closed set alone; the cost is at
    most about |quotient lattice| × m joins for m parts, not 2^m.
    Each join must be the union of the parts below it, and each part must be
    closed on its own (the parts are the atoms); anything else means the
    input is no group-rack lattice.

    The walk skips the extends that an earlier failure decides, and the
    union check still sees every join. A join of any set S of parts is the
    join of its closed set C, since ∪S ⊆ ∪C ⊆ join(∪S). The walk reaches C
    canonically, by one close call on some a ∪ {j} whose closure is C, and
    that call checks join(∪(a ∪ {j})), which is the same join again.
    """
    def union(chosen: int) -> int:
        return reduce(or_, (parts[i] for i in bits(chosen)), 0)

    def close(chosen: int) -> int:
        """The parts below the join of the chosen parts."""
        s = lat.supports[lat.join_mask(union(chosen))]
        below = mask_of(i for i, p in enumerate(parts) if p & s == p)
        if union(below) != s:
            raise NotGroupLattice(
                f"a join of parts is not a union of parts: I={bits(chosen)}")
        return below

    for i in range(len(parts)):
        if close(1 << i) != 1 << i:
            raise NotGroupLattice(f"parts are not the atoms of their join poset: part {i}")
    key = order_key(lat.n_atoms)
    closed = [0, *close_by_one(range(len(parts)), lambda a, j: close(a | 1 << j))]
    return AbstractLattice(sorted(closed, key=lambda b: key(union(b))))


# (N's support, its cover's parts, the cover's join poset)
Step = tuple[int, tuple[int, ...], AbstractLattice]


def quotient_steps(lat: AbstractLattice) -> Iterator[Step]:
    """The quotient step, once per normal abelian candidate N with more than
    one atom: (N's support, its first passing cover, the cover's join poset).

    This is the only code that takes a quotient: the derived-length recursion
    reads it, and so does verify's check of each quotient against the group.
    """
    for n_elem in max_normal_abelian(lat):
        if lat.supports[n_elem].bit_count() > 1:
            parts, jp = find_coset_partition(lat, n_elem)
            yield lat.supports[n_elem], parts, jp


def lattice_derived_length(
    lat: AbstractLattice, limits: Limits = DEFAULT_LIMITS
) -> int | _NotSolvable:
    """Derived length read off the lattice alone: derived_length_of_steps
    over lat's quotient steps, each searched only when the recursion asks
    for it. No step has a cap, so limits is read by nothing;
    perfbench/workloads.py passes it.
    """
    return derived_length_of_steps(lat, quotient_steps(lat))


def derived_length_of_steps(
    lat: AbstractLattice, steps: Iterable[Step], error: RackleError | None = None
) -> int | _NotSolvable:
    """Derived length of lat, given its quotient steps.

    One atom means the trivial group. A Boolean lattice means abelian, and
    the steps are not read. In general: recurse into each step's join poset
    and take the minimum. With no step (every candidate a single atom) the
    recursion has stalled and the group cannot be solvable. steps may be
    quotient_steps(lat) itself, or the steps a caller already holds; error
    is what cut that list short, raised after the steps before it, where
    the search would have raised it.
    """
    if lat.n_atoms <= 1:
        return 0
    if lat.is_boolean():
        return 1
    subs = [lattice_derived_length(jp) for _, _, jp in steps]
    if error is not None:
        raise error
    solvable = [sub for sub in subs if sub is not NOT_SOLVABLE]
    return 1 + min(solvable) if solvable else NOT_SOLVABLE
