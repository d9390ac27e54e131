"""Recovering group structure from the bare subrack-lattice order.

Everything in this module sees only an AbstractLattice: conjugacy classes come
back as coatom complements, maximal abelian subgroups as maximal Boolean
intervals, normal abelian candidates as unions of class blocks, quotients as
join posets over coset partitions, and derived length by recursion over all of
it. Atom p is support bit p, so parts, blocks and supports are all masks over
support bits. The group-side coset partition lives here too so the two roads
can be compared in tests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    BadPartition,
    MissingElement,
    NoPartition,
    NotGroupLattice,
    NotNormal,
)
from .groups import NOT_SOLVABLE, FiniteGroup, _NotSolvable, is_normal, is_subgroup
from .lattice import AbstractLattice, order_key
from .racks import bits, group_rack, is_closed_mask, mask_of


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
    the input is not such a lattice.
    """
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
    """
    if classes is None:
        classes = recover_classes(lat)
    sup = lat.supports
    cands = set()
    for a in lat.maximal_boolean:
        union = sum(b for b in classes.blocks if b & sup[a] == b)
        elem = lat.support_index.get(union)
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
    """Cosets of a normal subgroup; each one is checked to be a subrack."""
    if not is_subgroup(g, members) or not is_normal(g, members):
        raise NotNormal("coset partition needs a normal subgroup")
    seen = set()
    parts = []
    for x in range(g.order):
        if x in seen:
            continue
        coset = frozenset(g.mul[x][h] for h in members)
        seen |= coset
        parts.append(coset)
    rows = group_rack(g).op
    for c in parts:
        if not is_closed_mask(rows, mask_of(c)):
            raise NotNormal(f"coset {sorted(c)} is not closed under conjugation")
    parts.sort(key=lambda c: (g.identity not in c, min(c)))
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
class HypotheticalCosetPartition:
    parts: tuple[int, ...]         # masks over atom positions, C1 first

    @property
    def count(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    lines: tuple[str, ...]

    def text(self) -> str:
        return "\n".join(self.lines)


def _tuple_space(parts: Sequence[int]) -> int:
    """Number of (index set, representative tuple) pairs to check: the sum
    over nonempty index sets of the product of part sizes, ∏(1 + |Pᵢ|) − 1."""
    return math.prod(p.bit_count() + 1 for p in parts) - 1


def c3_tuples(
    parts: Sequence[int], rng: random.Random, exhaustive: bool, limits: Limits
) -> tuple[int, bool, Iterator[tuple[tuple[int, ...], tuple[int, ...]]]]:
    """(tuple space, sampled, stream) of the (index set, reps) pairs for C3.

    Within limits.tuple_budget, or with exhaustive, the stream is every pair:
    index sets by size, then lexicographically, each with every choice of one
    atom per part. Beyond it, limits.sample_count samples drawn from rng: a
    size, an index set of that size, one atom per part."""
    space = _tuple_space(parts)
    sampled = not exhaustive and space > limits.tuple_budget
    m = len(parts)
    members = [bits(p) for p in parts]

    def stream() -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
        if not sampled:
            for r in range(1, m + 1):
                for idxs in itertools.combinations(range(m), r):
                    for reps in itertools.product(*(members[i] for i in idxs)):
                        yield idxs, reps
            return
        for _ in range(limits.sample_count):
            idxs = tuple(sorted(rng.sample(range(m), rng.randint(1, m))))
            yield idxs, tuple(rng.choice(members[i]) for i in idxs)

    return space, sampled, stream()


def c3_witness(
    parts: Sequence[int],
    close: Callable[[int], int],
    tuples: Iterable[tuple[tuple[int, ...], tuple[int, ...]]],
) -> tuple[tuple[int, ...], tuple[int, ...], int, int] | None:
    """The first (index set, reps, join, predicted) that breaks C3, or None.

    C3: the closure of the union of the indexed parts (join) is the union of
    the parts that meet the closure of the reps (predicted). close is the
    lattice join on the lattice side and the rack closure on the group side.
    """
    for idxs, reps in tuples:
        union = 0
        for i in idxs:
            union |= parts[i]
        join = close(union)
        closure = close(mask_of(reps))
        predicted = 0
        for p in parts:
            if p & closure:
                predicted |= p
        if join != predicted:
            return idxs, reps, join, predicted
    return None


def is_hypothetical_coset_partition(
    lat: AbstractLattice,
    partition: HypotheticalCosetPartition,
    classes: AtomClassPartition | None = None,
    exhaustive: bool = False,
    seed: int = 0,
    limits: Limits = DEFAULT_LIMITS,
) -> PartitionReport:
    """Check the three coset-partition conditions, with witnesses.

    Condition three quantifies over index sets and representative tuples; the
    check is exhaustive up to the tuple budget and seeded sampling beyond it
    (`exhaustive` forces the full sweep). The distinguished part C1 is the
    first part. A partition with no parts, or with a bit that is no atom,
    fails C1 and is checked no further.
    """
    if classes is None:
        classes = recover_classes(lat)
    lines: list[str] = []
    ok = True
    parts = list(partition.parts)
    full = (1 << lat.n_atoms) - 1

    covered = reduce(or_, parts, 0)
    disjoint = sum(p.bit_count() for p in parts) == covered.bit_count()
    stray = covered & ~full
    if not parts or stray:
        cause = f"bits {bits(stray)} lie beyond the {lat.n_atoms} atoms" if stray else "no parts"
        return PartitionReport(ok=False, lines=(f"FAIL C1 {cause}",))
    sizes = {p.bit_count() for p in parts}
    if disjoint and covered == full and len(sizes) == 1 and 0 not in sizes:
        lines.append(f"PASS C1 {len(parts)} parts of size {sizes.pop()}")
    else:
        ok = False
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

    space, sampled, tuples = c3_tuples(parts, random.Random(seed), exhaustive, limits)
    witness = c3_witness(parts, lambda mask: lat.supports[lat.join_mask(mask)], tuples)
    if witness is not None:
        ok = False
        lines.append(f"FAIL C3 I={witness[0]} reps={witness[1]}")
    elif not sampled:
        lines.append(f"PASS C3 exhaustive over {space} tuples")
    else:
        lines.append(
            f"PASS C3 sampled {limits.sample_count} of ~{space} tuples (seed {seed})"
        )

    return PartitionReport(ok=ok, lines=tuple(lines))


def _pair_rule(lat: AbstractLattice, a: int, b: int) -> tuple[int, list[int]]:
    """join(a ∪ b), and the joins join(x, y) that each part inside it meets."""
    pj = lat.pair_joins
    return lat.supports[lat.join_mask(a | b)], [pj[x][y] for x in bits(a) for y in bits(b)]


def _obeys(part: int, rule: tuple[int, list[int]]) -> bool:
    j, rep_joins = rule
    return part & j != part or all(part & r for r in rep_joins)


def _covers(
    pool: Sequence[int],
    full: int,
    lat: AbstractLattice,
    covered: int,
    chosen: list[int],
    rules: list[tuple[int, list[int]]],
) -> Iterator[tuple[int, ...]]:
    """Exact covers of full by parts from pool that extend chosen, each step
    placing a part through the lowest uncovered atom, and every placed part
    obeying the rule of every pair of placed parts."""
    if covered == full:
        yield tuple(chosen)
        return
    free = ~covered & full
    first_free = (free & -free).bit_length() - 1
    for cand in pool:
        if not cand >> first_free & 1 or cand & covered:
            continue
        if not all(_obeys(cand, rule) for rule in rules):
            continue
        new = [_pair_rule(lat, cand, prev) for prev in chosen]
        placed = chosen + [cand]
        if all(_obeys(p, rule) for rule in new for p in placed):
            yield from _covers(pool, full, lat, covered | cand, placed, rules + new)


def find_coset_partition(
    lat: AbstractLattice,
    n_elem: int,
    classes: AtomClassPartition | None = None,
    limits: Limits = DEFAULT_LIMITS,
) -> HypotheticalCosetPartition:
    """Search for a coset-style partition whose distinguished part is N.

    Candidate parts are supports of lattice elements of the right size
    (cosets are subracks, so the true partition survives this restriction).
    One depth-first search over the atoms in order yields exact covers, each
    step placing a part through the lowest uncovered atom; the first cover
    that passes is_hypothetical_coset_partition is returned.

    The search is pruned by condition C3 on pairs: for placed parts a, b and
    representatives x ∈ a, y ∈ b, every placed part inside join(a ∪ b) must
    meet join(x, y). This is sound. C3 on the index set {a, b} says
    join(a ∪ b) is the union of the parts meeting join(x, y); a part P inside
    join(a ∪ b) meets one of those parts, and parts are disjoint, so P is
    one of them and meets join(x, y). A partial cover that breaks the
    condition therefore fails C3, and so does every cover extending it.
    The joins join(x, y) are read from the lattice's cached pair_joins.
    """
    if classes is None:
        classes = recover_classes(lat)
    sn = lat.supports[n_elem]
    size = sn.bit_count()
    full = (1 << lat.n_atoms) - 1
    if size == 0 or lat.n_atoms % size != 0:
        raise NoPartition(f"atom count {lat.n_atoms} not divisible by part size {size}")
    pool = sorted({s for s in lat.supports if s.bit_count() == size}, key=bits)
    for parts in _covers(pool, full, lat, sn, [sn], []):
        partition = HypotheticalCosetPartition(parts=parts)
        if is_hypothetical_coset_partition(
            lat, partition, classes=classes, limits=limits
        ).ok:
            return partition
    raise NoPartition("no candidate partition satisfies the conditions")


# ---------------------------------------------------------------------------
# join poset and the recursion


def join_poset(
    lat: AbstractLattice, partition: HypotheticalCosetPartition
) -> AbstractLattice:
    """Joins of unions of parts, as a lattice whose atoms are the parts.

    On a genuine group-rack lattice this is the subrack lattice of the
    quotient. It is enumerated by Close-by-One over part indices with the
    closure S ↦ {parts below join(∪S)}: the lectic walk of the subrack
    enumeration with another closure. A set of parts has the same join as
    its closure, so every join is reached, each from its closed set alone;
    the cost is about |quotient lattice| × m joins for m parts, not 2^m.
    Each join must be the union of the parts below it, and each part must be
    closed on its own (the parts are the atoms); anything else means the
    input is no group-rack lattice.
    """
    parts = partition.parts
    m = len(parts)

    def close(chosen: int) -> tuple[int, int]:
        """(parts below the join of the chosen parts, that join's support)."""
        union = 0
        for i in bits(chosen):
            union |= parts[i]
        s = lat.supports[lat.join_mask(union)]
        below = 0
        covered = 0
        for i, p in enumerate(parts):
            if p & s == p:
                below |= 1 << i
                covered |= p
        if covered != s:
            raise NotGroupLattice("a join of parts is not a union of parts")
        return below, s

    for i in range(m):
        if close(1 << i)[0] != 1 << i:
            raise NotGroupLattice("parts are not the atoms of their join poset")
    part_sets = {0: 0}   # join support -> closed set of part indices
    stack = [(0, 0)]     # closed sets whose children are still being tried
    while stack:
        a, j = stack.pop()
        while j < m:
            if not a >> j & 1:
                b, s = close(a | 1 << j)
                # canonical test: the closure adds no part before j
                if b & ((1 << j) - 1) == a & ((1 << j) - 1):
                    part_sets[s] = b
                    stack.append((a, j + 1))
                    a = b
            j += 1
    key = order_key(lat.n_atoms)
    return AbstractLattice([part_sets[s] for s in sorted(part_sets, key=key)])


def lattice_derived_length(
    lat: AbstractLattice, limits: Limits = DEFAULT_LIMITS
) -> int | _NotSolvable:
    """Derived length read off the lattice alone.

    One atom means the trivial group. A Boolean lattice means abelian. In
    general: recover classes, take the maximal normal abelian candidates; if
    they are all single atoms the recursion has stalled and the group cannot
    be solvable; otherwise recurse into each candidate's quotient lattice and
    take the minimum.
    """
    if lat.n_atoms <= 1:
        return 0
    if lat.is_boolean():
        return 1
    classes = recover_classes(lat)
    cands = max_normal_abelian(lat, classes)
    # with no nontrivial candidate the recursion stalls: not solvable
    result: int | _NotSolvable = NOT_SOLVABLE
    for n_elem in (x for x in cands if lat.supports[x].bit_count() > 1):
        partition = find_coset_partition(lat, n_elem, classes, limits=limits)
        sub = lattice_derived_length(join_poset(lat, partition), limits=limits)
        if sub is not NOT_SOLVABLE and (result is NOT_SOLVABLE or 1 + sub < result):
            result = 1 + sub
    return result
