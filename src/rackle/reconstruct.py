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

import itertools
import math
import random
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

from .closedsets import bits, close_by_one, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import (
    BadPartition,
    MissingElement,
    NoPartition,
    NotGroupLattice,
    NotNormal,
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
    size, an index set of that size, one atom per part. The draws, and rng's
    state after them, are those of rng.randint(1, m), rng.sample(range(m),
    size) and rng.choice per part, at one getrandbits call a draw."""
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
        getrandbits = rng.getrandbits

        def below(n: int) -> int:        # random's _randbelow; 0 for n == 0
            k = n.bit_length()
            j = getrandbits(k)
            while j >= n > 0:
                j = getrandbits(k)
            return j

        for _ in range(limits.sample_count):
            size = 1 + below(m)
            # random.sample's pool branch: a partial Fisher–Yates over range(m)
            if m <= 21 + (4 ** math.ceil(math.log(3 * size, 4)) if size > 5 else 0):
                picked = list(range(m))
                for i in range(m - 1, m - size - 1, -1):
                    j = below(i + 1)
                    picked[i], picked[j] = picked[j], picked[i]
                picked = picked[m - size:]
            else:                        # its set branch: a repeat is redrawn
                picked = set()
                while len(picked) < size:
                    picked.add(below(m))
            idxs = tuple(sorted(picked))
            yield idxs, tuple(members[i][below(len(members[i]))] for i in idxs)

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

    The join depends only on the index set, and the exhaustive stream yields
    each index set's tuples in one run, so it is computed once per run.
    predicted depends only on the closure, so it is memoized by closure:
    each distinct closure is saturated against the parts once.
    """
    last_idxs = None
    join = 0
    predicted_of: dict[int, int] = {}
    for idxs, reps in tuples:
        if idxs != last_idxs:
            last_idxs = idxs
            union = 0
            for i in idxs:
                union |= parts[i]
            join = close(union)
        closure = close(mask_of(reps))
        predicted = predicted_of.get(closure)
        if predicted is None:
            predicted = 0
            for p in parts:
                if p & closure:
                    predicted |= p
            predicted_of[closure] = predicted
        if join != predicted:
            return idxs, reps, join, predicted
    return None


def is_hypothetical_coset_partition(
    lat: AbstractLattice,
    parts: Sequence[int],
    exhaustive: bool = False,
    seed: int = 0,
    limits: Limits = DEFAULT_LIMITS,
) -> PartitionReport:
    """Check the three coset-partition conditions on parts (masks over the
    atoms), with witnesses.

    Condition three quantifies over index sets and representative tuples; the
    check is exhaustive up to the tuple budget and seeded sampling beyond it
    (`exhaustive` forces the full sweep). The distinguished part C1 is the
    first part. A partition with no parts, an empty part, or a bit that is
    no atom fails C1 and is checked no further.
    """
    classes = recover_classes(lat)
    lines: list[str] = []
    ok = True
    full = (1 << lat.n_atoms) - 1

    covered = reduce(or_, parts, 0)
    disjoint = sum(p.bit_count() for p in parts) == covered.bit_count()
    stray = covered & ~full
    if not parts or stray or 0 in parts:
        cause = (f"bits {bits(stray)} lie beyond the {lat.n_atoms} atoms" if stray else
                 f"part {parts.index(0)} is empty" if parts else "no parts")
        return PartitionReport(ok=False, lines=(f"FAIL C1 {cause}",))
    sizes = {p.bit_count() for p in parts}
    if disjoint and covered == full and len(sizes) == 1:
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


def _breaks(part: int, rules: Iterable[tuple[int, list[int]]]) -> bool:
    """Whether part lies inside join(a ∪ b) of some rule and misses one of
    its joins join(x, y)."""
    return any(part & j == part and not all(part & r for r in reps) for j, reps in rules)


def _covers(
    lat: AbstractLattice,
    table: Sequence[Sequence[tuple[int, list[int]]]],
    full: int,
    covered: int,
    placed: list[tuple[int, list[int]]],
    rules: list[tuple[int, list[int]]],
    made: dict[tuple[int, int], tuple[int, list[int]]],
) -> Iterator[tuple[int, ...]]:
    """Exact covers of full that extend placed, a list of (part, its atoms).

    Each step places a part through the lowest uncovered atom f. Every atom
    below f is covered, so a part that holds f and misses the cover has f as
    its lowest atom: the candidates are table[f] alone, the parts whose
    lowest atom is f. Every placed part obeys the rule of every pair of
    placed parts; a new part creates one rule with each part placed before
    it. A pair's rule is made once per search and kept in made, since other
    branches place the same pair again.
    """
    if covered == full:
        yield tuple(p for p, _ in placed)
        return
    free = ~covered & full
    pj = lat.pair_joins
    for cand, atoms in table[(free & -free).bit_length() - 1]:
        if cand & covered or _breaks(cand, rules):
            continue
        new = []
        for p, q in placed:
            if (cand, p) not in made:
                made[cand, p] = (
                    lat.supports[lat.join_mask(cand | p)], [pj[x][y] for x in atoms for y in q]
                )
            new.append(made[cand, p])
        grown = placed + [(cand, atoms)]
        if not any(_breaks(p, new) for p, _ in grown):
            yield from _covers(lat, table, full, covered | cand, grown, rules + new, made)


def find_coset_partition(
    lat: AbstractLattice, n_elem: int, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, ...]:
    """Search for a coset-style partition whose distinguished part is N.

    Candidate parts are supports of lattice elements of the right size
    (cosets are subracks, so the true partition survives this restriction).
    One depth-first search over the atoms in order yields exact covers, each
    step placing a part through the lowest uncovered atom; the first cover
    that passes is_hypothetical_coset_partition is returned, as a tuple of
    part masks with N first. The candidates are indexed by their lowest
    atom, each index in the order of sorted(..., key=bits), which fixes
    which passing cover comes first.

    The search is pruned by condition C3 on pairs: for placed parts a, b and
    representatives x ∈ a, y ∈ b, every placed part inside join(a ∪ b) must
    meet join(x, y). This is sound. C3 on the index set {a, b} says
    join(a ∪ b) is the union of the parts meeting join(x, y); a part P inside
    join(a ∪ b) meets one of those parts, and parts are disjoint, so P is
    one of them and meets join(x, y). A partial cover that breaks the
    condition therefore fails C3, and so does every cover extending it.
    The joins join(x, y) are read from the lattice's cached pair_joins.
    """
    sn = lat.supports[n_elem]
    size = sn.bit_count()
    full = (1 << lat.n_atoms) - 1
    if size == 0 or lat.n_atoms % size != 0:
        raise NoPartition(f"atom count {lat.n_atoms} not divisible by part size {size}")
    table: list[list[tuple[int, list[int]]]] = [[] for _ in range(lat.n_atoms)]
    for s in sorted({s for s in lat.supports if s.bit_count() == size}, key=bits):
        table[(s & -s).bit_length() - 1].append((s, bits(s)))
    for parts in _covers(lat, table, full, sn, [(sn, bits(sn))], [], {}):
        if is_hypothetical_coset_partition(lat, parts, limits=limits).ok:
            return parts
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
    every join is reached, each from its closed set alone; the cost is
    about |quotient lattice| × m joins for m parts, not 2^m.
    Each join must be the union of the parts below it, and each part must be
    closed on its own (the parts are the atoms); anything else means the
    input is no group-rack lattice.
    """
    def union(chosen: int) -> int:
        return reduce(or_, (parts[i] for i in bits(chosen)), 0)

    def close(chosen: int) -> int:
        """The parts below the join of the chosen parts."""
        s = lat.supports[lat.join_mask(union(chosen))]
        below = mask_of(i for i, p in enumerate(parts) if p & s == p)
        if union(below) != s:
            raise NotGroupLattice("a join of parts is not a union of parts")
        return below

    for i in range(len(parts)):
        if close(1 << i) != 1 << i:
            raise NotGroupLattice("parts are not the atoms of their join poset")
    key = order_key(lat.n_atoms)
    closed = [0, *close_by_one(range(len(parts)), lambda a, j: close(a | 1 << j))]
    return AbstractLattice(sorted(closed, key=lambda b: key(union(b))))


def quotient_steps(
    lat: AbstractLattice, limits: Limits = DEFAULT_LIMITS
) -> Iterator[tuple[int, tuple[int, ...], AbstractLattice]]:
    """The quotient step, once per normal abelian candidate N with more than
    one atom: (N's support, its first passing cover, the cover's join poset).

    This is the only code that takes a quotient: the derived-length recursion
    reads it, and so does verify's check of each quotient against the group.
    """
    for n_elem in max_normal_abelian(lat):
        if lat.supports[n_elem].bit_count() > 1:
            parts = find_coset_partition(lat, n_elem, limits=limits)
            yield lat.supports[n_elem], parts, join_poset(lat, parts)


def lattice_derived_length(
    lat: AbstractLattice, limits: Limits = DEFAULT_LIMITS
) -> int | _NotSolvable:
    """Derived length read off the lattice alone.

    One atom means the trivial group. A Boolean lattice means abelian. In
    general: take each quotient step and recurse into its join poset, and
    take the minimum. With no step (every candidate a single atom) the
    recursion has stalled and the group cannot be solvable.
    """
    if lat.n_atoms <= 1:
        return 0
    if lat.is_boolean():
        return 1
    subs = [lattice_derived_length(jp, limits) for _, _, jp in quotient_steps(lat, limits)]
    solvable = [sub for sub in subs if sub is not NOT_SOLVABLE]
    return 1 + min(solvable) if solvable else NOT_SOLVABLE
