"""Recovering group structure from the bare subrack-lattice order.

Everything in this module sees only an AbstractLattice: conjugacy classes come
back as coatom complements, maximal abelian subgroups as maximal Boolean
intervals, normal abelian candidates as unions of class blocks, quotients as
join posets over coset partitions, and derived length by recursion over all of
it. Group-side counterparts (coset partitions, coset joins) live here too so
the two roads can be compared in tests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    BadPartition,
    MissingElement,
    NoPartition,
    NotGroupLattice,
    NotNormal,
)
from .groups import NOT_SOLVABLE, FiniteGroup, _NotSolvable, is_normal, is_subgroup
from .lattice import AbstractLattice, _sort_key, are_isomorphic
from .racks import bits, closure_mask, group_rack, is_closed_mask, mask_of


# ---------------------------------------------------------------------------
# context: a lattice plus everything the pipeline derives from it


@dataclass(frozen=True)
class AtomClassPartition:
    """Blocks of atoms, one per coatom: the atoms NOT below that coatom."""

    blocks: tuple[int, ...]        # masks over atom positions
    block_of: tuple[int, ...]      # atom position -> block index

    @property
    def count(self) -> int:
        return len(self.blocks)

    def sizes(self) -> tuple[int, ...]:
        return tuple(b.bit_count() for b in self.blocks)

    def central_atoms(self) -> int:
        """Mask of atoms sitting in singleton blocks."""
        out = 0
        for b in self.blocks:
            if b.bit_count() == 1:
                out |= b
        return out


class ReconstructionContext:
    """An AbstractLattice seen through its atoms.

    Atom position p is support bit p of the lattice, so parts, blocks and
    supports are masks over support bits; AbstractLattice guarantees that
    every support bit is an atom.
    """

    def __init__(self, lattice: AbstractLattice):
        self.lattice = lattice
        self.n = lattice.n_atoms

    def atom_support(self, elem: int) -> int:
        """Atoms below an element, as a support mask."""
        return self.lattice.supports[elem]

    def element_of_atoms(self, mask: int) -> int | None:
        """The lattice element whose atom set is exactly this mask, if any."""
        return self.lattice._support_index.get(mask)

    def join_atoms(self, mask: int) -> tuple[int, int]:
        """Join of a set of atoms; returns (element, its atom support)."""
        elem = self.lattice.join_mask(mask)
        return elem, self.lattice.supports[elem]


# ---------------------------------------------------------------------------
# classes, Boolean elements, normal abelian candidates


def recover_classes(
    ctx: ReconstructionContext | AbstractLattice,
) -> AtomClassPartition:
    """One block per coatom: the atoms missing under it.

    On a group-rack lattice the coatoms are the complements of single
    conjugacy classes, so the blocks tile the atom set; anything else means
    the input is not such a lattice.
    """
    if isinstance(ctx, AbstractLattice):
        ctx = ReconstructionContext(ctx)
    lat = ctx.lattice
    full = (1 << ctx.n) - 1
    blocks = []
    for co in lat.proper_maximal:
        blocks.append(full & ~ctx.atom_support(co))
    covered = 0
    for b in blocks:
        if covered & b:
            raise NotGroupLattice("coatom complements overlap")
        covered |= b
    if covered != full:
        raise NotGroupLattice("coatom complements do not cover the atoms")
    blocks.sort(key=lambda b: bits(b)[0])
    block_of = [0] * ctx.n
    for i, b in enumerate(blocks):
        for p in bits(b):
            block_of[p] = i
    return AtomClassPartition(blocks=tuple(blocks), block_of=tuple(block_of))


def maximal_boolean_elements(
    ctx: ReconstructionContext | AbstractLattice,
) -> list[int]:
    """Elements whose lower interval is Boolean, maximal among those.

    Supports are distinct, so [bottom, x] is Boolean exactly when every
    subset of supp x is a support. Those supports form a down-set: walking
    by popcount, s is Boolean when every s − {p} already is. A Boolean s is
    maximal when no s ∪ {p} is Boolean, since a larger Boolean support
    contains some s ∪ {p} and with it all of that set's subsets.
    """
    lat = ctx.lattice if isinstance(ctx, ReconstructionContext) else ctx
    if lat.is_boolean():
        return [lat.top]
    boolean: set[int] = set()
    for s in sorted(lat.supports, key=int.bit_count):
        if all(s & ~(1 << p) in boolean for p in bits(s)):
            boolean.add(s)
    return sorted(
        lat._support_index[s]
        for s in boolean
        if not any(s | 1 << p in boolean for p in range(lat.n_atoms) if not s >> p & 1)
    )


def max_normal_abelian(
    ctx: ReconstructionContext | AbstractLattice,
    classes: AtomClassPartition | None = None,
) -> list[int]:
    """Candidates for maximal normal abelian subgroups, lattice-only.

    For each maximal Boolean element A, collect the class blocks lying wholly
    below A; their union must itself be a lattice element. Keep the
    inclusion-maximal results: small unions (down to the identity atom alone)
    occur legitimately but never name a maximal normal abelian subgroup.
    """
    if isinstance(ctx, AbstractLattice):
        ctx = ReconstructionContext(ctx)
    if classes is None:
        classes = recover_classes(ctx)
    cands = []
    for a in maximal_boolean_elements(ctx):
        sa = ctx.atom_support(a)
        union = 0
        for b in classes.blocks:
            if b & sa == b:
                union |= b
        elem = ctx.element_of_atoms(union)
        if elem is None:
            raise MissingElement(
                f"class-block union {union:b} is not a lattice element"
            )
        cands.append(elem)
    out = []
    seen = set()
    for x in cands:
        if x in seen:
            continue
        seen.add(x)
        sx = ctx.atom_support(x)
        if not any(
            sx != ctx.atom_support(y) and sx & ctx.atom_support(y) == sx
            for y in cands
        ):
            out.append(x)
    return sorted(out)


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


def join_of_cosets(
    g: FiniteGroup, members: frozenset[int], reps: Sequence[int]
) -> frozenset[int]:
    """Union of the cosets meeting the subrack generated by the reps.

    Also computes the lattice join of the named cosets directly (closure of
    their union) and insists the two agree; representative choice must not
    matter.
    """
    parts = coset_partition_of(g, members)
    rows = group_rack(g).op
    closure = closure_mask(rows, mask_of(reps))
    union = 0
    for c in parts:
        cmask = mask_of(c)
        if cmask & closure:
            union |= cmask
    rep_cosets = 0
    for r in reps:
        for c in parts:
            if r in c:
                rep_cosets |= mask_of(c)
    direct = closure_mask(rows, rep_cosets)
    if direct != union:
        raise NotGroupLattice(
            "coset join disagrees with the union over the generated subrack"
        )
    return frozenset(bits(union))


# ---------------------------------------------------------------------------
# the partition bijection and its matching oracle


def matching_bijection_oracle(
    p_parts: Sequence[frozenset], q_parts: Sequence[frozenset]
) -> list[int] | None:
    """Perfect matching on the intersection graph, by augmenting paths."""
    m = len(p_parts)
    adj = [[j for j in range(m) if p_parts[i] & q_parts[j]] for i in range(m)]
    match_q: list[int | None] = [None] * m

    def augment(i: int, seen: set[int]) -> bool:
        for j in adj[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_q[j] is None or augment(match_q[j], seen):
                match_q[j] = i
                return True
        return False

    for i in range(m):
        if not augment(i, set()):
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
    distinguished: int = 0

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


def rep_tuples(
    parts: Sequence[int], rng: random.Random | None = None, count: int = 0
):
    """(index set, representative tuple) pairs over the parts, as tuples.

    With no rng, every pair: index sets by size, then lexicographically,
    and for each every choice of one atom per part. With an rng, `count`
    seeded samples: a size, an index set of that size, one atom per part.
    """
    m = len(parts)
    members = [bits(p) for p in parts]
    if rng is None:
        for r in range(1, m + 1):
            for idxs in itertools.combinations(range(m), r):
                for reps in itertools.product(*(members[i] for i in idxs)):
                    yield idxs, reps
        return
    for _ in range(count):
        r = rng.randint(1, m)
        idxs = tuple(sorted(rng.sample(range(m), r)))
        yield idxs, tuple(rng.choice(members[i]) for i in idxs)


def is_hypothetical_coset_partition(
    ctx: ReconstructionContext,
    partition: HypotheticalCosetPartition,
    classes: AtomClassPartition | None = None,
    mode: str = "auto",
    seed: int = 0,
    limits: Limits = DEFAULT_LIMITS,
) -> PartitionReport:
    """Check the three coset-partition conditions, with witnesses.

    Condition three quantifies over index sets and representative tuples; the
    check is exhaustive up to the tuple budget and seeded sampling beyond it
    (mode "exhaustive" forces the full sweep, "sample" forces sampling).
    """
    if classes is None:
        classes = recover_classes(ctx)
    lines: list[str] = []
    ok = True
    parts = list(partition.parts)
    m = len(parts)
    full = (1 << ctx.n) - 1

    covered = 0
    disjoint = True
    for p in parts:
        if covered & p:
            disjoint = False
        covered |= p
    sizes = {p.bit_count() for p in parts}
    if disjoint and covered == full and len(sizes) == 1 and 0 not in sizes:
        lines.append(f"PASS C1 {m} parts of size {sizes.pop()}")
    else:
        ok = False
        lines.append(
            "FAIL C1 "
            + ("parts overlap" if not disjoint else
               "parts miss atoms" if covered != full else
               f"part sizes {sorted(sizes)}")
        )

    c1 = parts[partition.distinguished]
    union_blocks = 0
    for b in classes.blocks:
        if b & c1 == b:
            union_blocks |= b
    central = classes.central_atoms()
    if union_blocks == c1 and c1 & central:
        lines.append("PASS C2 distinguished part is a class union with a central atom")
    else:
        ok = False
        if union_blocks != c1:
            lines.append("FAIL C2 distinguished part is not a union of class blocks")
        else:
            lines.append("FAIL C2 distinguished part has no central atom")

    space = _tuple_space(parts)
    exhaustive = mode == "exhaustive" or (mode == "auto" and space <= limits.tuple_budget)
    witness = None
    rng = None if exhaustive else random.Random(seed)
    for idxs, reps in rep_tuples(parts, rng, limits.sample_count):
        union = 0
        for i in idxs:
            union |= parts[i]
        _, lhs = ctx.join_atoms(union)
        _, closure = ctx.join_atoms(mask_of(reps))
        rhs = 0
        for p in parts:
            if p & closure:
                rhs |= p
        if lhs != rhs:
            witness = f"I={idxs} reps={reps}"
            break
    if witness is not None:
        ok = False
        lines.append(f"FAIL C3 {witness}")
    elif exhaustive:
        lines.append(f"PASS C3 exhaustive over {space} tuples")
    else:
        lines.append(
            f"PASS C3 sampled {limits.sample_count} of ~{space} tuples (seed {seed})"
        )

    return PartitionReport(ok=ok, lines=tuple(lines))


def find_coset_partition(
    ctx: ReconstructionContext,
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
    """
    if classes is None:
        classes = recover_classes(ctx)
    sn = ctx.atom_support(n_elem)
    size = sn.bit_count()
    full = (1 << ctx.n) - 1
    if size == 0 or ctx.n % size != 0:
        raise NoPartition(f"atom count {ctx.n} not divisible by part size {size}")
    pool = sorted({s for s in ctx.lattice.supports if s.bit_count() == size}, key=bits)

    def join(mask: int) -> int:
        return ctx.join_atoms(mask)[1]

    def pair_rule(a: int, b: int) -> tuple[int, list[int]]:
        """join(a ∪ b), and the joins join(x, y) that each part inside it meets."""
        return join(a | b), [join(1 << x | 1 << y) for x in bits(a) for y in bits(b)]

    def obeys(part: int, rule: tuple[int, list[int]]) -> bool:
        j, rep_joins = rule
        return part & j != part or all(part & r for r in rep_joins)

    def covers(covered: int, chosen: list[int], rules: list):
        if covered == full:
            yield tuple(chosen)
            return
        free = ~covered & full
        first_free = (free & -free).bit_length() - 1
        for cand in pool:
            if not cand >> first_free & 1 or cand & covered:
                continue
            if not all(obeys(cand, rule) for rule in rules):
                continue
            new = [pair_rule(cand, prev) for prev in chosen]
            placed = chosen + [cand]
            if all(obeys(p, rule) for rule in new for p in placed):
                yield from covers(covered | cand, placed, rules + new)

    for parts in covers(sn, [sn], []):
        partition = HypotheticalCosetPartition(parts=parts, distinguished=0)
        if is_hypothetical_coset_partition(
            ctx, partition, classes=classes, limits=limits
        ).ok:
            return partition
    raise NoPartition("no candidate partition satisfies the conditions")


# ---------------------------------------------------------------------------
# join poset and the recursion


def join_poset(
    ctx: ReconstructionContext, partition: HypotheticalCosetPartition
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
        _, s = ctx.join_atoms(union)
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

    def walk(a: int, j_from: int) -> None:
        for j in range(j_from, m):
            if a >> j & 1:
                continue
            b, s = close(a | 1 << j)
            # canonical test: the closure adds no part before j
            if b & ((1 << j) - 1) == a & ((1 << j) - 1):
                part_sets[s] = b
                walk(b, j + 1)

    walk(0, 0)
    return AbstractLattice([part_sets[s] for s in sorted(part_sets, key=_sort_key)])


def _memo_key(lat: AbstractLattice) -> tuple:
    pops = tuple(sorted(s.bit_count() for s in lat.supports))
    return (lat.size, lat.n_atoms, pops)


def lattice_derived_length(
    lat: AbstractLattice,
    limits: Limits = DEFAULT_LIMITS,
    _memo: dict | None = None,
) -> int | _NotSolvable:
    """Derived length read off the lattice alone.

    One atom means the trivial group. A Boolean lattice means abelian. In
    general: recover classes, take the maximal normal abelian candidates; if
    they are all single atoms the recursion has stalled and the group cannot
    be solvable; otherwise recurse into each candidate's quotient lattice and
    take the minimum. Memoized up to isomorphism within one run.
    """
    if _memo is None:
        _memo = {}
    ctx = ReconstructionContext(lat)
    if ctx.n <= 1:
        return 0
    if lat.is_boolean():
        return 1
    key = _memo_key(lat)
    for cached_lat, cached_val in _memo.get(key, ()):
        if are_isomorphic(cached_lat, lat, limits=limits) is not None:
            return cached_val
    classes = recover_classes(ctx)
    cands = max_normal_abelian(ctx, classes)
    nontrivial = [x for x in cands if ctx.atom_support(x).bit_count() > 1]
    if not nontrivial:
        result: int | _NotSolvable = NOT_SOLVABLE
    else:
        best: int | _NotSolvable = NOT_SOLVABLE
        for n_elem in nontrivial:
            partition = find_coset_partition(ctx, n_elem, classes, limits=limits)
            quot = join_poset(ctx, partition)
            sub = lattice_derived_length(quot, limits=limits, _memo=_memo)
            if sub is NOT_SOLVABLE:
                continue
            cand_val = 1 + sub
            if best is NOT_SOLVABLE or cand_val < best:
                best = cand_val
        result = best
    _memo.setdefault(key, []).append((lat, result))
    return result
