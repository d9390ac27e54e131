"""Subrack lattices: enumeration, queries, label stripping, isomorphism.

The enumerator walks closed sets with closedsets.close_by_one, the one
Fast Close-by-One walker that the join poset and the normal subgroups use
too. A closure aborts at its first new point below the one being added, and
the points it gained there let every set walked under the current one skip
that extend, so cost scales with the output, never with 2^m: D12 takes
5,470 closures for 4,664 subracks, S5 11,301 for 2,406. It walks only the
moving points. A fixed point (moves[a] == 0; in a conjugation rack, a
central element) can join or leave any closed set and keep it closed, so the
lattice is the moving points' lattice times the Boolean lattice of the fixed
points, and that factor is built without a closure. The output comes in
popcount-then-lex order by construction: the walk alone is sorted, and each
fixed point merges the list with a shifted copy of itself.

There is one lattice type, AbstractLattice, which keeps the order relation
as atom supports; a SubrackLattice is one that also keeps its member sets.
Code that claims to be "lattice only" reads the supports and nothing else.
One function, relabel, moves a support list through an atom permutation:
shuffle, behind to_abstract, moves it through the one it draws, and the
isomorphism search and its check test an atom bijection with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from operator import and_, or_
from typing import Callable, Iterable, Sequence

from .closedsets import bits, close_by_one, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import FormatError, IsomorphismTimeout, TooLarge
from .racks import ConjugationRack, closure_extend, moves_of
from .textio import content_lines, ints, read_file


# bit b of byte k is bit 7 - b of entry k
_REVERSED_BYTES = bytes(int(f"{k:08b}"[::-1], 2) for k in range(256))


def order_key(width: int) -> Callable[[int], int]:
    """Sort key for masks of at most width bits: popcount, then members lex.

    Of two masks with equal popcount, the one that holds the lowest bit of
    their difference comes first. Reversing the bits at a fixed width W
    makes that bit the highest of the difference, so the key is
    popcount·2^W minus the reversal, one integer per mask. W is width
    rounded up to whole bytes, and each byte is reversed through a table.
    The width must be fixed: reversed at its own length, 0x1 would read
    the same as 0x100.

    The key is additive over disjoint masks: key(a | b) = key(a) + key(b),
    since popcounts add and so do the reversals of disjoint masks. So does
    key(m) << width | m, one integer that also holds the mask itself, and
    enumerate_closed_masks builds its order from that rule.
    """
    n = (width + 7) // 8
    shift = 8 * n

    def key(mask: int) -> int:
        rev = int.from_bytes(mask.to_bytes(n, "little").translate(_REVERSED_BYTES), "big")
        return (mask.bit_count() << shift) - rev

    return key


# ---------------------------------------------------------------------------
# enumeration


def enumerate_closed_masks(
    rack: ConjugationRack, limits: Limits = DEFAULT_LIMITS
) -> list[int]:
    """Closed subsets of the rack as bitmasks, sorted by popcount then members.

    A point a with moves[a] == 0 is fixed: σ_a is the identity and every
    σ_b fixes a. So a ▷ b and b ▷ a are b and a whenever a is fixed, and
    when a and b both move, a ▷ b moves too, since σ_a is a bijection that
    fixes every fixed point. A set is therefore closed iff its moving part
    is, and the closed sets are the closed sets of the moving points times
    every subset of the fixed points F. Close-by-One walks the moving points
    only, and the cap bounds walk · 2^|F| before any union is built.

    The order comes without a sort over the output. Each walk set s becomes
    v(s) = key(s) << m | s for the order_key of the m points, and only the
    walk is sorted by v. v adds over disjoint sets, so for a fixed point p
    the unions with p, in the same order, are the list shifted by v({p}):
    two ascending runs, which list.sort merges in linear time. The masks
    are the low m bits of the merged values.
    """
    rows, m = rack.op, rack.size
    moves = moves_of(rows)
    moving = [j for j in range(m) if moves[j]]
    fixed = [j for j in range(m) if not moves[j]]

    def extend(a: int, j: int) -> int:
        return closure_extend(rows, moves, a, j, (1 << j) - 1)

    # walk · 2^|F| > cap iff walk > walk_cap, so drawing walk_cap sets after ∅ tells
    walk_cap = limits.lattice_cap >> len(fixed)
    walk = [0, *islice(close_by_one(moving, extend), walk_cap)]
    if len(walk) > walk_cap:
        raise TooLarge(f"lattice exceeds cap of {limits.lattice_cap} elements")
    key = order_key(m)
    out = sorted(key(s) << m | s for s in walk)
    for p in fixed:
        vp = key(1 << p) << m | 1 << p
        out += [v + vp for v in out]
        out.sort()                       # two ascending runs: one merge
    full = (1 << m) - 1
    # in place: each value is freed as its mask replaces it, so the list
    # never holds both, and peak memory stays that of the output
    for i, v in enumerate(out):
        out[i] = v & full
    return out


def brute_force_closed_masks(rack: ConjugationRack) -> list[int]:
    """Oracle: scan all 2^m subsets, reading only rack.op. Small m only.

    prods[s] is the mask of every a ▷ b with a, b ∈ s; s is closed iff
    prods[s] | s == s. The table grows a block at a time. The sets whose
    highest point is k are s = t ∪ {k}, t below 2^k, and the ordered pairs
    of s are those of t, (k, k), and (k, a) and (a, k) for each a ∈ t. So
    prods[s] = prods[t] | X_k[t], where X_k[t] is bit(k ▷ k), which in a
    rack need not be k, with bit(k ▷ a) | bit(a ▷ k) for each a ∈ t. X_k is
    a union over t's members, so it doubles once per point a < k, and block
    k is one pass over the block below. The closed sets are sorted through
    a table of order_key over all 2^m masks, built the same way, as the key
    adds over disjoint points.

    At the cap, m = 20, prods and the key table hold 2^20 ints each and
    X_19 2^19. On a rack where every set is closed, a trivial one, the scan
    peaks at about 100 MB (tracemalloc, CPython 3.11).
    """
    m = rack.size
    if m > 20:
        raise TooLarge("brute-force scan is for small ground sets only")
    rows, prods, block = rack.op, [0], []
    for k in range(m):
        block = [1 << rows[k][k]]        # X_k
        for a in range(k):
            c = 1 << rows[k][a] | 1 << rows[a][k]
            block += [c | x for x in block]
        block = [p | x for p, x in zip(prods, block)]
        prods += block
    closed = [s for s, p in enumerate(prods) if p | s == s]
    del prods, block                     # before the key table, to lower the peak
    key = order_key(m)
    keys = _byte_tables([key(1 << p) for p in range(m)], 0, m)[0]
    return sorted(closed, key=keys.__getitem__)


# ---------------------------------------------------------------------------
# abstract lattice


@dataclass
class AbstractLattice:
    """Isomorphism-type object: a lattice order with all labels stripped.

    Every subrack lattice of a finite rack is atomistic: (a ▷ a) ▷ b = a ▷ b,
    so the subrack generated by a is the orbit of a under b -> a ▷ b, an atom,
    and each subrack is the join of the atoms it contains. An element is
    therefore stored as its support, the bitmask of atoms below it; support
    bit p is atom p. Order is support containment, bottom has support 0 and
    top is the union of all supports. A repeated support, a support bit that
    is no atom, or a missing bottom or top raises FormatError; with distinct
    supports, size == 2^n_atoms is exactly the Boolean lattice.
    """

    supports: list[int]
    size: int = field(init=False)
    n_atoms: int = field(init=False)     # support bits in use
    bottom: int = field(init=False)
    top: int = field(init=False)

    def __post_init__(self) -> None:
        full = reduce(or_, self.supports, 0)
        self.size = len(self.supports)
        self.n_atoms = full.bit_length()
        present = set(self.supports)
        if len(present) != self.size:
            raise FormatError(
                f"{self.size} elements but {len(present)} distinct supports: "
                "two elements over the same atoms are one element"
            )
        try:
            self.bottom = self.supports.index(0)
            self.top = self.supports.index(full)
        except ValueError:
            raise FormatError("no bottom or no top element: the order is unbounded") from None
        if not all(1 << p in present for p in range(self.n_atoms)):
            raise FormatError(
                f"{self.n_atoms} support bits but {len(self.atoms)} atoms: "
                "every support bit must be an atom"
            )

    def leq(self, x: int, y: int) -> bool:
        sx, sy = self.supports[x], self.supports[y]
        return sx & sy == sx

    @cached_property
    def atoms(self) -> list[int]:
        return [x for x, s in enumerate(self.supports) if s.bit_count() == 1]

    @cached_property
    def support_index(self) -> dict[int, int]:
        """Element index of each support."""
        return {s: i for i, s in enumerate(self.supports)}

    def is_boolean(self) -> bool:
        return self.size == 1 << self.n_atoms

    @cached_property
    def ranked(self) -> list[int]:
        """Element indices by support size, a linear extension of the order:
        bottom first, top last, and every element after all those below it."""
        return sorted(range(self.size), key=list(map(int.bit_count, self.supports)).__getitem__)

    @cached_property
    def _above(self) -> list[int]:
        """For each atom p a bitmask over ranks whose bit r is set when the
        element ranked[r] lies above p: the transpose of the ranked supports."""
        # column p of the bit strings, read from the last rank up, is entry p in binary
        width = f"0{self.n_atoms}b"
        columns = zip(*(format(self.supports[x], width) for x in reversed(self.ranked)))
        return [int("".join(c), 2) for c in columns][::-1]

    def join_mask(self, mask: int) -> int:
        """The least element whose support contains mask: the join of those atoms.

        A miss ANDs the rank rows of the atoms in mask into the upper bounds
        and takes the lowest rank: in a lattice the join has strictly fewer
        atoms than any other upper bound.
        """
        hit = self.support_index.get(mask)
        if hit is not None:
            return hit
        rows = self._above
        upper = reduce(and_, (rows[p] for p in bits(mask)), -1)
        return self.ranked[(upper & -upper).bit_length() - 1]

    @cached_property
    def pair_joins(self) -> list[list[int]]:
        """Row p holds the support of p ∨ q for each atom q: m(m+1)/2 joins
        for m atoms, once per lattice, read by the isomorphism search."""
        m = self.n_atoms
        rows = [[0] * m for _ in range(m)]
        for p in range(m):
            for q in range(p, m):
                rows[p][q] = rows[q][p] = self.supports[self.join_mask(1 << p | 1 << q)]
        return rows

    def atoms_below(self, x: int) -> list[int]:
        return [a for a in self.atoms if self.leq(a, x)]

    @cached_property
    def proper_maximal(self) -> list[int]:
        """Coatoms: maximal elements among everything below top.

        Walking by falling support size, an element below top is a coatom
        when no coatom found so far contains it: any other element lies
        below a coatom, which has more atoms and so came first. That is
        O(n·c) for c coatoms. A Boolean lattice, the 2-element one included,
        needs no walk: its coatoms are top less one atom each.
        """
        if self.is_boolean():
            full = self.supports[self.top]
            return sorted(self.support_index[full ^ 1 << p] for p in range(self.n_atoms))
        found: list[int] = []            # supports of the coatoms so far
        # top has the one largest support, so it is ranked last and skipped
        for s in map(self.supports.__getitem__, self.ranked[-2::-1]):
            for c in found:
                if s | c == c:
                    break
            else:
                found.append(s)
        return sorted(map(self.support_index.__getitem__, found))

    @cached_property
    def maximal_boolean(self) -> list[int]:
        """Elements whose lower interval is Boolean, maximal among those.

        Supports are distinct, so [bottom, x] is Boolean exactly when every
        subset of supp x is a support. Those supports form a down-set: walking
        by popcount, s is Boolean when every s − {p} already is, and each
        Boolean s costs one set insert. The walk finds them by rising
        popcount, so read backwards they come largest first, and a Boolean s
        is maximal when no maximal one kept so far contains it: a larger
        Boolean support that contains s lies under a maximal one, which has
        at least as many atoms and so came first. That is O(b·k) for b
        Boolean supports and k maximal ones.
        """
        if self.is_boolean():
            return [self.top]
        boolean: set[int] = set()
        found: list[int] = []            # the Boolean supports, by rising popcount
        for s in map(self.supports.__getitem__, self.ranked):
            t = s                        # the bits p of s still to try
            while t and s ^ (t & -t) in boolean:
                t &= t - 1
            if not t:
                boolean.add(s)
                found.append(s)
        kept: list[int] = []
        for s in reversed(found):
            for k in kept:
                if s | k == k:
                    break
            else:
                kept.append(s)
        return sorted(map(self.support_index.__getitem__, kept))

    def __repr__(self) -> str:
        return f"<abstract lattice, {self.size} elements, {self.n_atoms} atoms>"


@dataclass
class SubrackLattice(AbstractLattice):
    """A subrack lattice that keeps its member sets.

    Element x has member bitmask elements[x], in popcount-then-lex order.
    Its support (bit i per atom i inside it, atoms in element order) is
    computed once, here; every order query is AbstractLattice's. When atom i
    is the point i for every i and the atoms cover the top, as in every
    quandle, each element is its own support. Otherwise each atom is tested
    against each element, and two elements over the same atoms raise
    FormatError: no rack produces them.
    """

    elements: list[int]
    ground_size: int
    name: str = ""
    supports: list[int] = field(init=False)

    def __post_init__(self) -> None:
        # elements come popcount first, so a nonempty element is an atom when
        # it contains no earlier atom; one-point elements always are, so an
        # element meeting their union is skipped without a scan, and once
        # that union is the ground set, as in every quandle, no atom is left
        atoms: list[int] = []
        wide: list[int] = []             # the atoms with 2+ points
        points = 0                       # union of the one-point atoms
        ground = (1 << self.ground_size) - 1
        for mask in self.elements:
            if not mask or mask & points or any(a & mask == a for a in wide):
                continue
            atoms.append(mask)
            if mask.bit_count() == 1:
                points |= mask
                if points == ground:
                    break
            else:
                wide.append(mask)
        k = len(atoms)
        if atoms == [1 << i for i in range(k)] and self.elements[-1:] == [(1 << k) - 1]:
            self.supports = self.elements
        else:
            seen: dict[int, int] = {}
            self.supports = []
            for y, mask in enumerate(self.elements):
                s = mask_of(i for i, a in enumerate(atoms) if a & mask == a)
                if s in seen:
                    raise FormatError(
                        f"elements {seen[s]} and {y} contain the same atoms: the "
                        "lattice is not atomistic, so it is no subrack lattice"
                    )
                seen[s] = y
                self.supports.append(s)
        super().__post_init__()

    def __repr__(self) -> str:
        label = self.name or "lattice"
        return f"<{label}: {self.size} elements over {self.ground_size} points>"


def enumerate_subrack_lattice(
    rack: ConjugationRack, limits: Limits = DEFAULT_LIMITS
) -> SubrackLattice:
    masks = enumerate_closed_masks(rack, limits=limits)
    return SubrackLattice(elements=masks, ground_size=rack.size, name=rack.name)


def _byte_tables(images: Sequence, zero: int | str, width: int = 8) -> list[list]:
    """Table k maps a width-bit chunk c, bits width·k up of a mask, to zero
    plus images[width·k + i] for each bit i of c, lowest first. Each image
    doubles the table, added to every entry so far. There is always a table:
    with no images, [zero]."""
    tables = []
    for k in range(0, len(images) or 1, width or 1):
        table = [zero]
        for v in images[k:k + width]:
            table += [t + v for t in table]
        tables.append(table)
    return tables


def relabel(masks: Iterable[int], pi: Sequence[int]) -> list[int]:
    """Each mask, none with a bit at or past len(pi), carried through the bit
    permutation pi: bit p -> bit pi[p]. With at least 2^len(pi) masks, one
    table of the image of every mask that wide, no longer than the list,
    maps them all. Otherwise a mask goes a byte at a time through a table of
    the 256 images (sums of disjoint bits) of each byte."""
    if not isinstance(masks, list):
        masks = list(masks)
    images = [1 << q for q in pi]
    if 1 << len(pi) <= len(masks):
        return list(map(_byte_tables(images, 0, len(pi))[0].__getitem__, masks))
    tables = _byte_tables(images, 0)
    out = []
    for s in masks:
        t = 0
        for table in tables:
            t |= table[s & 255]
            s >>= 8
        out.append(t)
    return out


def _inherit(lat: AbstractLattice, supports: list[int]) -> AbstractLattice:
    """The lattice over supports, lat's own moved through a bit permutation
    of its atoms and reordered, without AbstractLattice's checks: they hold
    already. A bit permutation is one to one and fixes 0 and the full mask,
    so the supports stay distinct, each atom stays an atom, and size and
    n_atoms are lat's. Bottom and top are found by position: 0 and the full
    mask, as top is the union of every support and each bit is an atom."""
    out = AbstractLattice.__new__(AbstractLattice)
    out.supports = supports
    out.size, out.n_atoms = lat.size, lat.n_atoms
    out.bottom = supports.index(0)
    out.top = supports.index((1 << lat.n_atoms) - 1)
    return out


def to_abstract(lat: AbstractLattice, seed: int | None = None) -> AbstractLattice:
    """Strip labels, keeping only the order relation: the supports as they
    are with no seed, shuffle's lattice with one. Either way the result
    inherits lat's checks (see _inherit) and runs none again."""
    return _inherit(lat, lat.supports) if seed is None else shuffle(lat, seed)[0]


def shuffle(lat: AbstractLattice, seed: int) -> tuple[AbstractLattice, list[int]]:
    """lat with its elements and atom positions shuffled, so downstream code
    cannot lean on the construction order, and its atom permutation: relabel
    moves support bit p to bit atom_perm[p]. The draws are random.Random(seed)'s
    shuffle of the supports, then of atom_perm: Fisher–Yates (Knuth, TAOCP
    3.4.2, Algorithm P). The result inherits lat's checks (see _inherit):
    past the draws and relabel, its only cost is two index scans for bottom
    and top, not a set of every support and a union over them."""
    supports = lat.supports[:]
    atom_perm = list(range(lat.n_atoms))
    getrandbits = random.Random(seed).getrandbits
    for x in (supports, atom_perm):
        # j uniform on [0, i], one getrandbits a draw as random draws it, of
        # k = (i + 1).bit_length() bits: one k for each run of i down to 2^(k-1) - 1
        hi = len(x) - 1
        while hi > 0:
            k = (hi + 1).bit_length()
            lo = (1 << k - 1) - 1
            for i in range(hi, lo - 1, -1):
                j = getrandbits(k)
                while j > i:
                    j = getrandbits(k)
                x[i], x[j] = x[j], x[i]
            hi = lo - 1
    return _inherit(lat, relabel(supports, atom_perm)), atom_perm


# ---------------------------------------------------------------------------
# isomorphism


def are_isomorphic(
    a: AbstractLattice,
    b: AbstractLattice,
    limits: Limits = DEFAULT_LIMITS,
) -> list[int] | None:
    """Order-isomorphism a→b as an index map, or None.

    Both lattices are atomistic, so an isomorphism is an atom bijection pi
    that carries the supports of a onto the supports of b. Atoms are matched
    depth-first, rarest invariant (popcounts of the joins with every atom,
    read from each lattice's pair_joins) first. A placement p→q must agree
    with every placed r: the joins J(p, r) and J'(q, pi(r)) have equal
    popcounts, and pi carries the placed atoms of the one onto the placed
    atoms of the other. A full bijection is accepted when relabel carries
    every support of a to a support of b. Each candidate placement is one node
    against ``limits.iso_node_budget``.
    """
    if a.size != b.size or a.n_atoms != b.n_atoms:
        return None
    m = a.n_atoms
    ja, jb = a.pair_joins, b.pair_joins
    inv_a = [tuple(sorted(map(int.bit_count, row))) for row in ja]
    inv_b = [tuple(sorted(map(int.bit_count, row))) for row in jb]
    if sorted(inv_a) != sorted(inv_b):
        return None
    by_inv: dict[tuple, list[int]] = {}
    for q in range(m):
        by_inv.setdefault(inv_b[q], []).append(q)
    order = sorted(range(m), key=lambda p: (len(by_inv[inv_a[p]]), inv_a[p]))
    pi = [-1] * m
    index_b = b.support_index
    budget = limits.iso_node_budget
    nodes = 0
    tried = [0] * (m + 1)            # candidates tried so far at each depth
    i = placed = images = 0
    while True:
        q = -1
        if i == m:
            mapping = [index_b.get(t) for t in relabel(a.supports, pi)]
            if None not in mapping:
                return mapping
        else:
            p = order[i]
            cands = by_inv[inv_a[p]]
            while q < 0 and tried[i] < len(cands):
                c = cands[tried[i]]
                tried[i] += 1
                if images >> c & 1:
                    continue
                nodes += 1
                if nodes > budget:
                    raise IsomorphismTimeout(f"isomorphism search exceeded {budget} nodes")
                if all(
                    ja[p][r].bit_count() == jb[c][pi[r]].bit_count()
                    and mask_of(pi[s] for s in bits(ja[p][r] & placed)) == jb[c][pi[r]] & images
                    for r in bits(placed)
                ):
                    q = c
        if q >= 0:
            pi[p] = q
            placed |= 1 << p
            images |= 1 << q
            i += 1
            tried[i] = 0
        elif i == 0:
            return None
        else:                            # undo the placement one level up
            i -= 1
            p = order[i]
            placed ^= 1 << p
            images ^= 1 << pi[p]


def check_isomorphism(
    a: AbstractLattice, b: AbstractLattice, mapping: Sequence[int]
) -> bool:
    """Verify that a claimed element map is an order isomorphism, in O(n·m).

    The map must be a bijection sending atoms to atoms; those atoms define a
    bijection pi of support bits, and every element's image must have the
    pi-image of its support, which relabel gives for the whole list. That is
    exact: both orders are support containment, and a bit permutation
    preserves containment both ways.
    """
    n = a.size
    if b.size != n or sorted(mapping) != list(range(n)):
        return False
    pi = [0] * a.n_atoms
    for x in a.atoms:
        t = b.supports[mapping[x]]
        if t.bit_count() != 1:
            return False
        pi[a.supports[x].bit_length() - 1] = t.bit_length() - 1
    return [b.supports[y] for y in mapping] == relabel(a.supports, pi)


# ---------------------------------------------------------------------------
# .lat format


def format_lattice(lat: AbstractLattice) -> str:
    """The header and one line of members per element, in popcount-then-lex
    order: a SubrackLattice lists its member sets over its ground set, any
    other lattice its supports over its atoms as points. Each byte of a mask
    adds one string from a table of the 256 member lists (" 8 9 12")."""
    if isinstance(lat, SubrackLattice):
        masks, ground = lat.elements, lat.ground_size
    else:
        masks, ground = sorted(lat.supports, key=order_key(lat.n_atoms)), lat.n_atoms
    tables = _byte_tables([f" {x}" for x in range(ground)], "")
    lines = [f"{len(masks)} {ground}"]
    for i, mask in enumerate(masks):
        line = f"{i} {mask.bit_count()}"
        for table in tables:
            line += table[mask & 255]
            mask >>= 8
        lines.append(line)
    return "\n".join(lines) + "\n"


def _in_order(a: int, b: int) -> bool:
    """a before b in popcount-then-lex order; ties break at the lowest bit of a ^ b."""
    ka, kb = a.bit_count(), b.bit_count()
    d = a ^ b
    return ka < kb or (ka == kb and a & d & -d != 0)


class _FirstUse(dict):
    """token -> value, each token converted once, on its first use."""

    def __init__(self, convert: Callable[[str], int]) -> None:
        super().__init__()
        self.convert = convert

    def __missing__(self, token: str) -> int:
        value = self[token] = self.convert(token)
        return value


def parse_lattice(text: str, name: str = "") -> SubrackLattice:
    """Read a .lat file: a header, then one member list per element. Lines
    past those are never read, so an older file's HASSE section is skipped.

    Each line passes one sequence of checks, in this order, each with its
    own message: two tokens at least, no "-" for members (the HASSE form,
    no longer read), integers, an id in range and not taken before, a
    popcount that counts the members, members inside the ground set and
    none repeated. Member and popcount tokens are converted once each, on
    first use. A member outside the ground set reads as no bit, and a sum
    of k distinct bits has popcount k while a repeated bit carries and
    lowers it, so one popcount test finds both faults; only then are the
    members read again to name the fault. The elements must come in
    popcount-then-lex order, the whole ground set last. Lines are read as
    they come, none kept, and a failed check first counts them up to n: a
    short file says so before any other fault, as if counted before all."""
    lines = content_lines(text)
    header = next(lines, None)
    if header is None:
        raise FormatError("empty lattice file")
    head = header.split()
    if len(head) != 2:
        raise FormatError(f"bad header {header!r}")
    n, ground = ints(head, "header", header)
    if n < 1:
        raise FormatError(f"bad header {header!r}: a lattice has at least one element")
    short = FormatError(f"expected {n} element lines")
    # an element line takes 3 characters and the top's lists every point, so
    # the text bounds n and the ground size, checked before any id or bit
    if n > len(text):
        raise short
    try:
        if not 0 <= ground <= 8 * len(text):
            raise FormatError(f"header ground size {ground} is not one the file could list")

        def member_bit(token: str) -> int:
            v = int(token)
            return 1 << v if 0 <= v < ground else 0

        bit, count = _FirstUse(member_bit), _FirstUse(int)
        get = bit.__getitem__
        masks = [-1] * n                 # -1: no line has taken this id yet
        for ln in islice(lines, n):
            toks = ln.split()
            try:
                idt, pop_tok, *rest = toks
                mask = sum(map(get, rest))
                idx, pop = int(idt), count[pop_tok]
            except ValueError:           # under two tokens, or one that is no integer
                if toks[2:] == ["-"]:
                    raise FormatError(
                        f"line {ln!r} has '-' for members: the HASSE form of .lat is "
                        "no longer read; list each element's atoms instead"
                    ) from None
                raise FormatError(f"bad element line {ln!r}") from None
            if not 0 <= idx < n or masks[idx] >= 0:
                raise FormatError(f"bad element id {idx}")
            if len(rest) != pop:
                raise FormatError(f"popcount mismatch on line {ln!r}")
            if mask.bit_count() != pop:
                for t in rest:
                    if not bit[t]:
                        raise FormatError(f"member {int(t)} outside ground set")
                raise FormatError(f"repeated member on line {ln!r}")
            masks[idx] = mask
    except FormatError:
        # a short file names its length first, whatever else is wrong
        if sum(1 for _ in islice(content_lines(text), 1, n + 1)) < n:
            raise short from None
        raise
    if -1 in masks:                      # each line takes one id: fewer lines than n
        raise short
    if not all(map(_in_order, masks, islice(masks, 1, None))):
        raise FormatError("elements are not in popcount-then-lex order")
    if masks[-1] != (1 << ground) - 1:
        raise FormatError(f"the last element is not the whole ground set of {ground} points")
    return SubrackLattice(elements=masks, ground_size=ground, name=name)


def load_lattice(path: str) -> SubrackLattice:
    text, name = read_file(path)
    return parse_lattice(text, name=name)


def save_lattice(path: str, lat: AbstractLattice) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_lattice(lat))
