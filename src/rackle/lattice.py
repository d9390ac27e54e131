"""Subrack lattices: enumeration, queries, label stripping, isomorphism.

The enumerator walks closed sets with closedsets.close_by_one, the one
Close-by-One walker that the join poset and the normal subgroups use too:
a closure aborts at its first new point below the one being added, so cost
scales with the output, never with 2^m. It walks only the moving points. A
fixed point (moves[a] == 0; in a conjugation rack, a central element) can
join or leave any closed set and keep it closed, so the lattice is the
moving points' lattice times the Boolean lattice of the fixed points, and
that factor is built without a closure. There is one lattice type,
AbstractLattice, which keeps the order relation as atom supports; a
SubrackLattice is one that also keeps its member sets. Code that claims to
be "lattice only" reads the supports and nothing else. One function, relabel,
moves a support list through an atom permutation: to_abstract shuffles with
it, and the isomorphism search and its check test an atom bijection with it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from operator import and_, or_
from typing import Callable, Iterable, Iterator, Sequence

from .closedsets import bits, close_by_one, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import FormatError, IsomorphismTimeout, TooLarge
from .racks import ConjugationRack, closure_extend, is_closed_mask, moves_of
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
    """
    rows = rack.op
    moves = moves_of(rows)
    moving = [j for j in range(rack.size) if moves[j]]
    fixed = [j for j in range(rack.size) if not moves[j]]

    def extend(a: int, j: int) -> int | None:
        return closure_extend(rows, moves, a, j, (1 << j) - 1)

    # walk · 2^|F| > cap iff walk > walk_cap, so drawing walk_cap sets after ∅ tells
    walk_cap = limits.lattice_cap >> len(fixed)
    walk = [0, *islice(close_by_one(moving, extend), walk_cap)]
    if len(walk) > walk_cap:
        raise TooLarge(f"lattice exceeds cap of {limits.lattice_cap} elements")
    for p in fixed:
        walk += [s | 1 << p for s in walk]
    walk.sort(key=order_key(rack.size))
    return walk


def brute_force_closed_masks(rack: ConjugationRack) -> list[int]:
    """Oracle: scan all 2^m subsets. Only viable for small ground sets."""
    m = rack.size
    if m > 20:
        raise TooLarge("brute-force scan is for small ground sets only")
    rows = rack.op
    out = [s for s in range(1 << m) if is_closed_mask(rows, s)]
    out.sort(key=order_key(m))
    return out


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
        full = 0
        for s in self.supports:
            full |= s
        self.size = len(self.supports)
        self.n_atoms = full.bit_length()
        distinct = len(set(self.supports))
        if distinct != self.size:
            raise FormatError(
                f"{self.size} elements but {distinct} distinct supports: "
                "two elements over the same atoms are one element"
            )
        try:
            self.bottom = self.supports.index(0)
            self.top = self.supports.index(full)
        except ValueError:
            raise FormatError("no bottom or no top element: the order is unbounded") from None
        if len(self.atoms) != self.n_atoms:
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

    def atom_joins(self, x: int, atoms: int) -> Iterator[tuple[int, int]]:
        """(p, x ∨ p) for each atom p in the mask atoms, all outside supp x.

        A miss ANDs the row of p into the upper-bound row of x (the AND of
        the rank rows over supp x, built on the first miss) and takes the
        lowest rank, as join_mask does."""
        sx = self.supports[x]
        get = self.support_index.get
        upper = None
        for p in bits(atoms):
            y = get(sx | 1 << p)
            if y is None:
                rows = self._above
                if upper is None:
                    upper = reduce(and_, (rows[q] for q in bits(sx)), -1)
                u = upper & rows[p]
                y = self.ranked[(u & -u).bit_length() - 1]
            yield p, y

    @cached_property
    def pair_joins(self) -> list[list[int]]:
        """Row p holds the support of p ∨ q for each atom q: m(m+1)/2 joins
        for m atoms, once per lattice, read by both atom-matching searches."""
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
        by popcount, s is Boolean when every s − {p} already is. A Boolean s is
        maximal when no s ∪ {p} is Boolean, that is when s is no b − {p} for
        a Boolean b: a larger Boolean support contains some s ∪ {p}, and
        with it all of that set's subsets.
        """
        if self.is_boolean():
            return [self.top]
        boolean: set[int] = set()
        for s in map(self.supports.__getitem__, self.ranked):
            t = s                        # the bits p of s still to try
            while t and s ^ (t & -t) in boolean:
                t &= t - 1
            if not t:
                boolean.add(s)
        below = {b ^ 1 << p for b in boolean for p in bits(b)}
        return sorted(self.support_index[s] for s in boolean - below)

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
        # element meeting their union is skipped without a scan
        atoms: list[int] = []
        wide: list[int] = []             # the atoms with 2+ points
        points = 0                       # union of the one-point atoms
        for mask in self.elements:
            if not mask or mask & points or any(a & mask == a for a in wide):
                continue
            atoms.append(mask)
            if mask.bit_count() == 1:
                points |= mask
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


def relabel(masks: Iterable[int], pi: Sequence[int]) -> list[int]:
    """Each mask, none with a bit at or past len(pi), carried through the bit
    permutation pi: bit p -> bit pi[p]. A mask goes a byte at a time through
    a table of the 256 images of each byte: one lookup per 8 bits."""
    tables = []
    for k in range(0, len(pi), 8):
        table = [0]                      # entry b: the image of byte b at bit k
        for q in pi[k:k + 8]:
            table += [t | 1 << q for t in table]
        tables.append(table)
    out = []
    for s in masks:
        t = 0
        for table in tables:
            t |= table[s & 255]
            s >>= 8
        out.append(t)
    return out


def to_abstract(lat: AbstractLattice, seed: int | None = None) -> AbstractLattice:
    """Strip labels, keeping only the order relation.

    With no seed the supports are kept as they are. With a seed, elements
    and atom positions are shuffled so downstream code cannot lean on the
    concrete construction order: the supports are shuffled, then the atom
    permutation is drawn, and relabel moves support bit p to bit atom_perm[p].
    """
    if seed is None:
        return AbstractLattice(lat.supports)
    supports = lat.supports[:]
    atom_perm = list(range(lat.n_atoms))
    rng = random.Random(seed)
    rng.shuffle(supports)
    rng.shuffle(atom_perm)
    return AbstractLattice(relabel(supports, atom_perm))


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
    other lattice its supports over its atoms as points."""
    if isinstance(lat, SubrackLattice):
        masks, ground = lat.elements, lat.ground_size
    else:
        masks, ground = sorted(lat.supports, key=order_key(lat.n_atoms)), lat.n_atoms
    lines = [f"{len(masks)} {ground}"]
    for i, mask in enumerate(masks):
        mem = " ".join(str(x) for x in bits(mask))
        lines.append(f"{i} {mask.bit_count()}" + (f" {mem}" if mem else ""))
    return "\n".join(lines) + "\n"


def _in_order(a: int, b: int) -> bool:
    """a before b in popcount-then-lex order; ties break at the lowest bit of a ^ b."""
    ka, kb = a.bit_count(), b.bit_count()
    d = a ^ b
    return ka < kb or (ka == kb and a & d & -d != 0)


def parse_lattice(text: str, name: str = "") -> SubrackLattice:
    """Read a .lat file: a header, then one member list per element. Lines
    are read lazily, so the HASSE section of an older concrete file is
    skipped. A member list that repeats a member, a top that is not the
    whole ground set, or a "-" member list (the HASSE form, which is no
    longer read) is rejected.

    While every line's id is its position, a line whose tokens have all been
    read before costs one split: its mask is the sum of the tokens' cached bits.
    A sum of k distinct bits has popcount k, and a repeated bit carries and
    lowers it, so the popcount test still finds a repeated member. Any other
    line takes the general path, which raises each error with its message."""
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
    body = list(islice(lines, n))
    if len(body) < n:
        raise FormatError(f"expected {n} element lines")
    # the top's line lists every point, so the text bounds the ground size;
    # checked before any member bit is built, with room to spare
    if not 0 <= ground <= 8 * len(text):
        raise FormatError(f"header ground size {ground} is not one the file could list")
    bit: dict[str, int] = {}             # member tokens read so far, not all of range(ground)
    count: dict[str, int] = {}           # popcount tokens read so far
    get = bit.__getitem__
    masks = [0] * n
    seen_ids = bytearray(n)              # kept by the general path only
    fast = True                          # so far every line's id is its position
    for i, own, ln in zip(range(n), map(str, range(n)), body):
        toks = ln.split()
        try:
            idt, pop_tok, *rest = toks
            mask = sum(map(get, rest))
            hit = fast and idt == own and count[pop_tok] == len(rest) == mask.bit_count()
        except (ValueError, KeyError):   # under two tokens, or a token not yet read
            hit = False
        if hit:
            masks[i] = mask
            continue
        if len(toks) < 2:
            raise FormatError(f"bad element line {ln!r}")
        rest = toks[2:]
        try:
            mask, members = reduce(or_, map(get, rest), 0), []
        except KeyError:                 # a new token, or "zz": through int()
            if rest == ["-"]:
                raise FormatError(
                    f"line {ln!r} has '-' for members: the HASSE form of .lat is "
                    "no longer read; list each element's atoms instead"
                ) from None
            mask, members = 0, ints(rest, "element line", ln)
        idx, pop = ints(toks[:2], "element line", ln)
        count[toks[1]] = pop
        if fast and idx != i:
            # lines 0..i-1 took ids 0..i-1; from here on every id is marked
            seen_ids[:i] = b"\1" * i
            fast = False
        if not (0 <= idx < n) or seen_ids[idx]:
            raise FormatError(f"bad element id {idx}")
        seen_ids[idx] = 1
        if len(rest) != pop:
            raise FormatError(f"popcount mismatch on line {ln!r}")
        for t, v in zip(rest, members):
            if not (0 <= v < ground):
                raise FormatError(f"member {v} outside ground set")
            bit[t] = 1 << v
            mask |= bit[t]
        if mask.bit_count() != pop:
            raise FormatError(f"repeated member on line {ln!r}")
        masks[idx] = mask
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
