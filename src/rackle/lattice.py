"""Subrack lattices: enumeration, queries, label stripping, isomorphism.

The enumerator walks closed sets in lectic order with the canonical-generation
test (Close-by-One): a closure aborts at its first new point below the one
being added, so cost scales with the output, never with 2^m. Everything
downstream that claims to be "lattice only" goes through AbstractLattice,
which keeps the order relation and nothing else.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import islice
from operator import and_
from typing import Iterable, Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import BadIndex, FormatError, IsomorphismTimeout, TooLarge
from .racks import ConjugationRack, bits, closure_extend, is_closed_mask, mask_of


def _sort_key(mask: int) -> tuple[int, list[int]]:
    return (mask.bit_count(), bits(mask))


# ---------------------------------------------------------------------------
# enumeration


def _enumerate_subtree(
    rows: Sequence[Sequence[int]], m: int, start: int, j0: int, cap: int
) -> list[int]:
    """All closed sets in the canonical subtree rooted at a closed set."""
    out: list[int] = []

    def rec(a: int, j_from: int) -> None:
        out.append(a)
        if len(out) > cap:
            raise TooLarge(f"lattice exceeds cap of {cap} elements")
        for j in range(j_from, m):
            if a >> j & 1:
                continue
            # canonical test: adding j must not sneak in smaller new points,
            # so the closure aborts at the first one
            b = closure_extend(rows, a, j, (1 << j) - 1)
            if b is not None:
                rec(b, j + 1)

    rec(start, j0)
    return out


def enumerate_closed_masks(
    rack: ConjugationRack, limits: Limits = DEFAULT_LIMITS
) -> list[int]:
    """Closed subsets of the rack as bitmasks, sorted by popcount then members."""
    masks = _enumerate_subtree(rack.op, rack.size, 0, 0, limits.lattice_cap)
    masks.sort(key=_sort_key)
    return masks


def brute_force_closed_masks(rack: ConjugationRack) -> list[int]:
    """Oracle: scan all 2^m subsets. Only viable for small ground sets."""
    m = rack.size
    if m > 20:
        raise TooLarge("brute-force scan is for small ground sets only")
    rows = rack.op
    out = [s for s in range(1 << m) if is_closed_mask(rows, s)]
    out.sort(key=_sort_key)
    return out


# ---------------------------------------------------------------------------
# concrete lattice


@dataclass
class SubrackLattice:
    elements: list[int]                  # member bitmasks, popcount-then-lex
    ground_size: int
    name: str = ""

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return len(self.elements) - 1

    def members(self, x: int) -> tuple[int, ...]:
        return tuple(bits(self.elements[x]))

    def leq(self, x: int, y: int) -> bool:
        ex, ey = self.elements[x], self.elements[y]
        return ex & ey == ex

    @cached_property
    def atoms(self) -> list[int]:
        """Minimal nonempty elements, from the member sets alone.

        Elements come popcount first, so a nonempty element is an atom when
        it contains no earlier atom. A one-point element is always an atom,
        so an element meeting their union is skipped without a scan.
        """
        out: list[int] = []
        wide: list[int] = []             # masks of the atoms with 2+ points
        points = 0                       # union of the one-point atoms
        for i, mask in enumerate(self.elements):
            if not mask or mask & points or any(a & mask == a for a in wide):
                continue
            out.append(i)
            if mask.bit_count() == 1:
                points |= mask
            else:
                wide.append(mask)
        return out

    @cached_property
    def hasse(self) -> list[tuple[int, int]]:
        """Cover pairs (child, parent), sorted."""
        return sorted(to_abstract(self).cover_pairs())

    @cached_property
    def coatoms(self) -> list[int]:
        return to_abstract(self).proper_maximal

    def height(self) -> int:
        """Length (number of covers) of a longest bottom-to-top chain."""
        best = [0] * self.size
        for x, y in self.hasse:
            if best[x] + 1 > best[y]:
                best[y] = best[x] + 1
        return best[self.top]

    def __repr__(self) -> str:
        label = self.name or "lattice"
        return f"<{label}: {self.size} elements over {self.ground_size} points>"


def enumerate_subrack_lattice(
    rack: ConjugationRack, limits: Limits = DEFAULT_LIMITS
) -> SubrackLattice:
    masks = enumerate_closed_masks(rack, limits=limits)
    return SubrackLattice(elements=masks, ground_size=rack.size, name=rack.name)


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
    top is the union of all supports. A support bit that is no atom, or a
    missing bottom or top, raises FormatError.
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
        return [x for x in range(self.size) if self.supports[x].bit_count() == 1]

    @cached_property
    def support_index(self) -> dict[int, int]:
        """Element index of each support."""
        return {s: i for i, s in enumerate(self.supports)}

    def is_boolean(self) -> bool:
        return self.size == 1 << self.n_atoms

    @cached_property
    def _above(self) -> tuple[list[int], list[int]]:
        """Elements ranked by support size, and for each atom p a bitmask
        over ranks whose bit r is set when the r-th element lies above p."""
        ranked = sorted(range(self.size), key=lambda x: self.supports[x].bit_count())
        m = self.n_atoms
        # transpose the support bit strings: column p read from the highest
        # rank down is row p in binary
        columns = zip(*(format(self.supports[x], f"0{m}b") for x in reversed(ranked)))
        rows = [int("".join(c), 2) for c in columns]
        rows.reverse()
        return ranked, rows

    def join_mask(self, mask: int) -> int:
        """The least element whose support contains mask: the join of those atoms.

        A miss ANDs the rank rows of the atoms in mask into the upper bounds
        and takes the lowest rank: in a lattice the join has strictly fewer
        atoms than any other upper bound.
        """
        hit = self.support_index.get(mask)
        if hit is not None:
            return hit
        ranked, rows = self._above
        upper = reduce(and_, (rows[p] for p in bits(mask)), -1)
        return ranked[(upper & -upper).bit_length() - 1]

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
                ranked, rows = self._above
                if upper is None:
                    upper = reduce(and_, (rows[q] for q in bits(sx)), -1)
                u = upper & rows[p]
                y = ranked[(u & -u).bit_length() - 1]
            yield p, y

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Hasse cover pairs (x, y), x covered by y, from joins with one atom.

        For each x, count how many atoms p outside supp x give each join
        y = x ∨ p. Every such p lies in supp y − supp x, and x ⋖ y exactly
        when the count is |supp y| − |supp x|. If x ⋖ y, each atom q of y
        outside x has x < x ∨ q ≤ y, so x ∨ q = y. If instead x < z < y,
        pick q in supp z − supp x: then x ∨ q ≤ z < y, so q is an atom of y
        outside x that gives another join and the count falls short. Every
        upper cover y is x ∨ q for some such q, so none is missed.
        """
        sup = self.supports
        full = (1 << self.n_atoms) - 1
        pairs = []
        for x, sx in enumerate(sup):
            counts: dict[int, int] = {}
            for _, y in self.atom_joins(x, full ^ sx):
                counts[y] = counts.get(y, 0) + 1
            k = sx.bit_count()
            pairs.extend((x, y) for y, c in counts.items() if c == sup[y].bit_count() - k)
        return pairs

    def atoms_below(self, x: int) -> list[int]:
        return [a for a in self.atoms if self.leq(a, x)]

    @cached_property
    def proper_maximal(self) -> list[int]:
        """Coatoms: maximal elements among everything below top.

        Bottom stays in the candidate pool so the 2-element lattice reports
        its one coatom; anywhere else it loses to the atoms above it.
        """
        by_pop: dict[int, list[int]] = {}
        for x in range(self.size):
            if x != self.top:
                by_pop.setdefault(self.supports[x].bit_count(), []).append(x)
        pops = sorted(by_pop, reverse=True)
        out: list[int] = []
        for p in pops:
            for x in by_pop[p]:
                sx = self.supports[x]
                bigger = (y for q in pops if q > p for y in by_pop[q])
                if not any(sx & self.supports[y] == sx for y in bigger):
                    out.append(x)
        return sorted(out)

    def __repr__(self) -> str:
        return f"<abstract lattice, {self.size} elements, {self.n_atoms} atoms>"


def to_abstract(lat: SubrackLattice, seed: int | None = None) -> AbstractLattice:
    """Strip member sets, keeping only the order relation.

    With a seed, elements and atom positions are shuffled so downstream code
    cannot lean on the concrete construction order. Two elements over the
    same atoms mean the input is not atomistic, which no rack produces, so
    that raises FormatError naming them.
    """
    atom_masks = [lat.elements[a] for a in lat.atoms]
    n = lat.size
    order = list(range(n))
    atom_perm = list(range(len(atom_masks)))
    if seed is not None:
        rng = random.Random(seed)
        rng.shuffle(order)
        rng.shuffle(atom_perm)
    seen: dict[int, int] = {}
    supports = [0] * n
    for newi, old in enumerate(order):
        mask = lat.elements[old]
        s = 0
        for i, am in enumerate(atom_masks):
            if am & mask == am:
                s |= 1 << atom_perm[i]
        if s in seen:
            x, y = sorted((seen[s], old))
            raise FormatError(
                f"elements {x} and {y} contain the same atoms: the lattice is "
                "not atomistic, so it is no subrack lattice"
            )
        seen[s] = old
        supports[newi] = s
    return AbstractLattice(supports)


def abstract_from_cover_pairs(
    n: int, pairs: Iterable[tuple[int, int]]
) -> AbstractLattice:
    """Build an abstract lattice from Hasse cover pairs (child, parent).

    The order must be bounded and atomistic: containment of atom supports
    has to reproduce it exactly, or FormatError names a pair of elements
    where it does not.
    """
    down = [1 << x for x in range(n)]
    kids: dict[int, list[int]] = {}
    indeg = [0] * n
    for c, p in pairs:
        if not (0 <= c < n and 0 <= p < n):
            raise BadIndex("cover pair out of range")
        kids.setdefault(c, []).append(p)
        indeg[p] += 1
    # propagate down-sets in topological order
    order: list[int] = [x for x in range(n) if indeg[x] == 0]
    head = 0
    while head < len(order):
        x = order[head]
        head += 1
        for p in kids.get(x, ()):  # parents
            down[p] |= down[x]
            indeg[p] -= 1
            if indeg[p] == 0:
                order.append(p)
    if len(order) != n:
        raise FormatError("cover relation contains a cycle")
    bottoms = [x for x in range(n) if down[x].bit_count() == 1]
    tops = [x for x in range(n) if all(not down[y] >> x & 1 for y in range(n) if y != x)]
    if len(bottoms) != 1 or len(tops) != 1:
        raise FormatError("cover relation is not a bounded lattice")
    bottom = bottoms[0]
    atoms = [x for x in range(n) if x != bottom and down[x] == 1 << bottom | 1 << x]
    supports = []
    for x in range(n):
        s = 0
        for i, a in enumerate(atoms):
            if down[x] >> a & 1:
                s |= 1 << i
        supports.append(s)
    for x in range(n):
        for y in range(n):
            if (supports[x] & supports[y] == supports[x]) != bool(down[y] >> x & 1):
                raise FormatError(
                    f"elements {x} and {y}: the atoms below {x} are all below "
                    f"{y}, but {x} is not below {y}, so the order is not atomistic"
                )
    return AbstractLattice(supports)


# ---------------------------------------------------------------------------
# isomorphism


def _transport(mask: int, pi: Sequence[int]) -> int:
    """Image of a support under the atom bijection pi (bit p -> bit pi[p])."""
    return mask_of(pi[p] for p in bits(mask))


def _atom_joins(lat: AbstractLattice) -> list[list[int]]:
    """Row p holds the support of the join of atom p with each atom q."""
    m = lat.n_atoms
    return [
        [lat.supports[lat.join_mask(1 << p | 1 << q)] for q in range(m)]
        for p in range(m)
    ]


def are_isomorphic(
    a: AbstractLattice,
    b: AbstractLattice,
    limits: Limits = DEFAULT_LIMITS,
) -> list[int] | None:
    """Order-isomorphism a→b as an index map, or None.

    Both lattices are atomistic, so an isomorphism is an atom bijection pi
    that carries the supports of a onto the supports of b. Atoms are matched
    depth-first, rarest invariant (popcounts of the joins with every atom)
    first. A placement p→q must agree with every placed r: the joins
    J(p, r) and J'(q, pi(r)) have equal popcounts, and pi carries the placed
    atoms of the one onto the placed atoms of the other. A full bijection
    is accepted when every transported support of a is a support of b. Each
    candidate placement is one node against ``limits.iso_node_budget``.
    """
    if a.size != b.size or a.n_atoms != b.n_atoms:
        return None
    m = a.n_atoms
    ja, jb = _atom_joins(a), _atom_joins(b)
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

    def place(i: int, placed: int, images: int) -> list[int] | None:
        nonlocal nodes
        if i == m:
            mapping = [index_b.get(_transport(s, pi)) for s in a.supports]
            return None if None in mapping else mapping
        p = order[i]
        for q in by_inv[inv_a[p]]:
            if images >> q & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise IsomorphismTimeout(f"isomorphism search exceeded {budget} nodes")
            if all(
                ja[p][r].bit_count() == jb[q][pi[r]].bit_count()
                and _transport(ja[p][r] & placed, pi) == jb[q][pi[r]] & images
                for r in bits(placed)
            ):
                pi[p] = q
                mapping = place(i + 1, placed | 1 << p, images | 1 << q)
                if mapping is not None:
                    return mapping
        return None

    return place(0, 0, 0)


def check_isomorphism(
    a: AbstractLattice, b: AbstractLattice, mapping: Sequence[int]
) -> bool:
    """Verify that a claimed element map is an order isomorphism, in O(n·m).

    The map must be a bijection sending atoms to atoms; those atoms define a
    bijection pi of support bits, and every element's image must have the
    pi-image of its support. That is exact: both orders are support
    containment, and a bit permutation preserves containment both ways.
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
    return all(
        b.supports[mapping[x]] == _transport(s, pi) for x, s in enumerate(a.supports)
    )


# ---------------------------------------------------------------------------
# .lat format


def format_lattice(lat: SubrackLattice) -> str:
    lines = [f"{lat.size} {lat.ground_size}"]
    for i, mask in enumerate(lat.elements):
        mem = " ".join(str(x) for x in bits(mask))
        lines.append(f"{i} {mask.bit_count()}" + (f" {mem}" if mem else ""))
    lines.append("HASSE")
    for c, p in lat.hasse:
        lines.append(f"{c} {p}")
    return "\n".join(lines) + "\n"


def format_abstract(lat: AbstractLattice) -> str:
    """Abstract export: '-' in the member column, covers from cover_pairs."""
    n = lat.size
    sup = lat.supports
    order = sorted(range(n), key=lambda x: _sort_key(sup[x]))
    pos = {old: newi for newi, old in enumerate(order)}
    lines = [f"{n} {lat.n_atoms}"]
    for old in order:
        lines.append(f"{pos[old]} {sup[old].bit_count()} -")
    lines.append("HASSE")
    for c, p in sorted((pos[x], pos[y]) for x, y in lat.cover_pairs()):
        lines.append(f"{c} {p}")
    return "\n".join(lines) + "\n"


def _ints(tokens: Sequence[str], what: str, line: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise FormatError(f"bad {what} {line!r}") from None


def _in_order(a: int, b: int) -> bool:
    """a before b in popcount-then-lex order; ties break at the lowest bit of a ^ b."""
    ka, kb = a.bit_count(), b.bit_count()
    d = a ^ b
    return ka < kb or (ka == kb and a & d & -d != 0)


def parse_lattice(text: str, name: str = "") -> SubrackLattice | AbstractLattice:
    """Read a .lat file; concrete when member lists are present. Lines are
    read lazily, so a concrete file's HASSE section is never parsed."""
    lines = filter(None, (ln.split("#", 1)[0].strip() for ln in text.splitlines()))
    header = next(lines, None)
    if header is None:
        raise FormatError("empty lattice file")
    head = header.split()
    if len(head) != 2:
        raise FormatError(f"bad header {header!r}")
    n, ground = _ints(head, "header", header)
    if n < 1:
        raise FormatError(f"bad header {header!r}: a lattice has at least one element")
    body = list(islice(lines, n))
    if len(body) < n:
        raise FormatError(f"expected {n} element lines")
    if any(ln.split()[-1] == "-" for ln in body):
        if next(lines, None) != "HASSE":
            raise FormatError("abstract lattice needs a HASSE section")
        pairs = []
        for ln in lines:
            toks = ln.split()
            if len(toks) != 2:
                raise FormatError(f"bad cover line {ln!r}")
            c, p = _ints(toks, "cover line", ln)
            if not (0 <= c < n and 0 <= p < n):
                raise FormatError(f"cover line {ln!r} names an element outside [0,{n})")
            pairs.append((c, p))
        return abstract_from_cover_pairs(n, pairs)
    masks = [0] * n
    seen_ids = set()
    for ln in body:
        toks = ln.split()
        if len(toks) < 2:
            raise FormatError(f"bad element line {ln!r}")
        idx, pop, *members = _ints(toks, "element line", ln)
        if idx in seen_ids or not (0 <= idx < n):
            raise FormatError(f"bad element id {idx}")
        seen_ids.add(idx)
        if len(members) != pop:
            raise FormatError(f"popcount mismatch on line {ln!r}")
        mask = 0
        for v in members:
            if not (0 <= v < ground):
                raise FormatError(f"member {v} outside ground set")
            mask |= 1 << v
        masks[idx] = mask
    if len(set(masks)) != n:
        raise FormatError("duplicate element bitsets")
    if not all(map(_in_order, masks, masks[1:])):
        raise FormatError("elements are not in popcount-then-lex order")
    return SubrackLattice(elements=masks, ground_size=ground, name=name)


def load_lattice(path: str) -> SubrackLattice | AbstractLattice:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.basename(path).rsplit(".", 1)[0]
    return parse_lattice(text, name=stem)


def save_lattice(path: str, lat: SubrackLattice | AbstractLattice) -> None:
    text = (
        format_lattice(lat)
        if isinstance(lat, SubrackLattice)
        else format_abstract(lat)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
