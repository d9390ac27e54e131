"""Finite groups as multiplication tables, plus the oracles built on them.

Everything downstream (racks, lattices, reconstruction) treats a group as an
immutable table. Validation happens once, on ingestion; after that every
operation is a pure function.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .closedsets import bits, close_by_one, mask_of
from .config import DEFAULT_LIMITS, Limits
from .errors import BadIndex, FormatError, NotAGroup, NotNormal, TooLarge
from .textio import content_lines, format_table, ints, parse_table, read_file

Table = tuple[tuple[int, ...], ...]


class _NotSolvable:
    """Sentinel returned where a derived length would go. Falsy on purpose."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NOT_SOLVABLE"

    def __bool__(self) -> bool:
        return False


NOT_SOLVABLE = _NotSolvable()


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: Table
    inv: tuple[int, ...]
    identity: int = 0
    name: str = ""

    def conj(self, a: int, b: int) -> int:
        """a b a^-1."""
        return self.mul[self.mul[a][b]][self.inv[a]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.mul[self.conj(a, b)][self.inv[b]]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k

    def is_abelian(self) -> bool:
        m = self.mul
        return all(m[a][b] == m[b][a] for a in range(self.order) for b in range(a))

    def order_histogram(self) -> dict[int, int]:
        """Element-order multiset; a cheap isomorphism invariant."""
        hist: dict[int, int] = {}
        for a in range(self.order):
            k = self.element_order(a)
            hist[k] = hist.get(k, 0) + 1
        return hist

    def __repr__(self) -> str:
        label = self.name or "group"
        return f"<{label} of order {self.order}>"


# ---------------------------------------------------------------------------
# construction and validation


def _validate_table(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    for i, row in enumerate(table):
        if len(row) != n:
            raise NotAGroup(f"row {i} has length {len(row)}, expected {n}")
        for x in row:
            if not (0 <= x < n):
                raise NotAGroup(f"entry {x} in row {i} out of range [0,{n})")
    full = frozenset(range(n))
    for i, row in enumerate(table):
        if frozenset(row) != full:
            raise NotAGroup(f"row {i} is not a permutation")
    for j in range(n):
        if frozenset(table[i][j] for i in range(n)) != full:
            raise NotAGroup(f"column {j} is not a permutation")


def _find_identity(table: Sequence[Sequence[int]]) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise NotAGroup("no two-sided identity")


def _check_associative(table: Sequence[Sequence[int]]) -> None:
    """Light's test: (x·a)·y = x·(a·y) for every x, y and each generator a.

    The a that pass for all x, y are closed under products, so generators
    suffice. Each generator is picked outside the set reached so far by
    right-multiplying the earlier ones; for a group every pick at least
    doubles that set, so the check is O(n² log n). A failing triple
    (x, a, y) is named in the error.
    """
    n = len(table)
    gens: list[int] = []
    reached: set[int] = set()
    for g in range(n):
        if g in reached:
            continue
        gens.append(g)
        stack = [*reached, g]          # old elements still need ·g
        reached.add(g)
        while stack:
            x = stack.pop()
            for a in gens:
                y = table[x][a]
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
    for a in gens:
        row_a = table[a]
        for x in range(n):
            row_x, row_xa = table[x], table[table[x][a]]
            for y in range(n):
                if row_xa[y] != row_x[row_a[y]]:
                    raise NotAGroup(f"associativity fails at ({x},{a},{y})")


def relabelled(g: FiniteGroup, sigma: Sequence[int]) -> FiniteGroup:
    """Transport the table through sigma: new index of old element a is sigma[a]."""
    n = g.order
    if sorted(sigma) != list(range(n)):
        raise BadIndex("relabelling is not a permutation")
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            mul[sigma[a]][sigma[b]] = sigma[g.mul[a][b]]
    inv = [0] * n
    for a in range(n):
        inv[sigma[a]] = sigma[g.inv[a]]
    return FiniteGroup(
        order=n,
        mul=tuple(tuple(row) for row in mul),
        inv=tuple(inv),
        identity=sigma[g.identity],
        name=g.name,
    )


def group_from_cayley_table(table: Sequence[Sequence[int]], name: str = "") -> FiniteGroup:
    """Validate a multiplication table and normalize the identity to index 0."""
    _validate_table(table)
    e = _find_identity(table)
    _check_associative(table)
    n = len(table)
    mul: Table = tuple(tuple(int(x) for x in row) for row in table)
    # Row a is a permutation, so a·b = e for exactly one b, and b·a = e too:
    # (b·a)·(b·a) = b·(a·b)·a = b·a, and in a Latin square the only x with
    # x·x = x = x·e is e. So no table that got this far lacks an inverse.
    inv = tuple(row.index(e) for row in mul)
    g = FiniteGroup(order=n, mul=mul, inv=inv, identity=e, name=name)
    if e != 0:
        sigma = list(range(n))
        sigma[0], sigma[e] = e, 0
        g = relabelled(g, sigma)
    return g


def group_from_permutation_generators(
    degree: int,
    gens: Sequence[Sequence[int]],
    name: str = "",
    limits: Limits = DEFAULT_LIMITS,
) -> FiniteGroup:
    """Close a generating set of 0-based permutation tuples under composition.

    Breadth-first closure, one worklist in order of discovery; element 0 is
    always the identity permutation.
    """
    ident = tuple(range(degree))
    for p in gens:
        if sorted(p) != list(range(degree)):
            raise NotAGroup(f"generator {p} is not a permutation of degree {degree}")
    gen_tuples = [tuple(p) for p in gens]
    index: dict[tuple[int, ...], int] = {ident: 0}
    elements: list[tuple[int, ...]] = [ident]
    for p in elements:                   # grows as products are found
        for q in gen_tuples:
            # composition acts left-to-right: (p*q)(x) = q(p(x)) is a
            # convention choice; fix "apply q after p" through indices
            r = tuple(p[q[i]] for i in range(degree))
            if r not in index:
                if len(elements) >= limits.generation_cap:
                    raise TooLarge(f"generated order exceeds cap {limits.generation_cap}")
                index[r] = len(elements)
                elements.append(r)
    n = len(elements)
    mul = [[0] * n for _ in range(n)]
    for a, p in enumerate(elements):
        for b, q in enumerate(elements):
            mul[a][b] = index[tuple(p[q[i]] for i in range(degree))]
    inv = [0] * n
    for a, p in enumerate(elements):
        pi = [0] * degree
        for i, x in enumerate(p):
            pi[x] = i
        inv[a] = index[tuple(pi)]
    return FiniteGroup(
        order=n,
        mul=tuple(tuple(row) for row in mul),
        inv=tuple(inv),
        identity=0,
        name=name,
    )


# ---------------------------------------------------------------------------
# conjugacy classes


@dataclass(frozen=True)
class ConjClassPartition:
    classes: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.classes)

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.classes)


def conjugacy_classes(g: FiniteGroup) -> ConjClassPartition:
    """Partition under x ~ a x a^-1, classes ordered by least member.

    Each class is the orbit {a x a⁻¹ : a ∈ G} of its least member x, found
    in ascending x, so the classes come in order without a sort.
    """
    mul = g.mul
    class_of = [-1] * g.order
    classes: list[tuple[int, ...]] = []
    for x in range(g.order):
        if class_of[x] < 0:
            orbit = sorted({mul[row[x]][ia] for row, ia in zip(mul, g.inv)})
            for y in orbit:
                class_of[y] = len(classes)
            classes.append(tuple(orbit))
    return ConjClassPartition(classes=tuple(classes), class_of=tuple(class_of))


# ---------------------------------------------------------------------------
# subgroup machinery


def extend_subgroup(g: FiniteGroup, h: Iterable[int], seeds: Iterable[int]) -> frozenset[int]:
    """⟨H ∪ seeds⟩ for a subgroup H, grown by whole right cosets (Dimino).

    The union of the cosets H·r found so far is the subgroup once r·s lies
    in it for every representative r and every s in H or the seeds, since
    H·r·s = H·(r·s); a product outside adds its coset. That is |K| products
    for the cosets and |K:H|·|H ∪ seeds| for the tests. With H = {e} it is
    the subgroup generated by the seeds alone: every subgroup the oracles
    name is closed here.
    """
    mul = g.mul
    base = list(h)
    members = set(base)
    gens = base + [s for s in seeds if s not in members]
    reps = [g.identity]
    for r in reps:                       # grows as cosets are found
        row = mul[r]
        for s in gens:
            t = row[s]
            if t not in members:
                members.update(mul[x][t] for x in base)
                reps.append(t)
    return frozenset(members)


def subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS) -> list[frozenset[int]]:
    """All subgroups, by iterated cyclic extension starting from the trivial one.

    H is extended by one x per left coset xH other than H: for k in H,
    x·k and x generate the same subgroup with H, since each is the other
    times an element of H. So the other members of a tried coset are
    skipped.
    """
    if g.order > limits.subgroup_cap:
        raise TooLarge(
            f"subgroup enumeration capped at order {limits.subgroup_cap}, got {g.order}"
        )
    found = [frozenset({g.identity})]
    seen = set(found)
    for h in found:                      # grows as subgroups are found
        tried = set(h)
        for x in range(g.order):
            if x in tried:
                continue
            tried.update(g.mul[x][k] for k in h)
            ext = extend_subgroup(g, h, [x])
            if ext not in seen:
                seen.add(ext)
                found.append(ext)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_subgroup(g: FiniteGroup, members: frozenset[int]) -> bool:
    if g.identity not in members:
        return False
    return all(g.mul[a][b] in members for a in members for b in members)


def is_normal(g: FiniteGroup, members: frozenset[int]) -> bool:
    return all(g.conj(a, x) in members for a in range(g.order) for x in members)


def is_abelian_subset(g: FiniteGroup, members: Iterable[int]) -> bool:
    ms = list(members)
    return all(
        g.mul[a][b] == g.mul[b][a] for i, a in enumerate(ms) for b in ms[:i]
    )


def normal_subgroups(g: FiniteGroup) -> list[frozenset[int]]:
    """Normal subgroups, by close_by_one over the non-identity classes.

    A union of classes generates a normal subgroup, itself a union of
    classes, so S ↦ {classes inside ⟨∪S⟩} is a closure whose closed sets are
    the normal subgroups without the identity: at most one subgroup is
    generated per (closed set, later class), not one subgroup test per set
    of classes.
    A closed set's classes already form a subgroup, so each step extends it
    by the new class rather than generating it afresh.
    """
    cc = conjugacy_classes(g)
    e = cc.class_of[g.identity]

    def members(chosen: int) -> frozenset[int]:
        return frozenset(x for c in bits(chosen | 1 << e) for x in cc.classes[c])

    def extend(chosen: int, j: int) -> int:
        h = extend_subgroup(g, members(chosen), cc.classes[j])
        return mask_of(cc.class_of[x] for x in h) & ~(1 << e)

    others = [c for c in range(cc.count) if c != e]
    closed = [0, *close_by_one(others, extend)]
    return sorted(map(members, closed), key=lambda s: (len(s), sorted(s)))


def maximal_normal_abelian_oracle(
    g: FiniteGroup, normals: list[frozenset[int]] | None = None
) -> list[frozenset[int]]:
    """Inclusion-maximal subgroups that are simultaneously normal and
    abelian, picked from normals, G's normal subgroups, when given."""
    if normals is None:
        normals = normal_subgroups(g)
    cand = [h for h in normals if is_abelian_subset(g, h)]
    return [h for h in cand if not any(h < k for k in cand)]


def maximal_abelian_subgroups(
    g: FiniteGroup, limits: Limits = DEFAULT_LIMITS
) -> list[frozenset[int]]:
    """Inclusion-maximal abelian subgroups; needs the full subgroup list."""
    cand = [h for h in subgroups(g, limits) if is_abelian_subset(g, h)]
    return [h for h in cand if not any(h < k for k in cand)]


# ---------------------------------------------------------------------------
# series and invariants


def commutator_subgroup(g: FiniteGroup, a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
    """[A, B] = ⟨x y x⁻¹ y⁻¹ : x ∈ A, y ∈ B⟩."""
    comms = {g.commutator(x, y) for x in a for y in b}
    return extend_subgroup(g, [g.identity], comms)


def _series(
    whole: frozenset[int], step: Callable[[frozenset[int]], frozenset[int]]
) -> list[frozenset[int]]:
    """whole, step(whole), step(step(whole)), ... up to the first term that
    step fixes."""
    series = [whole]
    while (nxt := step(series[-1])) != series[-1]:
        series.append(nxt)
    return series


def derived_length_oracle(
    g: FiniteGroup,
) -> tuple[list[frozenset[int]], int | _NotSolvable]:
    """Derived series by commutator iteration; length or NOT_SOLVABLE."""
    series = _series(frozenset(range(g.order)), lambda h: commutator_subgroup(g, h, h))
    return series, len(series) - 1 if len(series[-1]) == 1 else NOT_SOLVABLE


def lower_central_series(g: FiniteGroup) -> list[frozenset[int]]:
    whole = frozenset(range(g.order))
    return _series(whole, lambda h: commutator_subgroup(g, whole, h))


def nilpotency_class(g: FiniteGroup) -> int | None:
    series = lower_central_series(g)
    if len(series[-1]) == 1:
        return len(series) - 1
    return None


def is_simple(g: FiniteGroup) -> bool:
    if g.order == 1:
        return False
    return len(normal_subgroups(g)) == 2


@dataclass(frozen=True)
class GroupInvariants:
    order: int
    is_abelian: bool
    nilpotency_class: int | None
    is_solvable: bool
    derived_length: int | None
    is_simple: bool

    def summary(self) -> str:
        bits = [f"order={self.order}"]
        bits.append("abelian" if self.is_abelian else "nonabelian")
        if self.nilpotency_class is not None:
            bits.append(f"nilpotent(class {self.nilpotency_class})")
        else:
            bits.append("not nilpotent")
        if self.is_solvable:
            bits.append(f"solvable(derived length {self.derived_length})")
        else:
            bits.append("not solvable")
        if self.is_simple:
            bits.append("simple")
        return ", ".join(bits)


def group_invariants(g: FiniteGroup) -> GroupInvariants:
    _, dl = derived_length_oracle(g)
    solvable = dl is not NOT_SOLVABLE
    return GroupInvariants(
        order=g.order,
        is_abelian=g.is_abelian(),
        nilpotency_class=nilpotency_class(g),
        is_solvable=solvable,
        derived_length=dl if solvable else None,
        is_simple=is_simple(g),
    )


# ---------------------------------------------------------------------------
# quotients and products


def cosets(g: FiniteGroup, members: frozenset[int]) -> list[frozenset[int]]:
    """Cosets x·N of a normal subgroup N, ordered by least member.

    Raises NotNormal when N is not a subgroup, or not a normal one. The
    left cosets of any subgroup partition G, and N is normal exactly when
    x·N·x⁻¹ ⊆ N for one x in each coset: for a = x·n, a·N·a⁻¹ = x·N·x⁻¹,
    since n·N·n⁻¹ = N. Each coset x·N is built anyway, and x·N·x⁻¹ is it
    times x⁻¹, so the test takes |G| products, not is_normal's |G|·|N|.
    """
    if not is_subgroup(g, members):
        raise NotNormal("not a subgroup")
    mul = g.mul
    seen: set[int] = set()
    parts = []
    for x in range(g.order):
        if x not in seen:
            coset = frozenset(mul[x][h] for h in members)
            xi = g.inv[x]
            if any(mul[y][xi] not in members for y in coset):
                raise NotNormal("subgroup is not normal")
            seen |= coset
            parts.append(coset)
    return parts


def quotient(
    g: FiniteGroup, members: frozenset[int]
) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup; returns (G/N, projection to coset index)."""
    parts = cosets(g, members)
    proj = [0] * g.order
    for i, c in enumerate(parts):
        for x in c:
            proj[x] = i
    # identity's coset carries index 0 because element 0 is seen first
    reps = [min(c) for c in parts]
    mul = [[proj[g.mul[a][b]] for b in reps] for a in reps]
    q = group_from_cayley_table(mul, name=f"{g.name or 'G'}/N")
    return q, tuple(proj)


def direct_product(a: FiniteGroup, b: FiniteGroup, name: str = "") -> FiniteGroup:
    n = a.order * b.order
    def pack(x: int, y: int) -> int:
        return x * b.order + y
    mul = [[0] * n for _ in range(n)]
    for x1 in range(a.order):
        for y1 in range(b.order):
            for x2 in range(a.order):
                for y2 in range(b.order):
                    mul[pack(x1, y1)][pack(x2, y2)] = pack(
                        a.mul[x1][x2], b.mul[y1][y2]
                    )
    inv = [0] * n
    for x in range(a.order):
        for y in range(b.order):
            inv[pack(x, y)] = pack(a.inv[x], b.inv[y])
    return FiniteGroup(
        order=n,
        mul=tuple(tuple(row) for row in mul),
        inv=tuple(inv),
        identity=0,
        name=name or f"{a.name or 'A'}x{b.name or 'B'}",
    )


# ---------------------------------------------------------------------------
# file formats


def parse_cayley(text: str, name: str = "") -> FiniteGroup:
    """Cayley table text: first line n, then n rows of n indices. '#' comments.

    A table that is no group raises FormatError naming the reason."""
    try:
        return group_from_cayley_table(parse_table(text), name=name)
    except NotAGroup as exc:
        raise FormatError(f"table is not a group: {exc.reason}") from exc


def format_cayley(g: FiniteGroup) -> str:
    return format_table(g.mul)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(line: str, degree: int) -> tuple[int, ...]:
    """One permutation in 1-based disjoint-cycle notation, e.g. (1 2)(3 4)."""
    stripped = line.replace(",", " ").strip()
    if not stripped:
        raise FormatError("empty permutation line")
    covered = _CYCLE_RE.sub("", stripped).strip()
    if covered:
        raise FormatError(f"stray text {covered!r} in permutation {line!r}")
    perm = list(range(degree))
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(stripped):
        pts = ints(body.split(), "cycle", body)
        if not pts:
            continue
        for p in pts:
            if not (1 <= p <= degree):
                raise FormatError(f"point {p} outside degree {degree}")
            if p - 1 in seen:
                raise FormatError(f"point {p} repeated in {line!r}")
            seen.add(p - 1)
        for i, p in enumerate(pts):
            perm[p - 1] = pts[(i + 1) % len(pts)] - 1
    return tuple(perm)


def parse_pgen(text: str, name: str = "", limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Permutation-generator text: first line degree, then one generator per line."""
    lines = list(content_lines(text))
    if not lines:
        raise FormatError("empty generator file")
    (degree,) = ints(lines[:1], "degree line", lines[0])
    if degree < 0:
        raise FormatError(f"negative degree {degree}")
    gens = [parse_cycles(ln, degree) for ln in lines[1:]]
    return group_from_permutation_generators(degree, gens, name=name, limits=limits)


def load_group(path: str, limits: Limits = DEFAULT_LIMITS) -> FiniteGroup:
    """Load a .cay or .pgen file, picking the parser by extension."""
    text, name = read_file(path)
    if path.endswith(".pgen"):
        return parse_pgen(text, name=name, limits=limits)
    if path.endswith(".cay"):
        return parse_cayley(text, name=name)
    raise FormatError(f"unknown group file extension on {os.path.basename(path)!r}")
