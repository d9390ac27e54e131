"""Shared caches so each catalog lattice is enumerated at most once per run,
the small-rack and closed-family strategies that several test files draw
from, and the pairwise closedness test they check subracks with."""

from importlib import resources
from math import gcd

import pytest
from hypothesis import strategies as st

from rackle.catalog import named_group
from rackle.closedsets import bits
from rackle.groups import conjugacy_classes
from rackle.lattice import enumerate_subrack_lattice, to_abstract
from rackle.racks import (
    ConjugationRack,
    conjugacy_class_rack,
    group_rack,
    p_power_rack,
)

# GL(2,3): order 48, derived length 4, outside the catalog
GL23_PATH = str(resources.files("rackle").joinpath("fixtures", "gl23.pgen"))

_groups: dict = {}
_lattices: dict = {}
_abstracts: dict = {}


def get_group(name: str):
    if name not in _groups:
        _groups[name] = named_group(name)
    return _groups[name]


def get_lattice(name: str):
    if name not in _lattices:
        _lattices[name] = enumerate_subrack_lattice(group_rack(get_group(name)))
    return _lattices[name]


def get_abstract(name: str, seed: int | None = None):
    key = (name, seed)
    if key not in _abstracts:
        _abstracts[key] = to_abstract(get_lattice(name), seed=seed)
    return _abstracts[key]


@pytest.fixture(scope="session")
def group_of():
    return get_group


@pytest.fixture(scope="session")
def lattice_of():
    return get_lattice


@pytest.fixture(scope="session")
def abstract_of():
    return get_abstract


def content_lines_reference(text):
    """textio.content_lines as it split the whole text at once, before it
    read a block at a time: the lines the block reader must give."""
    lines = text.splitlines()
    if "#" in text:
        lines = (ln.split("#", 1)[0] for ln in lines)
    return filter(None, map(str.strip, lines))


def rack_from(op):
    return ConjugationRack(size=len(op), op=tuple(tuple(row) for row in op))


def is_closed_mask(rows, mask):
    """Whether the set is closed, by all |S|² products: the reference that
    the brute-force oracle's subset recurrence is checked against."""
    members = bits(mask)
    return all(mask >> rows[a][b] & 1 for a in members for b in members)


def permutation_rack(perm):
    """a ▷ b = σ(b): a rack for every σ, a quandle only for σ = id."""
    return rack_from([perm] * len(perm))


def alexander_quandle(n, t):
    """a ▷ b = t·b + (1 − t)·a mod n; a quandle for every unit t."""
    return rack_from([[(t * b + (1 - t) * a) % n for b in range(n)] for a in range(n)])


def relabelled_rack(op, perm):
    """The same rack with point a renamed perm[a]."""
    out = [[0] * len(op) for _ in op]
    for a, row in enumerate(op):
        for b, c in enumerate(row):
            out[perm[a]][perm[b]] = perm[c]
    return rack_from(out)


# point 2 swaps 0 and 1, which act trivially: a closure that crosses a new
# point only with the points it moves, or only with those moving it, misses
# a product under one of the labellings
ONE_SIDED = ((0, 1, 2), (0, 1, 2), (1, 0, 2))

SMALL_GROUPS = ("S3", "D4", "Q8", "A4", "D5", "D6", "Dic3", "Z2xZ2xZ2")

small_racks = st.one_of(
    st.permutations(range(3)).map(lambda perm: relabelled_rack(ONE_SIDED, perm)),
    st.integers(1, 9).flatmap(lambda m: st.permutations(range(m))).map(permutation_rack),
    st.integers(2, 12).flatmap(
        lambda n: st.sampled_from([t for t in range(1, n) if gcd(t, n) == 1])
        .map(lambda t: alexander_quandle(n, t))
    ),
    st.sampled_from(SMALL_GROUPS).flatmap(
        lambda name: st.integers(0, conjugacy_classes(get_group(name)).count - 1)
        .map(lambda i: conjugacy_class_rack(get_group(name), i))
    ),
    st.tuples(st.sampled_from(SMALL_GROUPS), st.sampled_from((2, 3, 5))).map(
        lambda gp: p_power_rack(get_group(gp[0]), gp[1])
    ),
)


@st.composite
def closed_families(draw, k=None):
    """Intersection-closed set families holding ∅, the full set and every
    singleton: atomistic lattices whose supports are the sets themselves."""
    if k is None:
        k = draw(st.integers(1, 6))
    full = (1 << k) - 1
    family = {0, full} | {1 << p for p in range(k)}
    family |= set(draw(st.lists(st.integers(0, full), max_size=12)))
    while True:
        meets = {x & y for x in family for y in family} - family
        if not meets:
            break
        family |= meets
    return sorted(family)


def congruence_witness_reference(g, parts):
    """Why parts, a partition of G, is no congruence of its conjugation
    rack, or None: every pair (x, y) in order, one g.conj each, against the
    first pair with the same parts. The message verify's coset-join line
    names a broken pair with."""
    part_of = {x: i for i, part in enumerate(parts) for x in part}
    first = {}
    for x in range(g.order):
        for y in range(g.order):
            z = g.conj(x, y)
            x0, y0, z0 = first.setdefault((part_of[x], part_of[y]), (x, y, z))
            if part_of[z] != part_of[z0]:
                return f"{x0} ▷ {y0} = {z0} and {x} ▷ {y} = {z} lie in different parts"
    return None
