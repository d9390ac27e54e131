"""Enumeration, lattice queries, abstraction, isomorphism, and the .lat format."""

import hashlib
import random
import re
import tracemalloc
from functools import cache, reduce
from itertools import islice, permutations, product
from operator import or_

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackle import (
    IsomorphismTimeout,
    TooLarge,
    are_isomorphic,
    brute_force_closed_masks,
    check_isomorphism,
    conjugacy_classes,
    enumerate_subrack_lattice,
    group_rack,
    load_group,
    load_lattice,
    maximal_boolean_elements,
    save_lattice,
    to_abstract,
)
from rackle.catalog import catalog_entries, dihedral, direct_product, sl23
from rackle.closedsets import bits, close_by_one, mask_of
from rackle.config import DEFAULT_LIMITS
from rackle.errors import FormatError
from rackle.lattice import (
    AbstractLattice,
    SubrackLattice,
    _in_order,
    enumerate_closed_masks,
    format_lattice,
    order_key,
    parse_lattice,
    relabel,
)
from rackle.racks import (
    closure_extend,
    closure_mask,
    conjugacy_class_rack,
    moves_of,
    rack_closure,
    verify_rack_axioms,
)
from rackle.textio import content_lines, ints

from conftest import (
    GL23_PATH,
    ONE_SIDED,
    closed_families,
    get_abstract,
    get_group,
    get_lattice,
    is_closed_mask,
    permutation_rack,
    rack_from,
    relabelled_rack,
    small_racks,
)


class TestEnumeration:
    def test_abelian_powerset(self):
        for name in ("triv", "Z2", "Z5", "Z6", "Z4xZ2"):
            g = get_group(name)
            assert get_lattice(name).size == 1 << g.order

    def test_s3_count(self):
        assert get_lattice("S3").size == 18

    def test_transposition_class_rack_count(self):
        g = get_group("S3")
        part = conjugacy_classes(g)
        idx = next(i for i, c in enumerate(part.classes) if len(c) == 3)
        lat = enumerate_subrack_lattice(conjugacy_class_rack(g, idx))
        assert lat.size == 5

    def test_known_counts(self):
        for name, count in (("D4", 56), ("Q8", 56), ("A4", 52),
                            ("D5", 50), ("D6", 148), ("Dic3", 148)):
            assert get_lattice(name).size == count, name

    def test_matches_brute_force(self):
        for name in ("S3", "D4", "Z6", "A4", "Q8", "D5"):
            rack = group_rack(get_group(name))
            assert get_lattice(name).elements == brute_force_closed_masks(rack)

    def test_every_element_is_closed(self):
        rows = group_rack(get_group("S4")).op
        for mask in get_lattice("S4").elements:
            assert is_closed_mask(rows, mask)

    def test_sorted_by_popcount_then_members(self):
        lat = get_lattice("D6")
        keys = [(m.bit_count(), sorted_members(m)) for m in lat.elements]
        assert keys == sorted(keys)

    def test_ground_cap(self):
        # enumeration is bounded by its output, so A5 (60 points) enumerates
        assert get_lattice("A5").size == 490
        lim = DEFAULT_LIMITS.with_(lattice_cap=489)
        with pytest.raises(TooLarge):
            enumerate_closed_masks(group_rack(get_group("A5")), limits=lim)

    def test_lattice_cap(self):
        lim = DEFAULT_LIMITS.with_(lattice_cap=100)
        with pytest.raises(TooLarge):
            enumerate_closed_masks(group_rack(get_group("Z8")), limits=lim)

    def test_lattice_cap_counts_fixed_point_unions(self):
        # every point of Z2^4 is fixed: the walk is {∅}, times 2^16 unions
        rack = group_rack(get_group("Z2xZ2xZ2xZ2"))
        with pytest.raises(TooLarge):
            enumerate_closed_masks(rack, limits=DEFAULT_LIMITS.with_(lattice_cap=65_535))
        lim = DEFAULT_LIMITS.with_(lattice_cap=65_536)
        assert len(enumerate_closed_masks(rack, limits=lim)) == 65_536

    @pytest.mark.parametrize("make, closures", [
        (lambda: get_group("Z2xZ2xZ2xZ2"), 0),
        (lambda: dihedral(24), 13_917),  # D12: 4,664 subracks, centre of 2
        (lambda: get_group("A5"), 5_728),
    ], ids=["Z2xZ2xZ2xZ2", "D12", "A5"])
    def test_closure_count(self, monkeypatch, make, closures):
        # a work count, not a clock: the walk tries only the moving points
        calls = []

        def counted(*args):
            calls.append(1)
            return closure_extend(*args)

        rack = group_rack(make())
        monkeypatch.setattr("rackle.lattice.closure_extend", counted)
        enumerate_closed_masks(rack)
        assert len(calls) == closures


# SHA-256 of repr(enumerate_closed_masks(group_rack(g))) and the list's
# length, as the enumerator gave them when it key-sorted every mask; groups
# with one subrack lattice share a digest. A5's 60 points give keys wider
# than 64 bits.
ENUMERATED = {
    "triv": ("923682bea6d517dc178d480c88e129e485ed902f4fa024866666658cd4ea6836", 2),
    "Z2": ("02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780", 4),
    "Z3": ("56936abf6634e02ea069fc3c4345f49254c76bde78569ab6f276f0bc6e723b2f", 8),
    "Z2xZ2": ("909417d181e0b6e53e73bb2c2e5414bd8b13f680735f427eb5802775010606f3", 16),
    "Z4": ("909417d181e0b6e53e73bb2c2e5414bd8b13f680735f427eb5802775010606f3", 16),
    "Z5": ("4817916b353f2d032fdc76098bf4653e037c7a80f047ab75b1b1881bf2d69128", 32),
    "S3": ("8fcbc1d373ce4fa7e8c1893e6ba38ef19b870dde6417d055b0fefc16218c33d8", 18),
    "Z6": ("b7958a99e84281093dd15595ff7c3f8670113410137db8cc9252c0ee7d9792f5", 64),
    "Z7": ("e7e44f39f9ad1407cd1ba566a9f3316baa7174bff66367f29cf97bfe35360663", 128),
    "D4": ("7d1685bba03eaafb93c1d6d6ddaeaa47ff3aa98dbd1537c480d25de5c614baea", 56),
    "Q8": ("7d1685bba03eaafb93c1d6d6ddaeaa47ff3aa98dbd1537c480d25de5c614baea", 56),
    "Z2xZ2xZ2": ("81b1fba097a0928366e871fdfb6b6d8f9575526722a7b34730381c8f412655a2", 256),
    "Z4xZ2": ("81b1fba097a0928366e871fdfb6b6d8f9575526722a7b34730381c8f412655a2", 256),
    "Z8": ("81b1fba097a0928366e871fdfb6b6d8f9575526722a7b34730381c8f412655a2", 256),
    "Z3xZ3": ("14ae5d4214baed0f7ebd1531eb98c35909a70a3f6e3e71ac2399ec67b2366f02", 512),
    "Z9": ("14ae5d4214baed0f7ebd1531eb98c35909a70a3f6e3e71ac2399ec67b2366f02", 512),
    "D5": ("41d81285a6df402a74e6161f935a6366054dcc444f098b0a276f6640693afaa5", 50),
    "Z10": ("96a4e1f1a59134b989ae66b80165069b084565b6dc03b346562b547f16bf6af4", 1024),
    "Z11": ("8dbf38b7403010f08ca01c6f93f13808d49390c30db14257b4f332899b832ee4", 2048),
    "A4": ("2148f66bf632eb3d188c862d7019204b15d832a7d5a882f72f23ffedd90bcb0f", 52),
    "D6": ("f221b3b61267d9ed1a87e782b5883ee69491cb10129d044be88ae53885051371", 148),
    "Dic3": ("f221b3b61267d9ed1a87e782b5883ee69491cb10129d044be88ae53885051371", 148),
    "Z12": ("2ebfe2d5e15cc1a9fdf62f7948f27021797e05d80050a6ec94957a24195aa510", 4096),
    "Z6xZ2": ("2ebfe2d5e15cc1a9fdf62f7948f27021797e05d80050a6ec94957a24195aa510", 4096),
    "Z13": ("09f154026c4e6fbf08b1a9c96c2146e7a9e930e0320fd9734135ccb3f1255db4", 8192),
    "D7": ("5c1f29a6808dd46083c28d49acf085ba52eed0b418ff195cc354ac5c5be2a86a", 158),
    "Z14": ("01343f42dad369ed863c8b5cba62a02c6f8627d26d05d1360e1c50d7ae69c72d", 16384),
    "Z15": ("3b0dfb533dde985c34181cf609ec3ac6e6b384f0082a4794406c3a4ee9f09ba7", 32768),
    "D8": ("8a1edffd61b9ade1cb5e56988139388736a0253eb361bbdc86384f0a1e6175f8", 416),
    "Q16": ("8a1edffd61b9ade1cb5e56988139388736a0253eb361bbdc86384f0a1e6175f8", 416),
    "Z16": ("9a059fcec54891bb82dcad6f4ba569df6c865cd8cfeaf9ff3edfc70d87156c25", 65536),
    "Z2xD4": ("2f35232d57d34de6b98a100709f8e072c04f0b153a3088608719ff9066c5d8bb", 1600),
    "Z2xQ8": ("2f35232d57d34de6b98a100709f8e072c04f0b153a3088608719ff9066c5d8bb", 1600),
    "Z2xZ2xZ2xZ2": ("9a059fcec54891bb82dcad6f4ba569df6c865cd8cfeaf9ff3edfc70d87156c25", 65536),
    "Z4xZ2xZ2": ("9a059fcec54891bb82dcad6f4ba569df6c865cd8cfeaf9ff3edfc70d87156c25", 65536),
    "Z4xZ4": ("9a059fcec54891bb82dcad6f4ba569df6c865cd8cfeaf9ff3edfc70d87156c25", 65536),
    "Z8xZ2": ("9a059fcec54891bb82dcad6f4ba569df6c865cd8cfeaf9ff3edfc70d87156c25", 65536),
    "S4": ("59b6286ca373ca22d1b99ac37f11a4f5ac554b91153cddff4339ccd7b8d2b5c7", 212),
    "sl23": ("827e1279dc216ee4872070a880170ac9c998aa3c8fc5848c0a52f958bce56a67", 416),
    "A5": ("193bacfb76aff40d76ce0ef18ef23ead0185139a1afb57016006767e8bd67af8", 490),
    "D16": ("69d218eb5c0287d7b81b838a60c948df7f34570ea0ac49279c69e0c5fb1315c0", 67328),
    "GL23": ("4c69d329ff868d7677f76d78910fc0bf010686e754f84db66e6dca62133b653d", 1912),
    "Z2xSL23": ("1782b4dd285c21d719e3d32db16c903ae7ebfebdfd878eddb69b15e4fdc3e1e0", 34240),
}


def pinned_group(name):
    extra = {
        "A5": lambda: get_group("A5"),
        "D16": lambda: dihedral(32),
        "GL23": lambda: load_group(GL23_PATH),
        "Z2xSL23": lambda: direct_product(get_group("Z2"), sl23()),
    }
    if name in extra:
        return extra[name]()
    return next(g for g in catalog_entries(24) if g.name == name)


@pytest.mark.parametrize("name", ENUMERATED)
def test_enumerated_lists_are_pinned(name):
    masks = enumerate_closed_masks(group_rack(pinned_group(name)))
    assert (hashlib.sha256(repr(masks).encode()).hexdigest(), len(masks)) == ENUMERATED[name]


def full_closure_lectic(rows, m):
    """Reference enumeration without the abort: finish every closure, then
    reject it when it holds new points below j. Lectic visiting order."""
    out = []

    def rec(a, j_from):
        out.append(a)
        for j in range(j_from, m):
            if a >> j & 1:
                continue
            b = closure_mask(rows, a | 1 << j)
            below = (1 << j) - 1
            if b & below == a & below:
                rec(b, j + 1)

    rec(0, 0)
    return out


def assert_walk_matches_reference(rows, m):
    """The raw walk over the moving points, with the enumerator's aborting
    step, visits the reference's sets that miss every fixed point, in the
    reference's order; with the fixed-point unions the sorted output is the
    whole reference, each set once."""
    moves = moves_of(rows)
    moving = [j for j in range(m) if moves[j]]
    raw = [0, *close_by_one(moving, lambda a, j: closure_extend(rows, moves, a, j, (1 << j) - 1))]
    ref = full_closure_lectic(rows, m)
    fixed = mask_of(a for a in range(m) if not moves[a])
    assert raw == [s for s in ref if not s & fixed]
    assert enumerate_closed_masks(rack_from(rows)) == sorted(ref, key=order_key(m))


@given(small_racks)
@settings(max_examples=80, deadline=None)
def test_abort_matches_brute_force(rack):
    assert verify_rack_axioms(rack.op).is_rack
    assert enumerate_closed_masks(rack) == brute_force_closed_masks(rack)
    assert_walk_matches_reference(rack.op, rack.size)


@st.composite
def racks_with_fixed_points(draw):
    """A small rack plus 1–4 trivial points (each acts as the identity and
    every translation fixes it), relabelled at random so that the fixed
    points sit among the moving ones."""
    rack = draw(small_racks)
    k = rack.size
    m = k + draw(st.integers(1, 4))
    op = [list(row) + list(range(k, m)) for row in rack.op]
    op += [list(range(m))] * (m - k)
    return relabelled_rack(op, draw(st.permutations(range(m))))


@given(racks_with_fixed_points())
@settings(max_examples=40, deadline=None)
def test_fixed_points_anywhere(rack):
    assert verify_rack_axioms(rack.op).is_rack
    assert enumerate_closed_masks(rack) == brute_force_closed_masks(rack)
    assert_walk_matches_reference(rack.op, rack.size)


@given(st.one_of(small_racks, racks_with_fixed_points()))
@example(permutation_rack([1, 2, 0]))        # a ▷ a ≠ a: no singleton is closed
@settings(max_examples=80, deadline=None)
def test_brute_force_matches_pairwise_scan(rack):
    m, rows = rack.size, rack.op
    ref = sorted((s for s in range(1 << m) if is_closed_mask(rows, s)), key=order_key(m))
    assert brute_force_closed_masks(rack) == ref


def test_brute_force_refuses_before_building_its_table():
    # the 2^21-entry table alone would take 16 MB
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            brute_force_closed_masks(rack_from([list(range(21))] * 21))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("perm", list(permutations(range(3))))
def test_products_count_from_both_sides(perm):
    rack = relabelled_rack(ONE_SIDED, perm)
    assert verify_rack_axioms(rack.op).is_quandle
    assert enumerate_closed_masks(rack) == brute_force_closed_masks(rack)


def assert_abstraction_keeps_order(rack, seed):
    """Support containment is the concrete containment order.

    Without a seed, element x keeps index x and support bit i is atom i.
    Every subrack is then the union of the atoms its support names, so
    supp(x) ⊆ supp(y) exactly when x ⊆ y; checking that union per element
    proves it in O(n·m). A shuffled abstraction is the same order up to
    relabelling, found by the atom search and checked in O(n·m).
    """
    lat = enumerate_subrack_lattice(rack)
    assert isinstance(lat, AbstractLattice)
    ab = to_abstract(lat)
    assert lat.supports == ab.supports
    if verify_rack_axioms(rack.op).is_quandle:
        # every atom is one point: the member sets are the supports
        assert lat.supports is lat.elements
    atom_masks = [lat.elements[a] for a in lat.atoms]
    assert ab.n_atoms == len(ab.atoms) == len(atom_masks)
    for x, mask in enumerate(lat.elements):
        union = 0
        for i in bits(ab.supports[x]):
            union |= atom_masks[i]
        assert union == mask
        assert ab.supports[x] == mask_of(i for i, am in enumerate(atom_masks) if am & mask == am)
    shuffled = to_abstract(lat, seed=seed)
    assert sorted(map(int.bit_count, shuffled.supports)) == sorted(map(int.bit_count, ab.supports))
    mapping = are_isomorphic(ab, shuffled)
    assert mapping is not None and check_isomorphism(ab, shuffled, mapping)


class TestAtomistic:
    def test_every_labelled_rack_up_to_three_points(self):
        count = 0
        for m in (1, 2, 3):
            for op in product(permutations(range(m)), repeat=m):
                if verify_rack_axioms(op).is_rack:
                    assert_abstraction_keeps_order(rack_from(op), seed=m)
                    count += 1
        # racks on 1, 2 and 3 labelled points: 1 + 2 + 13
        assert count == 16

    def test_concrete_chain_is_rejected(self):
        text = "4 3\n0 0\n1 1 0\n2 2 0 1\n3 3 0 1 2\nHASSE\n0 1\n1 2\n2 3\n"
        with pytest.raises(FormatError, match=r"elements 1 and 2\b"):
            parse_lattice(text)

    def test_abstract_chain_is_rejected(self):
        # written as supports, a 4-chain over its one atom repeats a support,
        # so its lines cannot be strictly in popcount-then-lex order
        text = "4 1\n0 0\n1 1 0\n2 1 0\n3 1 0\n"
        with pytest.raises(FormatError, match="not in popcount-then-lex order"):
            parse_lattice(text)

    def test_repeated_support_is_rejected(self):
        # two tops would make a 5-element "lattice" no reader accepts
        with pytest.raises(FormatError, match="5 elements but 4 distinct supports"):
            AbstractLattice([0, 1, 2, 3, 3])


@given(small_racks, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_abstraction_keeps_order(rack, seed):
    assert_abstraction_keeps_order(rack, seed)


class TestClosureAbort:
    def test_catalog_visiting_order_unchanged(self):
        for g in catalog_entries(12) + [get_group("S4")]:
            assert_walk_matches_reference(group_rack(g).op, g.order)

    def test_abort_returns_none_on_forbidden_point(self):
        # a ▷ b = σ(b) with σ = (0 1 2): adding 2 drags in 0, which is below 2
        rows = permutation_rack((1, 2, 0)).op
        moves = moves_of(rows)
        assert closure_extend(rows, moves, 0, 2) == 0b111
        assert closure_extend(rows, moves, 0, 2, 0b011) is None


def sorted_members(mask):
    out = []
    j = 0
    while mask:
        if mask & 1:
            out.append(j)
        mask >>= 1
        j += 1
    return tuple(out)


class TestLatticeQueries:
    def test_bottom_top(self):
        lat = get_lattice("S3")
        assert lat.elements[lat.bottom] == 0
        assert lat.elements[lat.top] == (1 << 6) - 1

    def test_atoms_are_singletons(self):
        lat = get_lattice("D4")
        assert len(lat.atoms) == 8
        assert all(lat.elements[a].bit_count() == 1 for a in lat.atoms)

    def test_coatoms_are_class_complements(self):
        g = get_group("S3")
        lat = get_lattice("S3")
        full = (1 << 6) - 1
        expected = set()
        for cl in conjugacy_classes(g).classes:
            m = 0
            for x in cl:
                m |= 1 << x
            expected.add(full & ~m)
        assert {lat.elements[c] for c in lat.proper_maximal} == expected

    @pytest.mark.parametrize("name", [g.name for g in catalog_entries(24)])
    def test_pair_joins_are_the_atom_pair_joins(self, name):
        ab = get_abstract(name, seed=5)
        pj = ab.pair_joins
        for p in range(ab.n_atoms):
            for q in range(ab.n_atoms):
                assert pj[p][q] == pj[q][p]
                assert pj[p][q] == ab.supports[ab.join_mask(1 << p | 1 << q)]

    def test_atoms_of_permutation_rack_are_orbits(self):
        # a ▷ b = σ(b) is no quandle: the subrack {a} generates is a's σ-orbit
        for perm in ((1, 2, 0, 4, 3, 5), (1, 0, 3, 4, 2)):
            rack = permutation_rack(perm)
            lat = enumerate_subrack_lattice(rack)
            orbits = {mask_of(rack_closure(rack, [a])) for a in range(rack.size)}
            assert lat.atoms == sorted(lat.elements.index(o) for o in orbits)


class TestAbstraction:
    def test_sizes_and_atoms(self):
        ab = get_abstract("S3")
        assert ab.size == 18 and ab.n_atoms == 6
        assert len(ab.atoms) == 6
        assert len(ab.proper_maximal) == 3

    def test_boolean_flags(self):
        assert get_abstract("Z6").is_boolean()
        assert not get_abstract("S3").is_boolean()

    def test_supports_encode_order(self):
        lat = get_lattice("Q8")
        ab = to_abstract(lat)
        for x, ex in enumerate(lat.elements):
            for y, ey in enumerate(lat.elements):
                assert (ex & ey == ex) == ab.leq(x, y)

    def test_shuffle_is_isomorphic(self):
        ab = get_abstract("S3")
        shuf = get_abstract("S3", seed=7)
        mapping = are_isomorphic(ab, shuf)
        assert mapping is not None
        assert check_isomorphism(ab, shuf, mapping)

    def test_boolean_interval_rotations(self):
        # the maximal abelian subgroups of S3: the rotations (3 atoms) and
        # the three {e, t} (2 atoms); no 4-atom element has a Boolean interval
        ab = get_abstract("S3")
        sizes = sorted(len(ab.atoms_below(x)) for x in maximal_boolean_elements(ab))
        assert sizes == [2, 2, 2, 3]

    def test_two_element_lattice(self):
        ab = to_abstract(enumerate_subrack_lattice(group_rack(get_group("Z2"))))
        assert ab.size == 4 and ab.is_boolean()
        triv = to_abstract(enumerate_subrack_lattice(group_rack(get_group("triv"))))
        assert triv.size == 2
        assert triv.proper_maximal == [triv.bottom]


# ∅, the full set, and every singleton and pair of six atoms
_SIX_PAIRS = [0, 63] + [1 << p for p in range(6)] + [
    1 << p | 1 << q for p in range(6) for q in range(p)
]


class TestIsomorphism:
    def test_boolean_pair(self):
        a = get_abstract("Z4")
        b = get_abstract("Z2xZ2")
        mapping = are_isomorphic(a, b)
        assert mapping is not None and check_isomorphism(a, b, mapping)

    def test_d4_q8(self):
        a = get_abstract("D4")
        b = get_abstract("Q8", seed=3)
        mapping = are_isomorphic(a, b)
        assert mapping is not None and check_isomorphism(a, b, mapping)

    def test_different_sizes(self):
        assert are_isomorphic(get_abstract("S3"), get_abstract("Z6")) is None

    def test_same_size_different_atoms(self):
        b3 = AbstractLattice(list(range(8)))
        four = AbstractLattice([0, 1, 2, 4, 8, 3, 12, 15])
        assert b3.size == four.size and b3.n_atoms == 3 and four.n_atoms == 4
        assert are_isomorphic(b3, four) is None

    def test_same_profile_not_isomorphic(self):
        # same size and atom count, separated by invariant refinement:
        # disjoint pair-elements versus pair-elements sharing an atom
        a = AbstractLattice(supports=[0, 1, 2, 4, 8, 3, 12, 15])
        b = AbstractLattice(supports=[0, 1, 2, 4, 8, 3, 5, 15])
        assert are_isomorphic(a, b) is None

    def test_node_budget(self):
        lim = DEFAULT_LIMITS.with_(iso_node_budget=0)
        with pytest.raises(IsomorphismTimeout):
            are_isomorphic(get_abstract("D4"), get_abstract("Q8"), limits=lim)

    def test_check_rejects_wrong_map(self):
        a = get_abstract("S3")
        b = get_abstract("S3", seed=11)
        assert not check_isomorphism(a, b, list(range(a.size - 1)))
        mapping = are_isomorphic(a, b)
        twisted = list(mapping)
        # swap the images of bottom and top: order is no longer preserved
        twisted[a.bottom], twisted[a.top] = twisted[a.top], twisted[a.bottom]
        assert not check_isomorphism(a, b, twisted)
        # atom 0 sent to bottom, then to top: it comes first in index order
        square = AbstractLattice([1, 2, 0, 3])
        assert check_isomorphism(square, square, [0, 1, 2, 3])
        assert not check_isomorphism(square, square, [2, 1, 0, 3])
        assert not check_isomorphism(square, square, [3, 1, 2, 0])

    def test_isomorphic_catalog_twins(self):
        for x, y in (("D6", "Dic3"), ("Z12", "Z6xZ2")):
            mapping = are_isomorphic(get_abstract(x), get_abstract(y))
            assert mapping is not None, (x, y)


    def test_z2xd4_z2xq8(self):
        # 1,600 elements: an element-by-element search overflowed the stack
        a = get_abstract("Z2xD4")
        b = get_abstract("Z2xQ8", seed=2)
        mapping = are_isomorphic(a, b)
        assert mapping is not None and check_isomorphism(a, b, mapping)

    def test_boolean_65536(self):
        a = AbstractLattice(list(range(1 << 16)))
        rng = random.Random(16)
        pi = list(range(16))
        rng.shuffle(pi)
        supports = [relabel_reference(s, pi) for s in range(1 << 16)]
        rng.shuffle(supports)
        b = AbstractLattice(supports)
        mapping = are_isomorphic(a, b)
        assert mapping is not None and check_isomorphism(a, b, mapping)
        assert mapping[a.top] == b.top

    @pytest.mark.parametrize("sa, sb", [
        ([0, 1, 2, 4, 5, 8, 9, 10, 11, 12, 14, 15], [0, 1, 2, 3, 4, 6, 8, 9, 10, 11, 13, 15]),
        # six atoms, every pair an element, and two triples that share an
        # atom in a but not in b: the atom joins agree under every atom
        # bijection, so each full bijection must be rejected on its supports
        (_SIX_PAIRS + [0b000111, 0b011001], _SIX_PAIRS + [0b000111, 0b111000]),
    ], ids=["four-atoms", "six-atoms"])
    def test_equal_atom_invariants_not_isomorphic(self, sa, sb):
        # every atom sees the same join popcounts in both, so only the
        # search itself can tell them apart
        a, b = AbstractLattice(sa), AbstractLattice(sb)

        def invariants(lat):
            return sorted(sorted(map(int.bit_count, row)) for row in lat.pair_joins)

        assert invariants(a) == invariants(b)
        assert brute_force_isomorphic(sa, sb) is None
        assert are_isomorphic(a, b) is None


def relabel_reference(mask, pi):
    """One mask through pi a bit at a time: what relabel's byte tables compute."""
    return mask_of(pi[p] for p in bits(mask))


@st.composite
def masks_and_permutations(draw):
    """A bit permutation of width 0 to 40, and masks of that width."""
    width = draw(st.integers(min_value=0, max_value=40))
    pi = draw(st.permutations(range(width)))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << width) - 1), max_size=20))
    return masks, pi


@given(masks_and_permutations())
@example(([0], []))
@example(([0, 511, 1, 256], [8, 0, 7, 1, 6, 2, 5, 3, 4]))
@example(([(1 << 40) - 1, 1 << 39], list(range(39, -1, -1))))
@settings(max_examples=300, deadline=None)
def test_relabel_matches_bit_at_a_time(case):
    # widths 0, 9 and 40 always run: no byte, a part byte, five bytes
    masks, pi = case
    assert relabel(masks, pi) == [relabel_reference(s, pi) for s in masks]


@pytest.mark.parametrize("name", [g.name for g in catalog_entries(12)])
def test_to_abstract_draws_are_pinned(name):
    # seeded shuffles feed derive seeds and verify's output: the supports
    # are copied and shuffled, then the atom permutation is drawn
    lat = get_lattice(name)
    for seed in range(5):
        rng = random.Random(seed)
        supports = lat.supports[:]
        pi = list(range(lat.n_atoms))
        rng.shuffle(supports)
        rng.shuffle(pi)
        expected = [relabel_reference(s, pi) for s in supports]
        assert to_abstract(lat, seed).supports == expected


def star_lattice(size):
    """Bottom, size − 2 atoms and top (one point, or a two-point chain, when
    size < 3): an atomistic lattice of any size but 3."""
    if size < 3:
        return AbstractLattice([0, 1][:size])
    k = size - 2
    return AbstractLattice([0, *(1 << p for p in range(k)), (1 << k) - 1])


# a star lattice of size s shuffles s supports, then s − 2 atoms (sizes 1
# and 2: 0 and 1), so these sizes shuffle 0, 1, 2 and 2^j ± 1 entries
SHUFFLE_SIZES = sorted(({1, 2, 4} | {(1 << j) + d for j in range(2, 11) for d in (-1, 1, 3)}) - {3})


@pytest.mark.parametrize("size", SHUFFLE_SIZES)
@given(st.integers(0, 1 << 32))
@settings(max_examples=10, deadline=None)
def test_to_abstract_shuffles_as_the_stdlib(size, seed):
    # the draws of random.Random(seed).shuffle on the supports, then on the
    # atom permutation, whichever Python runs the suite
    lat = star_lattice(size)
    rng = random.Random(seed)
    supports = lat.supports[:]
    pi = list(range(lat.n_atoms))
    rng.shuffle(supports)
    rng.shuffle(pi)
    assert to_abstract(lat, seed).supports == [relabel_reference(s, pi) for s in supports]


def pairwise_isomorphism(a, b, mapping):
    """The definition: a bijection that preserves and reflects the order on
    every pair of elements. O(n²); the test oracle for check_isomorphism."""
    n = a.size
    if b.size != n or sorted(mapping) != list(range(n)):
        return False
    return all(
        a.leq(x, y) == b.leq(mapping[x], mapping[y]) for x in range(n) for y in range(n)
    )


def is_boolean_interval(lat, x):
    """Is [bottom, x] a Boolean algebra? Supports are distinct, so it is
    exactly when 2^k elements lie below an element over k atoms."""
    sx = lat.supports[x]
    count = sum(1 for s in lat.supports if s & sx == s)
    return count == 1 << sx.bit_count()


def brute_force_maximal_boolean(lat):
    good = [x for x in range(lat.size) if is_boolean_interval(lat, x)]
    return sorted(
        x for x in good if not any(y != x and lat.leq(x, y) for y in good)
    )


def brute_force_isomorphic(sa, sb):
    """An atom permutation carrying one support family onto the other, or None."""
    k = max(sa).bit_length()
    if len(sa) != len(sb) or k != max(sb).bit_length():
        return None
    target = set(sb)
    for pi in permutations(range(k)):
        if all(relabel_reference(s, pi) in target for s in sa):
            return pi
    return None


@st.composite
def family_pairs(draw):
    """A relabelled, reordered copy, a family of the same size over as many
    atoms (mostly not isomorphic), or an unrelated family."""
    sa = draw(closed_families())
    k = max(sa).bit_length()
    kind = draw(st.sampled_from(("copy", "same size", "same size", "any")))
    if kind == "same size":
        for _ in range(50):
            sb = draw(closed_families(k))
            if len(sb) == len(sa):
                return sa, sb
    if kind == "any":
        return sa, draw(closed_families())
    pi = draw(st.permutations(range(k)))
    return sa, draw(st.permutations([relabel_reference(s, pi) for s in sa]))


@given(family_pairs(), st.data())
@settings(max_examples=300, deadline=None)
def test_search_matches_brute_force(pair, data):
    sa, sb = pair
    a, b = AbstractLattice(sa), AbstractLattice(sb)
    mapping = are_isomorphic(a, b)
    assert (mapping is None) == (brute_force_isomorphic(sa, sb) is None)
    if mapping is None:
        return
    assert check_isomorphism(a, b, mapping) and pairwise_isomorphism(a, b, mapping)
    x, y = data.draw(st.lists(st.integers(0, a.size - 1), min_size=2, max_size=2, unique=True))
    swapped = list(mapping)
    swapped[x], swapped[y] = swapped[y], swapped[x]
    assert check_isomorphism(a, b, swapped) == pairwise_isomorphism(a, b, swapped)


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=200, deadline=None)
def test_joins_and_covers_match_brute_force(sets):
    lat = AbstractLattice(sets)
    for mask in range(1 << lat.n_atoms):
        least = min((s for s in sets if s & mask == mask), key=int.bit_count)
        assert lat.supports[lat.join_mask(mask)] == least
    full = (1 << lat.n_atoms) - 1
    for x, s in enumerate(sets):
        outside = full ^ s
        assert list(lat.atom_joins(x, outside)) == [
            (p, lat.join_mask(s | 1 << p)) for p in bits(outside)
        ]


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=200, deadline=None)
def test_maximal_boolean_matches_brute_force(sets):
    lat = AbstractLattice(sets)
    assert maximal_boolean_elements(lat) == brute_force_maximal_boolean(lat)


def test_maximal_boolean_elements_returns_a_copy():
    ab = get_abstract("S3", seed=3)
    got = maximal_boolean_elements(ab)
    expected = list(got)
    got.append(-1)
    got.reverse()
    assert maximal_boolean_elements(ab) == ab.maximal_boolean == expected


def all_pairs_coatoms(lat):
    """Coatoms by definition: elements below top with nothing between."""
    below_top = [x for x in range(lat.size) if x != lat.top]
    return [x for x in below_top if not any(y != x and lat.leq(x, y) for y in below_top)]


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=200, deadline=None)
def test_proper_maximal_matches_all_pairs(sets):
    lat = AbstractLattice(sets)
    assert lat.proper_maximal == all_pairs_coatoms(lat)


@pytest.mark.parametrize("sets", [[0], [0, 1], [1, 0]])
def test_proper_maximal_of_one_and_two_elements(sets):
    lat = AbstractLattice(sets)
    expected = [] if len(sets) == 1 else [lat.bottom]
    assert lat.proper_maximal == all_pairs_coatoms(lat) == expected


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_shuffled_abstraction_always_isomorphic(seed):
    base = get_abstract("D4")
    shuf = to_abstract(get_lattice("D4"), seed=seed)
    mapping = are_isomorphic(base, shuf)
    assert mapping is not None
    assert check_isomorphism(base, shuf, mapping)


def concrete_text(masks, ground):
    lines = [f"{len(masks)} {ground}"]
    lines += [" ".join(map(str, [i, m.bit_count(), *bits(m)])) for i, m in enumerate(masks)]
    return "\n".join(lines) + "\n"


def lex_key(mask):
    """Popcount, then the members ascending: the reference for order_key."""
    return (mask.bit_count(), bits(mask))


@st.composite
def mask_pairs(draw):
    """A width of 1 to 130 bits and two masks within it: unrelated, equal
    below bit 64, or of different byte lengths."""
    width = draw(st.integers(1, 130))
    within = st.integers(0, (1 << width) - 1)
    a, b = draw(within), draw(within)
    kind = draw(st.sampled_from(("any", "high bits", "byte lengths")))
    if kind == "high bits" and width > 64:
        low = (1 << 64) - 1
        b = a & low | b & ~low
    elif kind == "byte lengths" and width > 8:
        k = draw(st.integers(1, (width - 1) // 8))     # a fits in k bytes, b does not
        a = draw(st.integers(0, (1 << 8 * k) - 1))
        b = draw(st.integers(1 << 8 * k, (1 << width) - 1))
    return width, a, b


@given(mask_pairs())
@settings(max_examples=400, deadline=None)
def test_order_key_matches_lex_key(pair):
    width, a, b = pair
    key = order_key(width)
    assert (key(a) < key(b)) == (lex_key(a) < lex_key(b))
    assert (key(a) == key(b)) == (a == b)


@st.composite
def disjoint_masks(draw):
    """A width of 1 to 130 bits and two disjoint masks within it."""
    width = draw(st.integers(1, 130))
    a = draw(st.integers(0, (1 << width) - 1))
    b = draw(st.integers(0, (1 << width) - 1)) & ~a
    return width, a, b


@given(disjoint_masks())
@settings(max_examples=300, deadline=None)
def test_order_key_adds_over_disjoint_masks(pair):
    # the rule enumerate_closed_masks merges by
    width, a, b = pair
    key = order_key(width)
    assert key(a | b) == key(a) + key(b)


def test_order_key_reverses_at_a_fixed_width():
    # reversed at their own lengths, 0x1 and 0x100 would get one key
    key = order_key(9)
    assert key(0x1) < key(0x100) < key(0x3)
    key = order_key(130)
    masks = [1 << 129, 1 << 64 | 1, 1 << 65, 1 << 64, 3 << 64, 1]
    assert sorted(masks, key=key) == sorted(masks, key=lex_key)


@st.composite
def mask_orders(draw):
    """Distinct masks: unordered, popcount-then-lex sorted, or sorted with
    one neighbouring pair swapped, which often has equal popcounts."""
    masks = draw(st.lists(st.integers(0, 255), min_size=1, max_size=20, unique=True))
    kind = draw(st.sampled_from(("any", "sorted", "one swap")))
    if kind != "any":
        masks.sort(key=lex_key)
    if kind == "one swap" and len(masks) > 1:
        i = draw(st.integers(0, len(masks) - 2))
        masks[i], masks[i + 1] = masks[i + 1], masks[i]
    return masks


@given(mask_orders())
@settings(max_examples=300, deadline=None)
def test_adjacent_order_check_matches_sort(masks):
    for a, b in zip(masks, masks[1:]):
        assert _in_order(a, b) == (lex_key(a) < lex_key(b))
    text = concrete_text(masks, 8)
    if masks == sorted(masks, key=lex_key):
        # a sorted family passes the order check, though it may be no lattice
        try:
            assert parse_lattice(text).elements == masks
        except FormatError as exc:
            assert "not in popcount-then-lex order" not in str(exc)
    else:
        with pytest.raises(FormatError, match="not in popcount-then-lex order"):
            parse_lattice(text)


def parse_lattice_reference(text: str, name: str = "") -> SubrackLattice:
    """parse_lattice as it read every line before the one-split path: the
    reference the reader must match, lattice for lattice and message for
    message."""
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
    bit: dict[str, int] = {}             # tokens read so far, not all of range(ground)
    masks = [0] * n
    seen_ids = bytearray(n)
    for ln in body:
        toks = ln.split()
        if len(toks) < 2:
            raise FormatError(f"bad element line {ln!r}")
        rest = toks[2:]
        try:
            mask, members = reduce(or_, map(bit.__getitem__, rest), 0), []
        except KeyError:                 # a new token, or "zz": through int()
            if rest == ["-"]:
                raise FormatError(
                    f"line {ln!r} has '-' for members: the HASSE form of .lat is "
                    "no longer read; list each element's atoms instead"
                ) from None
            mask, members = 0, ints(rest, "element line", ln)
        idx, pop = ints(toks[:2], "element line", ln)
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
    if not all(map(_in_order, masks, masks[1:])):
        raise FormatError("elements are not in popcount-then-lex order")
    if masks[-1] != (1 << ground) - 1:
        raise FormatError(f"the last element is not the whole ground set of {ground} points")
    return SubrackLattice(elements=masks, ground_size=ground, name=name)


CATALOG_12 = [g.name for g in catalog_entries(12)]
LINE_EDITS = ("swap lines", "swap members", "copy id", "drop member", "repeat member",
              "recount", "pad", "one token", "beyond", "hasse", "drop line")
LINE_STYLES = ("tabs", "comment", "comment line", "blank line")


@cache
def lat_rows(name):
    """The tokens of each line of a catalog lattice's .lat text."""
    return tuple(tuple(ln.split()) for ln in format_lattice(get_lattice(name)).splitlines())


@st.composite
def edited_lat_texts(draw):
    """The .lat text of a catalog_entries(12) lattice after up to four line
    edits, some of them legal (a 0-padded token, tabs, comments) and some
    not, written with a few lines restyled."""
    rows = [list(r) for r in lat_rows(draw(st.sampled_from(CATALOG_12)))]
    head, body = rows[0], rows[1:]
    ground = int(head[1])
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(LINE_EDITS))
        i = draw(st.integers(0, len(body) - 1))
        row = body[i]
        j = draw(st.integers(0, len(body) - 1))
        if edit == "swap lines":
            body[i], body[j] = body[j], body[i]
        elif edit == "swap members":
            row[1:], body[j][1:] = body[j][1:], row[1:]
        elif edit == "copy id":
            row[0] = body[j][0]
        elif edit == "drop member" and len(row) > 2:
            del row[draw(st.integers(2, len(row) - 1))]
        elif edit == "repeat member" and len(row) > 2:
            row.append(draw(st.sampled_from(row[2:])))
            row[1] = str(len(row) - 2)
        elif edit == "recount" and len(row) > 1:
            row[1] = str(len(row) - 2)
        elif edit == "pad":
            k = draw(st.integers(0, len(row) - 1))
            row[k] = "0" + row[k]
        elif edit == "one token":
            del row[1:]
        elif edit == "beyond" and len(row) > 1:
            row.append(str(ground + draw(st.integers(0, 2))))
            row[1] = str(len(row) - 2)
        elif edit == "hasse":
            row[2:] = ["-"]
        elif edit == "drop line" and len(body) > 1:
            del body[i]
    styles = draw(st.dictionaries(st.integers(0, len(body)), st.sampled_from(LINE_STYLES),
                                  max_size=3))
    out = []
    for k, row in enumerate([head, *body]):
        style = styles.get(k)
        if style == "comment line":
            out.append("# a comment line")
        elif style == "blank line":
            out.append(" \t ")
        sep = "\t  " if style == "tabs" else " "
        ln = sep.join(row)
        out.append(f"\t{ln} " if style == "tabs" else f"{ln} # note" if style == "comment" else ln)
    return "\n".join(out) + "\n"


def read_or_error(parse, text):
    try:
        lat = parse(text)
    except FormatError as exc:
        return str(exc)
    return lat.elements, lat.ground_size


@given(edited_lat_texts())
@settings(max_examples=300, deadline=None)
def test_reader_matches_reference(text):
    # the same lattice, or the same error message, from both readers
    assert read_or_error(parse_lattice, text) == read_or_error(parse_lattice_reference, text)


class TestLatFormat:
    def test_concrete_roundtrip(self, tmp_path):
        lat = get_lattice("S3")
        p = tmp_path / "s3.lat"
        save_lattice(str(p), lat)
        again = load_lattice(str(p))
        assert isinstance(again, SubrackLattice)
        assert again.elements == lat.elements
        assert again.ground_size == lat.ground_size
        assert again.supports == lat.supports

    def test_rackless_lattice_queries(self, tmp_path):
        for name in ("S3", "D4"):
            lat = get_lattice(name)
            p = tmp_path / f"{name}.lat"
            save_lattice(str(p), lat)
            again = load_lattice(str(p))
            assert again.atoms == lat.atoms
            assert again.proper_maximal == lat.proper_maximal

    def test_abstract_roundtrip(self, tmp_path):
        ab = get_abstract("S3", seed=5)
        p = tmp_path / "s3a.lat"
        save_lattice(str(p), ab)
        again = load_lattice(str(p))
        assert again.supports == sorted(ab.supports, key=order_key(ab.n_atoms))
        mapping = are_isomorphic(ab, again)
        assert mapping is not None and check_isomorphism(ab, again, mapping)

    def test_header_errors(self):
        with pytest.raises(FormatError):
            parse_lattice("not a header\n")
        with pytest.raises(FormatError):
            parse_lattice("")
        with pytest.raises(FormatError):
            parse_lattice("3 2\n0 0\n")
        # non-integer header, and a lattice with no elements
        with pytest.raises(FormatError, match="bad header 'x 3'"):
            parse_lattice("x 3\n")
        with pytest.raises(FormatError, match="bad header '0 0'"):
            parse_lattice("0 0\n")

    def test_element_errors(self):
        # popcount mismatch
        with pytest.raises(FormatError):
            parse_lattice("2 1\n0 0\n1 2 0\nHASSE\n0 1\n")
        # member outside the ground set
        with pytest.raises(FormatError):
            parse_lattice("2 1\n0 0\n1 1 7\nHASSE\n0 1\n")
        # wrong sort order, by popcount and by members at equal popcount
        with pytest.raises(FormatError):
            parse_lattice("3 2\n0 1 1\n1 0\n2 2 0 1\nHASSE\n")
        with pytest.raises(FormatError, match="not in popcount-then-lex order"):
            parse_lattice("4 2\n0 0\n1 1 1\n2 1 0\n3 2 0 1\nHASSE\n")
        # non-integer member
        with pytest.raises(FormatError, match="bad element line '1 1 zz'"):
            parse_lattice("2 1\n0 0\n1 1 zz\nHASSE\n0 1\n")
        # a repeated member, though its count matches the popcount field;
        # a member written with a leading zero still reads as its number
        with pytest.raises(FormatError, match="repeated member on line '3 3 0 1 1'"):
            parse_lattice("4 2\n0 0\n1 1 0\n2 1 1\n3 3 0 1 1\n")
        assert parse_lattice("4 2\n0 0\n1 1 00\n2 1 1\n3 2 0 01\n").elements == [0, 1, 2, 3]
        # a ground size the file cannot list is rejected before any member
        # bit is built; a top short of the ground set is no subrack lattice
        with pytest.raises(FormatError, match="header ground size 100000000"):
            parse_lattice("2 100000000\n0 0\n1 1 99999999\n")
        with pytest.raises(FormatError, match="header ground size -1"):
            parse_lattice("1 -1\n0 0\n")
        with pytest.raises(FormatError, match="not the whole ground set of 3 points"):
            parse_lattice("2 3\n0 0\n1 2 0 1\n")
        # the dropped HASSE form: "-" for members, then cover pairs
        for text in ("2 1\n0 0 -\n1 1 -\nHASSE\n0 1\n", "2 1\n0 0 -\n1 1 -\n"):
            with pytest.raises(FormatError, match="line '0 0 -'.*HASSE form"):
                parse_lattice(text)

    @pytest.mark.parametrize("name", ["S3", "D4", "A4", "Z2xZ2xZ2"])
    def test_ids_in_any_order_load_the_same(self, name):
        # lines in shuffled order with ids, popcounts and members written
        # with leading zeros: no id matches its line, or only some do, and the
        # reader must still give the canonical lattice
        rows = lat_rows(name)
        head, body = " ".join(rows[0]), list(rows[1:])
        for seed, pad in ((1, True), (2, False), (3, False)):
            random.Random(seed).shuffle(body)
            lines = [" ".join("0" + t if pad else t for t in row) for row in body]
            assert parse_lattice("\n".join([head, *lines])).elements == get_lattice(name).elements

    def test_id_clashes_between_read_paths(self):
        # ids taken before a line claims them, and members spelled two ways
        lines = ["8 3", "0 0", "1 1 0", "2 1 1", "3 1 2", "4 2 0 1", "5 2 0 2", "6 2 1 2",
                 "7 3 0 1 2"]
        assert parse_lattice("\n".join(lines)).elements == [0, 1, 2, 4, 3, 5, 6, 7]
        for edits, message in (
            ({7: "05 2 1 2"}, "bad element id 5"),       # an id an earlier line took
            ({2: "05 1 0"}, "bad element id 5"),         # an id a later line claims
            # "0" and "00" both cached: their bits add to one carried bit
            ({2: "1 1 00", 6: "5 2 0 00"}, "repeated member on line '5 2 0 00'"),
        ):
            text = "\n".join(edits.get(k, ln) for k, ln in enumerate(lines))
            with pytest.raises(FormatError, match=message):
                parse_lattice(text)
            assert read_or_error(parse_lattice_reference, text) == message

    @pytest.mark.parametrize("line, message", [
        ("1", "bad element line '1'"),
        ("x 1 -", "line 'x 1 -' has '-' for members"),         # before the id is read
        ("9 5 zz", "bad element line '9 5 zz'"),               # before the id is checked
        ("0 2 0", "bad element id 0"),                         # before the popcount
        ("1 2 9", "popcount mismatch on line '1 2 9'"),        # before the members
        ("1 3 0 0 9", "member 9 outside ground set"),          # before the repeat
        ("1 2 7 9", "member 7 outside ground set"),            # the first in line order
        ("1 2 0 00", "repeated member on line '1 2 0 00'"),
    ])
    def test_a_line_reports_its_first_fault(self, line, message):
        # each line's checks run in one order; a line with several faults
        # names the first, as the reference reader does
        lines = ["8 3", "0 0", line, "2 1 1", "3 1 2", "4 2 0 1", "5 2 0 2", "6 2 1 2",
                 "7 3 0 1 2"]
        text = "\n".join(lines)
        with pytest.raises(FormatError, match=re.escape(message)):
            parse_lattice(text)
        assert read_or_error(parse_lattice_reference, text).startswith(message)

    @pytest.mark.xfail(strict=True, reason="the reader does not yet check the least-upper-bound "
                       "property (ROADMAP item 5)")
    def test_non_lattice_is_rejected(self):
        # atomistic and bounded, but {0, 1} has two minimal upper bounds
        text = concrete_text([0, 1, 2, 4, 8, 0b0111, 0b1011, 0b1111], 4)
        with pytest.raises(FormatError):
            parse_lattice(text)

    def test_format_matches_fixture_style(self):
        text = format_lattice(get_lattice("Z2"))
        head, *rest = text.splitlines()
        assert head == "4 2"
        assert rest[0] == "0 0"
        assert "HASSE" not in rest

    def test_concrete_hasse_section_is_skipped(self):
        # older concrete files end in a HASSE section; it is never read
        text = format_lattice(get_lattice("Z2"))
        old = parse_lattice(text + "HASSE\n0 1\n0 2\n1 3\n2 3\n")
        assert old.elements == parse_lattice(text).elements == get_lattice("Z2").elements
