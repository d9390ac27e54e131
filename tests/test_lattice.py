"""Enumeration, lattice queries, abstraction, isomorphism, and the .lat format."""

import random
from itertools import permutations, product

import pytest
from hypothesis import given, settings
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
    load_lattice,
    maximal_boolean_elements,
    save_lattice,
    to_abstract,
)
from rackle.catalog import catalog_entries
from rackle.config import DEFAULT_LIMITS
from rackle.errors import FormatError
from rackle.lattice import (
    AbstractLattice,
    SubrackLattice,
    _atom_joins,
    _enumerate_subtree,
    abstract_from_cover_pairs,
    enumerate_closed_masks,
    format_abstract,
    format_lattice,
    parse_lattice,
)
from rackle.racks import (
    bits,
    closure_extend,
    conjugacy_class_rack,
    is_closed_mask,
    mask_of,
    rack_closure,
    verify_rack_axioms,
)

from conftest import (
    get_abstract,
    get_group,
    get_lattice,
    permutation_rack,
    rack_from,
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
        # the ground cap filters catalog sweeps only; enumeration is bounded
        # by its output, so A5 (60 points, over the cap) enumerates here
        assert DEFAULT_LIMITS.ground_cap < 60
        assert get_lattice("A5").size == 490
        lim = DEFAULT_LIMITS.with_(lattice_cap=489)
        with pytest.raises(TooLarge):
            enumerate_closed_masks(group_rack(get_group("A5")), limits=lim)

    def test_lattice_cap(self):
        lim = DEFAULT_LIMITS.with_(lattice_cap=100)
        with pytest.raises(TooLarge):
            enumerate_closed_masks(group_rack(get_group("Z8")), limits=lim)


def full_closure_lectic(rows, m):
    """Reference enumeration without the abort: finish every closure, then
    reject it when it holds new points below j. Lectic visiting order."""
    out = []

    def rec(a, j_from):
        out.append(a)
        for j in range(j_from, m):
            if a >> j & 1:
                continue
            b = closure_extend(rows, a, j)
            below = (1 << j) - 1
            if b & below == a & below:
                rec(b, j + 1)

    rec(0, 0)
    return out


@given(small_racks)
@settings(max_examples=80, deadline=None)
def test_abort_matches_brute_force(rack):
    assert verify_rack_axioms(rack.op).is_rack
    assert enumerate_closed_masks(rack) == brute_force_closed_masks(rack)
    cap = DEFAULT_LIMITS.lattice_cap
    raw = _enumerate_subtree(rack.op, rack.size, 0, 0, cap)
    assert raw == full_closure_lectic(rack.op, rack.size)


def assert_abstraction_keeps_order(rack, seed):
    """Support containment is the concrete containment order.

    Without a seed, element x keeps index x and support bit i is atom i.
    Every subrack is then the union of the atoms its support names, so
    supp(x) ⊆ supp(y) exactly when x ⊆ y; checking that union per element
    proves it in O(n·m). A shuffled abstraction is the same order up to
    relabelling, found by the atom search and checked in O(n·m).
    """
    lat = enumerate_subrack_lattice(rack)
    ab = to_abstract(lat)
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
            to_abstract(parse_lattice(text))

    def test_abstract_chain_is_rejected(self):
        text = "4 1\n0 0 -\n1 1 -\n2 1 -\n3 1 -\nHASSE\n0 1\n1 2\n2 3\n"
        with pytest.raises(FormatError, match=r"elements 2 and 1\b"):
            parse_lattice(text)


@given(small_racks, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_abstraction_keeps_order(rack, seed):
    assert_abstraction_keeps_order(rack, seed)


class TestClosureAbort:
    def test_catalog_visiting_order_unchanged(self):
        for g in catalog_entries(12) + [get_group("S4")]:
            rows = group_rack(g).op
            raw = _enumerate_subtree(rows, g.order, 0, 0, DEFAULT_LIMITS.lattice_cap)
            assert raw == full_closure_lectic(rows, g.order), g.name

    def test_abort_returns_none_on_forbidden_point(self):
        # a ▷ b = σ(b) with σ = (0 1 2): adding 2 drags in 0, which is below 2
        rows = permutation_rack((1, 2, 0)).op
        assert closure_extend(rows, 0, 2) == 0b111
        assert closure_extend(rows, 0, 2, 0b011) is None


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
        assert {lat.elements[c] for c in lat.coatoms} == expected

    def test_hasse_covers_have_no_intermediate(self):
        lat = get_lattice("D4")
        elems = lat.elements
        for c, p in lat.hasse:
            ec, ep = elems[c], elems[p]
            assert ec != ep and ec & ep == ec
            for z in elems:
                if z not in (ec, ep) and ec & z == ec and z & ep == z:
                    pytest.fail(f"{z:b} sits between cover {ec:b} < {ep:b}")

    def test_height_of_powerset(self):
        assert get_lattice("Z4").height() == 4
        assert get_lattice("Z6").height() == 6

    def test_hasse_matches_triple_loop(self):
        for g in catalog_entries(12):
            lat = get_lattice(g.name)
            assert lat.hasse == naive_cover_pairs(lat.elements), g.name

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
        for x in range(lat.size):
            for y in range(lat.size):
                assert lat.leq(x, y) == ab.leq(x, y)

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


class TestCoverPairs:
    def test_square(self):
        ab = abstract_from_cover_pairs(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert ab.size == 4 and ab.n_atoms == 2 and ab.is_boolean()

    def test_chain(self):
        # a 4-chain is not atomistic, so no rack has it as subrack lattice
        with pytest.raises(FormatError, match=r"elements 2 and 1\b"):
            abstract_from_cover_pairs(4, [(0, 1), (1, 2), (2, 3)])

    def test_cycle_detected(self):
        with pytest.raises(FormatError):
            abstract_from_cover_pairs(3, [(0, 1), (1, 2), (2, 0)])

    def test_two_maximal_elements(self):
        with pytest.raises(FormatError):
            abstract_from_cover_pairs(3, [(0, 1), (0, 2)])

    def test_out_of_range(self):
        from rackle.errors import BadIndex
        with pytest.raises(BadIndex):
            abstract_from_cover_pairs(2, [(0, 5)])

    def test_non_lattice_with_injective_supports_is_rejected(self):
        # atoms a,b,c,d; u above a,b; v above a,b,c; u not under v;
        # top above u, v, d. All atom supports are distinct, yet
        # support containment would wrongly put u under v, so the order
        # probe must reject the atomistic encoding
        pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 5),
                 (1, 6), (2, 6), (3, 6), (5, 7), (6, 7), (4, 7)]
        with pytest.raises(FormatError, match=r"elements 5 and 6\b"):
            abstract_from_cover_pairs(8, pairs)


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
        supports = [relabel(s, pi) for s in range(1 << 16)]
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
            return sorted(sorted(map(int.bit_count, row)) for row in _atom_joins(lat))

        assert invariants(a) == invariants(b)
        assert brute_force_isomorphic(sa, sb) is None
        assert are_isomorphic(a, b) is None


def relabel(mask, pi):
    return mask_of(pi[p] for p in bits(mask))


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
        if all(relabel(s, pi) in target for s in sa):
            return pi
    return None


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
    return sa, draw(st.permutations([relabel(s, pi) for s in sa]))


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


def naive_cover_pairs(sets):
    """Covers of a family of sets under containment, by the triple loop over
    x < z < y. A power set's covers add one point; that is quicker than n³
    at 4,096 elements."""
    n = len(sets)
    k = max(sets).bit_length()
    if n == 1 << k:
        index = {s: i for i, s in enumerate(sets)}
        return sorted(
            (x, index[s | 1 << p]) for x, s in enumerate(sets) for p in range(k) if not s >> p & 1
        )

    def below(x, y):
        return x != y and sets[x] & sets[y] == sets[x]

    return sorted(
        (x, y) for x in range(n) for y in range(n)
        if below(x, y) and not any(below(x, z) and below(z, y) for z in range(n))
    )


def test_format_abstract_covers_match_triple_loop():
    for g in catalog_entries(12):
        ab = get_abstract(g.name, seed=g.order)
        text = format_abstract(ab).split("HASSE\n")[1]
        pairs = sorted(tuple(map(int, ln.split())) for ln in text.splitlines())
        order = sorted(range(ab.size), key=lambda x: (ab.supports[x].bit_count(), bits(ab.supports[x])))
        pos = {old: new for new, old in enumerate(order)}
        expected = sorted((pos[x], pos[y]) for x, y in naive_cover_pairs(ab.supports))
        assert pairs == expected, g.name


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=200, deadline=None)
def test_joins_and_covers_match_brute_force(sets):
    lat = AbstractLattice(sets)
    for mask in range(1 << lat.n_atoms):
        least = min((s for s in sets if s & mask == mask), key=int.bit_count)
        assert lat.supports[lat.join_mask(mask)] == least
    assert sorted(lat.cover_pairs()) == naive_cover_pairs(sets)


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=200, deadline=None)
def test_maximal_boolean_matches_brute_force(sets):
    lat = AbstractLattice(sets)
    assert maximal_boolean_elements(lat) == brute_force_maximal_boolean(lat)


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_shuffled_abstraction_always_isomorphic(seed):
    base = get_abstract("D4")
    shuf = to_abstract(get_lattice("D4"), seed=seed)
    mapping = are_isomorphic(base, shuf)
    assert mapping is not None
    assert check_isomorphism(base, shuf, mapping)


class TestLatFormat:
    def test_concrete_roundtrip(self, tmp_path):
        lat = get_lattice("S3")
        p = tmp_path / "s3.lat"
        save_lattice(str(p), lat)
        again = load_lattice(str(p))
        assert isinstance(again, SubrackLattice)
        assert again.elements == lat.elements
        assert again.ground_size == lat.ground_size
        assert again.hasse == lat.hasse

    def test_rackless_lattice_queries(self, tmp_path):
        for name in ("S3", "D4"):
            lat = get_lattice(name)
            p = tmp_path / f"{name}.lat"
            save_lattice(str(p), lat)
            again = load_lattice(str(p))
            assert again.atoms == lat.atoms
            assert again.coatoms == lat.coatoms
            assert again.hasse == lat.hasse

    def test_abstract_roundtrip(self, tmp_path):
        ab = get_abstract("S3", seed=5)
        p = tmp_path / "s3a.lat"
        save_lattice(str(p), ab)
        again = load_lattice(str(p))
        mapping = are_isomorphic(ab, again)
        assert mapping is not None and check_isomorphism(ab, again, mapping)

    def test_abstract_export_deterministic(self):
        ab = get_abstract("D4", seed=1)
        assert format_abstract(ab) == format_abstract(ab)

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
        # wrong sort order
        with pytest.raises(FormatError):
            parse_lattice("3 2\n0 1 1\n1 0\n2 2 0 1\nHASSE\n")
        # non-integer member, non-integer and out-of-range abstract covers
        with pytest.raises(FormatError, match="bad element line '1 1 zz'"):
            parse_lattice("2 1\n0 0\n1 1 zz\nHASSE\n0 1\n")
        with pytest.raises(FormatError, match="bad cover line '0 a'"):
            parse_lattice("2 1\n0 0 -\n1 1 -\nHASSE\n0 a\n")
        with pytest.raises(FormatError, match="cover line '0 5'"):
            parse_lattice("2 1\n0 0 -\n1 1 -\nHASSE\n0 5\n")

    def test_abstract_needs_hasse(self):
        with pytest.raises(FormatError):
            parse_lattice("2 1\n0 0 -\n1 1 -\n")

    def test_format_matches_fixture_style(self):
        text = format_lattice(get_lattice("Z2"))
        head, *rest = text.splitlines()
        assert head == "4 2"
        assert rest[0] == "0 0"
        assert "HASSE" in rest
