"""Lattice-only reconstruction: classes, normal abelian parts, quotients, length."""

import functools
import gc
import math
import random
import sys
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackle import (
    DEFAULT_LIMITS,
    NOT_SOLVABLE,
    BadPartition,
    NotGroupLattice,
    NotNormal,
    conjugacy_classes,
    coset_partition_of,
    find_coset_partition,
    is_hypothetical_coset_partition,
    join_poset,
    lattice_derived_length,
    matching_bijection_oracle,
    max_normal_abelian,
    maximal_boolean_elements,
    mobius_bottom_top,
    partition_bijection,
    recover_classes,
)
from rackle.catalog import catalog_entries, cyclic, dihedral, sl23, stall_lattice
from rackle.errors import FormatError, NoPartition
from rackle.groups import (
    derived_length_oracle,
    direct_product,
    load_group,
    maximal_normal_abelian_oracle,
    normal_subgroups,
    quotient,
)
from rackle.lattice import (
    AbstractLattice,
    are_isomorphic,
    check_isomorphism,
    enumerate_subrack_lattice,
    to_abstract,
)
from rackle.racks import bits, group_rack, mask_of, memo_closure
from rackle.reconstruct import (
    HypotheticalCosetPartition,
    _tuple_space,
    c3_tuples,
    c3_witness,
)

from conftest import GL23_PATH, get_abstract, get_group, get_lattice


def every_tuple(parts):
    return c3_tuples(parts, None, True, DEFAULT_LIMITS)[2]


def support_sizes(ab, idxs):
    return sorted(len(ab.atoms_below(x)) for x in idxs)


@functools.cache
def unseeded_lattices():
    """(group, abstract lattice) for catalog_entries(24) and D12. Without a
    shuffle seed, support bit p of the abstract lattice is group element p."""
    lattices = [(get_group(g.name), get_lattice(g.name)) for g in catalog_entries(24)]
    d12 = dihedral(24)
    lattices.append((d12, enumerate_subrack_lattice(group_rack(d12))))
    return [(g, to_abstract(lat)) for g, lat in lattices]


def subset_join_poset(ab, parts):
    """Reference quotient: the join of every one of the 2^m sets of parts,
    as part-index sets ordered like AbstractLattice supports."""
    joins = set()
    for chosen in range(1 << len(parts)):
        union = 0
        for i in bits(chosen):
            union |= parts[i]
        joins.add(ab.supports[ab.join_mask(union)])
    return [
        sum(1 << i for i, p in enumerate(parts) if p & s == p)
        for s in sorted(joins, key=lambda s: (s.bit_count(), bits(s)))
    ]


class TestRecoverClasses:
    def test_s3(self):
        part = recover_classes(get_abstract("S3"))
        assert sorted(part.sizes()) == [1, 2, 3]

    def test_boolean_all_singletons(self):
        part = recover_classes(get_abstract("Z6"))
        assert part.sizes() == (1,) * 6

    def test_q8(self):
        part = recover_classes(get_abstract("Q8"))
        assert sorted(part.sizes()) == [1, 1, 2, 2, 2]

    def test_shuffle_invariant_sizes(self):
        for seed in (1, 2, 3):
            part = recover_classes(get_abstract("S4", seed=seed))
            assert sorted(part.sizes()) == [1, 3, 6, 6, 8]

    def test_stall_fixture(self):
        part = recover_classes(stall_lattice())
        assert sorted(part.sizes()) == [1, 3, 3]

    def test_blocks_tile_the_atoms(self):
        ab = get_abstract("D6", seed=9)
        part = recover_classes(ab)
        union = 0
        for b in part.blocks:
            assert union & b == 0
            union |= b
        assert union == (1 << ab.n_atoms) - 1

    def test_chain_is_rejected(self):
        # supports over two bits, only one of them an atom: no rack has it
        with pytest.raises(FormatError, match="2 support bits but 1 atoms"):
            AbstractLattice(supports=[0, 1, 3])

    def test_unbounded_supports_rejected(self):
        # no empty support, then no support holding every atom
        for supports in ([1], [0, 1, 2]):
            with pytest.raises(FormatError, match="unbounded"):
                AbstractLattice(supports=supports)

    def test_overlapping_complements_rejected(self):
        # coatoms {a,b}, {a,c}, {c,d}: complements double-cover atoms
        lat = AbstractLattice(supports=[0, 1, 2, 4, 8, 3, 5, 12, 15])
        with pytest.raises(NotGroupLattice):
            recover_classes(lat)


class TestMaximalBoolean:
    def test_s3(self):
        ab = get_abstract("S3")
        mb = maximal_boolean_elements(ab)
        assert support_sizes(ab, mb) == [2, 2, 2, 3]

    def test_boolean_whole_lattice(self):
        ab = get_abstract("Z12")
        assert maximal_boolean_elements(ab) == [ab.top]

    def test_q8_and_d4(self):
        for name in ("Q8", "D4"):
            ab = get_abstract(name)
            mb = maximal_boolean_elements(ab)
            assert support_sizes(ab, mb) == [4, 4, 4], name

    def test_a4(self):
        ab = get_abstract("A4")
        assert support_sizes(ab, maximal_boolean_elements(ab)) == [3, 3, 3, 3, 4]

    def test_stall(self):
        lat = stall_lattice()
        mb = maximal_boolean_elements(lat)
        assert support_sizes(lat, mb) == [1] * 7


class TestMaxNormalAbelian:
    def test_s3_rotations(self):
        ab = get_abstract("S3")
        mna = max_normal_abelian(ab)
        assert support_sizes(ab, mna) == [3]

    def test_boolean_top(self):
        ab = get_abstract("Z6xZ2")
        assert max_normal_abelian(ab) == [ab.top]

    def test_d4_three_subgroups(self):
        ab = get_abstract("D4", seed=4)
        assert support_sizes(ab, max_normal_abelian(ab)) == [4, 4, 4]

    def test_a4_v4(self):
        ab = get_abstract("A4")
        assert support_sizes(ab, max_normal_abelian(ab)) == [4]

    def test_s4_v4(self):
        ab = get_abstract("S4")
        assert support_sizes(ab, max_normal_abelian(ab)) == [4]

    def test_stall_identity_only(self):
        lat = stall_lattice()
        mna = max_normal_abelian(lat)
        assert support_sizes(lat, mna) == [1]

    def test_candidates_are_inclusion_maximal(self):
        ab = get_abstract("D6", seed=2)
        mna = max_normal_abelian(ab)
        for x in mna:
            for y in mna:
                if x != y:
                    assert not ab.leq(x, y)


class TestCosetOps:
    def test_s3_mod_a3(self):
        g = get_group("S3")
        n3 = next(h for h in normal_subgroups(g) if len(h) == 3)
        parts = coset_partition_of(g, n3)
        assert sorted(len(p) for p in parts) == [3, 3]
        assert g.identity in parts[0]

    def test_trivial_and_whole(self):
        g = get_group("D4")
        singletons = coset_partition_of(g, frozenset({0}))
        assert len(singletons) == 8
        whole = coset_partition_of(g, frozenset(range(8)))
        assert len(whole) == 1

    def test_not_normal(self):
        g = get_group("S3")
        t = next(x for x in range(6) if g.element_order(x) == 2)
        with pytest.raises(NotNormal):
            coset_partition_of(g, frozenset({0, t}))


class TestPartitionBijection:
    def test_equal_partitions(self):
        p = [{0, 1}, {2, 3}, {4, 5}]
        f = partition_bijection(p, p)
        assert sorted(f) == [0, 1, 2]
        for i, j in enumerate(f):
            assert p[i] & p[j]

    def test_crossing_pair(self):
        p = [{1, 2}, {3, 4}]
        q = [{1, 3}, {2, 4}]
        f = partition_bijection(p, q)
        assert sorted(f) == [0, 1]
        for i, j in enumerate(f):
            assert p[i] & q[j]

    def test_count_mismatch(self):
        with pytest.raises(BadPartition):
            partition_bijection([{0, 1}], [{0}, {1}])

    def test_size_mismatch(self):
        with pytest.raises(BadPartition):
            partition_bijection([{0, 1}, {2}], [{0}, {1, 2}])

    def test_ground_set_mismatch(self):
        with pytest.raises(BadPartition):
            partition_bijection([{0, 1}], [{2, 3}])

    def test_matching_oracle_positive(self):
        p = [frozenset({1, 2}), frozenset({3, 4})]
        q = [frozenset({1, 3}), frozenset({2, 4})]
        f = matching_bijection_oracle(p, q)
        assert f is not None and sorted(f) == [0, 1]

    def test_matching_oracle_negative(self):
        p = [frozenset({1}), frozenset({2})]
        q = [frozenset({3}), frozenset({4})]
        assert matching_bijection_oracle(p, q) is None

    def test_matching_oracle_leaves_no_cycles(self):
        p = [frozenset({0, 1}), frozenset({2, 3})]
        q = [frozenset({0, 2}), frozenset({1, 3})]
        gc.collect()
        gc.disable()
        try:
            assert matching_bijection_oracle(p, q) is not None
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_matching_oracle_path_longer_than_recursion_limit(self):
        # part i of P meets parts i and i + 1 of Q, and the last part meets
        # only part 0, so the last search runs through every other part
        m = sys.getrecursionlimit() + 10
        edges = [(i, i + 1) for i in range(m - 1)] + [(m - 1, 0)]
        p, q = edge_partitions(m, edges)
        assert matching_bijection_oracle(p, q) == [*range(1, m), 0]


def edge_partitions(m, edges):
    """Two partitions of the edges (i, j) of a bipartite graph, by i and by
    j: part i of the first meets part j of the second iff (i, j) is an edge."""
    p, q = [set() for _ in range(m)], [set() for _ in range(m)]
    for i, j in edges:
        p[i].add((i, j))
        q[j].add((i, j))
    return [frozenset(x) for x in p], [frozenset(x) for x in q]


def recursive_matching(p_parts, q_parts):
    """Reference matcher: the same augmenting-path search as a recursion."""
    m = len(p_parts)
    adj = [[j for j in range(m) if p_parts[i] & q_parts[j]] for i in range(m)]
    match_q = [None] * m

    def augment(i, seen):
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if match_q[j] is None or augment(match_q[j], seen):
                    match_q[j] = i
                    return True
        return False

    if not all(augment(i, set()) for i in range(m)):
        return None
    return [match_q.index(i) for i in range(m)]


@given(st.integers(1, 7).flatmap(
    lambda m: st.tuples(st.just(m), st.sets(st.tuples(st.integers(0, m - 1),
                                                      st.integers(0, m - 1))))))
@settings(max_examples=200, deadline=None)
def test_matching_oracle_matches_recursion(graph):
    p, q = edge_partitions(*graph)
    assert matching_bijection_oracle(p, q) == recursive_matching(p, q)


@st.composite
def partition_pair(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=6))
    items = list(range(m * k))
    r = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    a, b = items[:], items[:]
    r.shuffle(a)
    r.shuffle(b)
    ps = [a[i * k:(i + 1) * k] for i in range(m)]
    qs = [b[i * k:(i + 1) * k] for i in range(m)]
    return ps, qs


@given(partition_pair())
@settings(max_examples=200, deadline=None)
def test_partition_bijection_always_valid(pair):
    ps, qs = pair
    f = partition_bijection(ps, qs)
    assert sorted(f) == list(range(len(ps)))
    for i, j in enumerate(f):
        assert set(ps[i]) & set(qs[j])
    # independent confirmation a valid assignment exists at all
    assert matching_bijection_oracle(
        [frozenset(p) for p in ps], [frozenset(q) for q in qs]) is not None


class TestHypotheticalPartition:
    def _s3_setup(self):
        g = get_group("S3")
        lat = get_lattice("S3")
        ab = to_abstract(lat)  # unshuffled: atom position i is ground element i
        n3 = next(h for h in normal_subgroups(g) if len(h) == 3)
        parts = []
        for coset in coset_partition_of(g, n3):
            m = 0
            for x in coset:
                m |= 1 << x
            parts.append(m)
        return ab, HypotheticalCosetPartition(parts=tuple(parts))

    def test_true_cosets_pass(self):
        ab, hp = self._s3_setup()
        rep = is_hypothetical_coset_partition(ab, hp)
        assert rep.ok, rep.text()

    def test_modes_agree(self):
        ab, hp = self._s3_setup()
        a = is_hypothetical_coset_partition(ab, hp, exhaustive=True)
        # a zero tuple budget forces sampling
        b = is_hypothetical_coset_partition(
            ab, hp, seed=3, limits=DEFAULT_LIMITS.with_(tuple_budget=0))
        assert a.ok and b.ok
        assert "exhaustive" in a.lines[-1] and "sampled" in b.lines[-1]

    @staticmethod
    def _s3_wrong_parts():
        g = get_group("S3")
        e = g.identity
        ts = [x for x in range(6) if g.element_order(x) == 2]
        rs = [x for x in range(6) if g.element_order(x) == 3]
        return (
            1 << e | 1 << ts[0],
            1 << rs[0] | 1 << ts[1],
            1 << rs[1] | 1 << ts[2],
        )

    def test_wrong_partition_fails(self):
        ab = to_abstract(get_lattice("S3"))
        rep = is_hypothetical_coset_partition(
            ab, HypotheticalCosetPartition(parts=self._s3_wrong_parts()))
        assert not rep.ok
        assert any(ln.startswith("FAIL") for ln in rep.lines)

    @staticmethod
    def _closures(name):
        """C3's two closures: the join of the unseeded lattice, whose support
        bit p is element p, and the memo over the group rack."""
        ab = to_abstract(get_lattice(name))
        return (
            lambda mask: ab.supports[ab.join_mask(mask)],
            memo_closure(group_rack(get_group(name)).op),
        )

    @pytest.mark.parametrize("name", ["S3", "D4", "Q8", "A4", "D6", "S4"])
    def test_c3_holds_on_true_cosets_through_both_closures(self, name):
        g = get_group(name)
        for close in self._closures(name):
            for members in normal_subgroups(g):
                cosets = [mask_of(c) for c in coset_partition_of(g, members)]
                if _tuple_space(cosets) <= DEFAULT_LIMITS.tuple_budget:
                    assert c3_witness(cosets, close, every_tuple(cosets)) is None

    def test_c3_witness_same_through_both_closures(self):
        parts = self._s3_wrong_parts()
        lat_side, group_side = (
            c3_witness(parts, close, every_tuple(parts)) for close in self._closures("S3")
        )
        assert lat_side is not None and lat_side == group_side

    @pytest.mark.parametrize("parts, cause", [
        ((), "no parts"),
        ((0b1, 0b1000000), "bits [6] lie beyond the 6 atoms"),
    ], ids=["empty", "stray-bit"])
    def test_malformed_partition_fails_c1_only(self, parts, cause):
        ab = to_abstract(get_lattice("S3"))
        rep = is_hypothetical_coset_partition(
            ab, HypotheticalCosetPartition(parts=parts))
        assert not rep.ok
        assert rep.lines == (f"FAIL C1 {cause}",)

    def test_c1_violations(self):
        ab = to_abstract(get_lattice("S3"))
        overlap = (0b11, 0b110, 0b111000)  # parts share atom 1
        rep = is_hypothetical_coset_partition(
            ab, HypotheticalCosetPartition(parts=overlap))
        assert not rep.ok
        assert any("C1" in ln for ln in rep.lines if ln.startswith("FAIL"))

    @given(st.lists(st.integers(1, 255), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_tuple_space_counts_every_index_set(self, parts):
        brute = sum(
            math.prod(parts[i].bit_count() for i in idxs)
            for r in range(1, len(parts) + 1)
            for idxs in combinations(range(len(parts)), r)
        )
        assert _tuple_space(parts) == brute

    def test_tuple_space_exact_past_a_billion(self):
        # 40 parts of 3 atoms: every index set and tuple, far past 10^9
        assert _tuple_space([0b111 << 3 * i for i in range(40)]) == 4**40 - 1


class TestFindCosetPartition:
    def test_s3(self):
        ab = get_abstract("S3", seed=1)
        n = max_normal_abelian(ab)[0]
        hp = find_coset_partition(ab, n)
        assert hp.count == 2 and hp.parts[0].bit_count() == 3
        assert hp.parts[0] == ab.supports[n]

    def test_d4(self):
        ab = get_abstract("D4", seed=2)
        for n in max_normal_abelian(ab):
            hp = find_coset_partition(ab, n)
            assert hp.count == 2 and hp.parts[0].bit_count() == 4

    def test_whole_lattice_single_part(self):
        ab = get_abstract("Z6")
        n = max_normal_abelian(ab)[0]   # the top of a Boolean lattice
        hp = find_coset_partition(ab, n)
        assert hp.count == 1

    def test_finds_the_cosets(self):
        # the pair-level C3 prune keeps the true partition: for each of the
        # 23 nontrivial maximal normal abelian N, the search returns its cosets
        pairs = 0
        for g, ab in unseeded_lattices():
            for members in maximal_normal_abelian_oracle(g):
                if len(members) == g.order:
                    continue
                hp = find_coset_partition(ab, ab.support_index[mask_of(members)])
                cosets = {mask_of(c) for c in coset_partition_of(g, members)}
                assert set(hp.parts) == cosets, (g.name, sorted(members))
                assert hp.parts[0] == mask_of(members)
                pairs += 1
        assert pairs == 23

    def test_stall_has_none(self):
        lat = stall_lattice()
        part = recover_classes(lat)
        three = next(x for x in range(lat.size)
                     if len(lat.atoms_below(x)) == 3)
        with pytest.raises(NoPartition):
            find_coset_partition(lat, three, part)


class TestJoinPoset:
    def test_s3_quotient_is_b1(self):
        ab = get_abstract("S3")
        n = max_normal_abelian(ab)[0]
        hp = find_coset_partition(ab, n)
        jp = join_poset(ab, hp)
        g = get_group("S3")
        n3 = next(h for h in normal_subgroups(g) if len(h) == 3)
        q, _ = quotient(g, n3)
        target = to_abstract(enumerate_subrack_lattice(group_rack(q)))
        mapping = are_isomorphic(jp, target)
        assert mapping is not None and check_isomorphism(jp, target, mapping)

    def test_boolean_quotient(self):
        # B6 with a 2-element block structure collapses to B3
        ab = get_abstract("Z6")
        n = next(x for x in range(ab.size)
                 if len(ab.atoms_below(x)) == 2 and ab.leq(ab.atoms[0], x))
        hp = find_coset_partition(ab, n)
        jp = join_poset(ab, hp)
        assert jp.size == 8 and jp.n_atoms == 3 and jp.is_boolean()

    def test_matches_every_subset_of_parts(self):
        # Close-by-One against the join of each of the 2^m sets of parts, on
        # every lattice-only candidate N of catalog_entries(24) and D12, and
        # on a Boolean quotient of Z6
        cases = [(ab, n) for _, ab in unseeded_lattices()
                 for n in max_normal_abelian(ab)]
        z6 = get_abstract("Z6")
        cases.append((z6, z6.support_index[0b11]))
        for ab, n in cases:
            hp = find_coset_partition(ab, n)
            assert join_poset(ab, hp).supports == subset_join_poset(ab, hp.parts)


class TestDerivedLength:
    def test_degenerate(self):
        triv = get_abstract("triv")
        assert lattice_derived_length(triv) == 0

    def test_abelian(self):
        for name in ("Z2", "Z9", "Z6xZ2"):
            assert lattice_derived_length(get_abstract(name)) == 1, name

    def test_metabelian(self):
        for name in ("S3", "D4", "Q8", "A4", "D6"):
            assert lattice_derived_length(get_abstract(name, seed=5)) == 2, name

    def test_s4(self):
        assert lattice_derived_length(get_abstract("S4", seed=8)) == 3

    def test_stall_not_solvable(self):
        verdict = lattice_derived_length(stall_lattice())
        assert verdict is NOT_SOLVABLE

    @pytest.mark.parametrize("name, size", [("A5", 490), ("S5", 2406)])
    def test_nonsolvable_groups(self, name, size):
        # real nonsolvable groups at the default limits, with mu(0, 1) equal
        # to (-1)^classes = -1 (A5 has 5 classes, S5 has 7)
        ab = get_abstract(name, seed=3)
        assert ab.size == size
        assert lattice_derived_length(ab) is NOT_SOLVABLE
        classes = conjugacy_classes(get_group(name)).count
        assert mobius_bottom_top(ab) == (-1) ** classes == -1

    @pytest.mark.parametrize("seed", [None, 1, 7])
    def test_gl23_length_four(self, seed):
        # the centre Z2 gives a 24-part quotient, the lattice of S4
        g = load_group(GL23_PATH)
        ab = to_abstract(enumerate_subrack_lattice(group_rack(g)), seed=seed)
        assert lattice_derived_length(ab) == derived_length_oracle(g)[1] == 4

    @pytest.mark.parametrize("seed", [1, 7])
    def test_z2_sl23_length_three(self, seed):
        # order 48 like GL(2,3), with derived length 3; unseeded, its
        # partition search takes about 70 s, so that input is left out
        g = direct_product(cyclic(2), sl23())
        ab = to_abstract(enumerate_subrack_lattice(group_rack(g)), seed=seed)
        assert lattice_derived_length(ab) == derived_length_oracle(g)[1] == 3

    def test_seed_invariance(self):
        vals = {lattice_derived_length(get_abstract("D5", seed=s))
                for s in (None, 1, 2)}
        assert vals == {2}


def test_no_reference_cycles():
    """Reconstruction, the isomorphism search and enumeration leave nothing
    for the cycle collector: each lattice they build is freed when its last
    reference goes, not at the next full collection."""
    sl23 = get_abstract("sl23", 1)
    d8, q16 = get_abstract("D8", 2), get_abstract("Q16", 3)
    rack = group_rack(get_group("D6"))
    gc.collect()
    gc.disable()
    try:
        assert lattice_derived_length(sl23) == 3
        are_isomorphic(d8, q16)
        enumerate_subrack_lattice(rack)
        assert gc.collect() == 0
    finally:
        gc.enable()
