"""Group construction, conjugacy, series, and the oracle layer."""

import hashlib
import random
import re
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackle import (
    NOT_SOLVABLE,
    NotAGroup,
    NotNormal,
    TooLarge,
    conjugacy_classes,
    derived_length_oracle,
    direct_product,
    group_from_cayley_table,
    group_from_permutation_generators,
    group_invariants,
    load_group,
    maximal_abelian_subgroups,
    maximal_normal_abelian_oracle,
    normal_subgroups,
    quotient,
    subgroups,
)
from rackle.catalog import catalog_entries, cyclic, dihedral, sl23, symmetric
from rackle.closedsets import bits
from rackle.config import DEFAULT_LIMITS
from rackle.groups import (
    _check_associative,
    commutator_subgroup,
    cosets,
    extend_subgroup,
    format_cayley,
    is_normal,
    is_simple,
    is_subgroup,
    lower_central_series,
    nilpotency_class,
    parse_cayley,
    parse_cycles,
    parse_pgen,
    relabelled,
)
from rackle.reconstruct import coset_partition_of

from conftest import GL23_PATH, get_group

# smallest loop that is not a group: Latin, unital, with inverses,
# but 51 associativity failures
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


class TestConstruction:
    def test_trivial_group(self):
        g = group_from_cayley_table([[0]])
        assert g.order == 1 and g.identity == 0

    def test_not_latin(self):
        with pytest.raises(NotAGroup):
            group_from_cayley_table([[0, 1], [1, 1]])

    def test_no_identity(self):
        # Latin square (a quasigroup) with a left identity but no right one
        t = [[0, 1, 2], [2, 0, 1], [1, 2, 0]]
        with pytest.raises(NotAGroup):
            group_from_cayley_table(t)

    def test_not_associative(self):
        assert_reported_triple_fails(group_from_cayley_table, LOOP5)

    def test_catalog_tables_pass_associativity(self):
        for g in [*catalog_entries(60), symmetric(5)]:
            again = group_from_cayley_table(g.mul)
            assert again.mul == g.mul, g.name

    def test_inverse_is_two_sided_when_identity_is_not_first(self):
        rng = random.Random(7)
        for g in catalog_entries(24)[1:]:
            sigma = list(range(g.order))
            rng.shuffle(sigma)
            if sigma[0] == 0:
                sigma[0], sigma[1] = sigma[1], sigma[0]
            h = group_from_cayley_table(relabelled(g, sigma).mul)
            e = h.identity
            assert all(h.mul[a][h.inv[a]] == e == h.mul[h.inv[a]][a] for a in range(h.order)), g

    def test_ragged_table(self):
        with pytest.raises(NotAGroup):
            group_from_cayley_table([[0, 1], [1]])

    def test_identity_relabelled_to_zero(self):
        s3 = get_group("S3")
        sigma = [2, 0, 4, 1, 5, 3]  # arbitrary permutation moving the identity
        moved = relabelled(s3, sigma)
        assert moved.identity == sigma[0]
        # table ingestion renormalizes the identity back to index 0
        back = group_from_cayley_table(moved.mul)
        assert back.identity == 0
        assert group_invariants(back).summary() == group_invariants(s3).summary()

    def test_permutation_generators_s3(self):
        g = group_from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)])
        assert g.order == 6
        assert not g.is_abelian()

    def test_permutation_generators_empty(self):
        g = group_from_permutation_generators(4, [])
        assert g.order == 1

    def test_generation_cap(self):
        lim = DEFAULT_LIMITS.with_(generation_cap=5)
        with pytest.raises(TooLarge):
            group_from_permutation_generators(3, [(1, 0, 2), (1, 2, 0)], limits=lim)

    def test_direct_product(self):
        z6 = direct_product(get_group("Z2"), get_group("Z3"))
        assert z6.order == 6 and z6.is_abelian()
        assert max(z6.element_order(x) for x in range(6)) == 6


class TestElementOps:
    def test_conj_and_commutator(self):
        g = get_group("S3")
        for a in range(g.order):
            for b in range(g.order):
                c = g.conj(a, b)
                assert g.mul[a][b] == g.mul[c][a]
                comm = g.commutator(a, b)
                lhs = g.mul[g.mul[a][b]][g.mul[g.inv[a]][g.inv[b]]]
                assert comm == lhs

    def test_element_orders(self):
        z12 = get_group("Z12")
        orders = sorted({z12.element_order(x) for x in range(12)})
        assert orders == [1, 2, 3, 4, 6, 12]

    def test_order_histogram_separates_order8_groups(self):
        names = ["Z8", "Z4xZ2", "Z2xZ2xZ2", "D4", "Q8"]
        hists = {n: tuple(sorted(get_group(n).order_histogram().items())) for n in names}
        assert len(set(hists.values())) == len(names)


class TestConjugacyClasses:
    def test_s3_class_sizes(self):
        part = conjugacy_classes(get_group("S3"))
        assert sorted(part.sizes()) == [1, 2, 3]

    def test_q8_class_sizes(self):
        part = conjugacy_classes(get_group("Q8"))
        assert sorted(part.sizes()) == [1, 1, 2, 2, 2]

    def test_abelian_all_singletons(self):
        part = conjugacy_classes(get_group("Z6xZ2"))
        assert part.sizes() == (1,) * 12

    def test_classes_partition_the_group(self):
        g = get_group("S4")
        part = conjugacy_classes(g)
        seen = sorted(x for cl in part.classes for x in cl)
        assert seen == list(range(g.order))
        for x in range(g.order):
            assert x in part.classes[part.class_of[x]]

    def test_class_of_is_conjugation_invariant(self):
        g = get_group("D6")
        part = conjugacy_classes(g)
        for a in range(g.order):
            for b in range(g.order):
                assert part.class_of[g.conj(a, b)] == part.class_of[b]


class TestSubgroups:
    def test_counts(self):
        assert len(subgroups(get_group("triv"))) == 1
        assert len(subgroups(get_group("Z4"))) == 3
        assert len(subgroups(get_group("S3"))) == 6
        assert len(subgroups(get_group("D4"))) == 10

    @staticmethod
    def _brute_subgroups(g):
        """Every subset holding the identity and closed under mul."""
        others = [x for x in range(g.order) if x != g.identity]
        found = set()
        for pick in range(1 << len(others)):
            members = {g.identity} | {x for i, x in enumerate(others) if pick >> i & 1}
            if all(g.mul[a][b] in members for a in members for b in members):
                found.add(frozenset(members))
        return found

    @pytest.mark.parametrize("g", catalog_entries(12), ids=lambda g: g.name)
    def test_matches_brute_force(self, g):
        subs = subgroups(g)
        assert len(subs) == len(set(subs))
        assert set(subs) == self._brute_subgroups(g)

    @pytest.mark.parametrize("name, count", [("S4", 30), ("sl23", 15)])
    def test_counts_past_brute_force(self, name, count):
        assert len(subgroups(get_group(name))) == count

    def test_all_are_subgroups(self):
        g = get_group("A4")
        for h in subgroups(g):
            assert is_subgroup(g, h)

    def test_cap(self):
        with pytest.raises(TooLarge):
            subgroups(get_group("Z12"), DEFAULT_LIMITS.with_(subgroup_cap=10))

    def test_generated_subgroup(self):
        g = get_group("S3")
        trivial = [g.identity]
        assert len(extend_subgroup(g, trivial, [])) == 1
        whole = extend_subgroup(g, trivial, range(g.order))
        assert len(whole) == 6

    def test_normal_subgroups_s3(self):
        sizes = sorted(len(h) for h in normal_subgroups(get_group("S3")))
        assert sizes == [1, 3, 6]

    def test_normal_subgroups_match_subgroup_oracle(self):
        extra = [load_group(GL23_PATH), direct_product(get_group("Z2"), sl23())]
        for g in catalog_entries(24) + extra:
            assert normal_subgroups(g) == [h for h in subgroups(g) if is_normal(g, h)], g

    def test_subgroups_match_subset_oracle(self):
        # every subset holding the identity, tested for closure directly
        for g in catalog_entries(12):
            others = [x for x in range(g.order) if x != g.identity]
            subsets = (
                frozenset([g.identity, *(others[i] for i in bits(k))])
                for k in range(1 << len(others))
            )
            oracle = [h for h in subsets if is_subgroup(g, h)]
            assert subgroups(g) == sorted(oracle, key=lambda s: (len(s), sorted(s))), g

    def test_extend_subgroup_matches_generated_subgroup(self):
        # the subgroup generated is the least one holding H and the seeds;
        # subgroups() is checked by brute force above and lists by size
        for name in ("S3", "D4", "A4", "Dic3"):
            g = get_group(name)
            subs = subgroups(g)
            for h in subs:
                for seeds in [*([x] for x in range(g.order)), *conjugacy_classes(g).classes]:
                    want = h | set(seeds)
                    least = next(k for k in subs if want <= k)
                    assert extend_subgroup(g, h, seeds) == least

    def test_normal_subgroups_a5_simple(self):
        sizes = sorted(len(h) for h in normal_subgroups(get_group("A5")))
        assert sizes == [1, 60]
        assert is_simple(get_group("A5"))

    def test_normality_check(self):
        g = get_group("S3")
        transposition_pair = extend_subgroup(g, [g.identity], [min(
            x for x in range(6) if g.element_order(x) == 2)])
        assert is_subgroup(g, transposition_pair)
        assert not is_normal(g, transposition_pair)


class TestOracles:
    def test_derived_series_s3(self):
        series, dl = derived_length_oracle(get_group("S3"))
        assert dl == 2
        assert [len(s) for s in series] == [6, 3, 1]

    def test_derived_series_s4(self):
        series, dl = derived_length_oracle(get_group("S4"))
        assert dl == 3
        assert [len(s) for s in series] == [24, 12, 4, 1]

    def test_abelian_derived_length_one(self):
        _, dl = derived_length_oracle(get_group("Z9"))
        assert dl == 1

    def test_trivial_derived_length_zero(self):
        _, dl = derived_length_oracle(get_group("triv"))
        assert dl == 0

    def test_a5_not_solvable(self):
        series, dl = derived_length_oracle(get_group("A5"))
        assert dl is NOT_SOLVABLE
        assert not dl
        assert repr(dl) == "NOT_SOLVABLE"
        assert len(series[-1]) == 60

    def test_commutator_subgroup_d4(self):
        g = get_group("D4")
        whole = frozenset(range(8))
        comm = commutator_subgroup(g, whole, whole)
        assert len(comm) == 2
        centre = frozenset(x for x in whole if all(g.mul[x][y] == g.mul[y][x] for y in whole))
        assert commutator_subgroup(g, whole, centre) == {g.identity}
        assert commutator_subgroup(g, whole, comm) == {g.identity}

    def test_nilpotency(self):
        assert nilpotency_class(get_group("Z8")) == 1
        assert nilpotency_class(get_group("D4")) == 2
        assert nilpotency_class(get_group("S3")) is None
        assert len(lower_central_series(get_group("Q8"))) == 3

    def test_maximal_normal_abelian(self):
        mna = maximal_normal_abelian_oracle(get_group("S3"))
        assert [len(h) for h in mna] == [3]
        mna = maximal_normal_abelian_oracle(get_group("D4"))
        assert [len(h) for h in mna] == [4, 4, 4]
        mna = maximal_normal_abelian_oracle(get_group("Z12"))
        assert [len(h) for h in mna] == [12]
        mna = maximal_normal_abelian_oracle(get_group("A5"))
        assert [len(h) for h in mna] == [1]

    def test_maximal_abelian_subgroups_s4(self):
        sizes = sorted(len(h) for h in maximal_abelian_subgroups(get_group("S4")))
        assert sizes == [3, 3, 3, 3, 4, 4, 4, 4, 4, 4, 4]

    def test_invariants_summary(self):
        inv = group_invariants(get_group("S3"))
        assert inv.order == 6 and not inv.is_abelian
        assert inv.is_solvable and inv.derived_length == 2
        assert "solvable(derived length 2)" in inv.summary()
        inv5 = group_invariants(get_group("A5"))
        assert not inv5.is_solvable and inv5.derived_length is None
        assert inv5.is_simple


class TestQuotient:
    def test_s3_mod_a3(self):
        g = get_group("S3")
        n = next(h for h in normal_subgroups(g) if len(h) == 3)
        q, proj = quotient(g, n)
        assert q.order == 2
        assert proj[g.identity] == 0
        for a in range(6):
            for b in range(6):
                assert proj[g.mul[a][b]] == q.mul[proj[a]][proj[b]]

    def test_quotient_by_whole_group(self):
        g = get_group("D4")
        q, _ = quotient(g, frozenset(range(8)))
        assert q.order == 1

    def test_quotient_not_normal(self):
        g = get_group("S3")
        h = next(h for h in subgroups(g) if len(h) == 2)
        with pytest.raises(NotNormal, match="subgroup is not normal"):
            quotient(g, h)

    def test_quotient_not_subgroup(self):
        with pytest.raises(NotNormal, match="not a subgroup"):
            quotient(get_group("Z4"), frozenset({0, 3}))

    @pytest.mark.parametrize("name", [g.name for g in catalog_entries(12)] + ["S4", "sl23"])
    def test_cosets_decide_normality_as_is_normal(self, name):
        # one conjugation per element, by the coset representatives, decides
        # what is_normal's |G|·|N| decide: NotNormal exactly for the
        # subgroups is_normal rejects, the left cosets by least member for
        # the others
        g = get_group(name)
        for h in subgroups(g):
            if is_normal(g, h):
                expected = []
                for x in range(g.order):
                    if not any(x in c for c in expected):
                        expected.append(frozenset(g.mul[x][y] for y in h))
                assert cosets(g, h) == expected, sorted(h)
            else:
                with pytest.raises(NotNormal, match="^subgroup is not normal$"):
                    cosets(g, h)

    def test_cosets_by_least_member(self):
        for g in catalog_entries(12):
            for n in normal_subgroups(g):
                parts = cosets(g, n)
                assert parts[0] == n and all(len(c) == len(n) for c in parts)
                assert frozenset().union(*parts) == frozenset(range(g.order))
                assert [min(c) for c in parts] == sorted(min(c) for c in parts)


@cache
def pinned_groups():
    return [*catalog_entries(24), load_group(GL23_PATH),
            direct_product(cyclic(2), sl23()), dihedral(24), symmetric(5)]


def _sha(rows) -> str:
    return hashlib.sha256("\n".join(map(repr, rows)).encode()).hexdigest()


def _normal_pairs():
    return [(g, n) for g in pinned_groups() for n in normal_subgroups(g)]


# SHA-256 of each oracle output over the pinned groups: a change to the
# subgroup closure, the coset loop or the inverse rule that moves any output
# shows here as a changed digest
ORACLE_PINS = {
    "derived-series": (
        lambda: [(g.name, [sorted(h) for h in s], repr(dl))
                 for g in pinned_groups() for s, dl in [derived_length_oracle(g)]],
        "53abf59c45fbf3f9e8713344c41cc30415598606cd351511e24b38c5159896dc",
    ),
    "lower-central-series": (
        lambda: [(g.name, [sorted(h) for h in lower_central_series(g)])
                 for g in pinned_groups()],
        "ef3e76ebb59510f53e28aa7ffe8266128aebad5c9279b643d1067e78023f82d4",
    ),
    "inv": (
        lambda: [(g.name, g.inv) for g in pinned_groups()],
        "48291c4d24e15562319147c170eaa2ccaa41c09eaabf2a17ee5344eff6308106",
    ),
    "coset-partition": (
        lambda: [(g.name, sorted(n), [sorted(c) for c in coset_partition_of(g, n)])
                 for g, n in _normal_pairs()],
        "2c5f7c8d0bee4b57dc052a36d682a7cf0a6d3953c8bd9238a094f7cfb47b760d",
    ),
    "quotient": (
        lambda: [(g.name, sorted(n), proj, q.mul, q.inv)
                 for g, n in _normal_pairs() for q, proj in [quotient(g, n)]],
        "e565f618886bd4aa985f5de872be440983dfc12399c280fb66de9af12b34f533",
    ),
}


@pytest.mark.parametrize("what", ORACLE_PINS)
def test_oracle_outputs_are_pinned(what):
    rows, digest = ORACLE_PINS[what]
    assert _sha(rows()) == digest


class TestFormats:
    def test_cayley_roundtrip(self):
        g = get_group("D4")
        again = parse_cayley(format_cayley(g))
        assert again.mul == g.mul

    def test_cayley_comments_and_blanks(self):
        text = "# a comment\n2\n\n0 1\n1 0\n"
        assert parse_cayley(text).order == 2

    def test_parse_cycles(self):
        assert parse_cycles("(1 2 3)", 4) == (1, 2, 0, 3)
        assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
        assert parse_cycles("()", 3) == (0, 1, 2)

    def test_parse_pgen(self):
        g = parse_pgen("3\n(1 2)\n(1 2 3)\n")
        assert g.order == 6

    def test_relabel_roundtrip_properties(self):
        g = get_group("Q8")
        rng = random.Random(5)
        for _ in range(5):
            sigma = list(range(8))
            rng.shuffle(sigma)
            h = relabelled(g, sigma)
            assert h.identity == sigma[0]
            assert sorted(conjugacy_classes(h).sizes()) == sorted(
                conjugacy_classes(g).sizes())


@given(st.integers(min_value=1, max_value=24))
@settings(max_examples=24, deadline=None)
def test_cyclic_groups_are_abelian_with_full_order_element(n):
    from rackle.catalog import cyclic

    g = cyclic(n)
    assert g.order == n and g.is_abelian()
    assert any(g.element_order(x) == n for x in range(n))


@given(st.permutations(list(range(6))))
@settings(max_examples=30, deadline=None)
def test_relabelling_preserves_class_sizes(sigma):
    g = get_group("S3")
    h = relabelled(g, list(sigma))
    assert sorted(conjugacy_classes(h).sizes()) == sorted(conjugacy_classes(g).sizes())


TRIPLE = r"associativity fails at \((\d+),(\d+),(\d+)\)"


def assert_reported_triple_fails(check, table):
    with pytest.raises(NotAGroup, match=TRIPLE) as info:
        check(table)
    x, a, y = map(int, re.search(TRIPLE, str(info.value)).groups())
    assert table[table[x][a]][y] != table[x][table[a][y]]


def associative_by_triples(table):
    n = range(len(table))
    return all(table[table[x][a]][y] == table[x][table[a][y]] for x in n for a in n for y in n)


@st.composite
def any_tables(draw):
    n = draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]


@given(any_tables())
@settings(max_examples=500, deadline=None)
def test_light_matches_triple_scan(table):
    # Light's test checks generators only; any magma must agree with all n³ triples
    if associative_by_triples(table):
        _check_associative(table)
    else:
        assert_reported_triple_fails(_check_associative, table)
