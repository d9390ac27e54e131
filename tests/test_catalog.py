"""The bundled group catalog, constructors, fixtures, and name lookup."""

import hashlib

import pytest

from rackle import (
    RackleError,
    TooLarge,
    UnknownGroup,
    alternating,
    catalog_entries,
    cyclic,
    derived_length_oracle,
    dicyclic,
    dihedral,
    group_invariants,
    named_group,
    sl23,
    stall_lattice,
    symmetric,
)
from rackle import catalog
from rackle.catalog import fixture_group, fixture_text
from rackle.lattice import AbstractLattice


class TestConstructors:
    def test_cyclic(self):
        assert cyclic(1).name == "triv"
        g = cyclic(7)
        assert g.order == 7 and g.is_abelian() and g.name == "Z7"

    def test_dihedral(self):
        g = dihedral(12)
        assert g.order == 12 and g.name == "D6" and not g.is_abelian()
        assert sorted(g.order_histogram().items()) == [(1, 1), (2, 7), (3, 2), (6, 2)]

    def test_dihedral_odd_order(self):
        with pytest.raises(TooLarge):
            dihedral(7)

    def test_dicyclic(self):
        q8 = dicyclic(8)
        assert q8.name == "Q8" and q8.order == 8
        assert sum(1 for x in range(8) if q8.element_order(x) == 2) == 1
        dic3 = dicyclic(12)
        assert dic3.name == "Dic3" and dic3.order == 12

    def test_dicyclic_bad_order(self):
        with pytest.raises(TooLarge):
            dicyclic(10)

    def test_symmetric(self):
        assert symmetric(3).order == 6
        assert symmetric(4).order == 24
        assert symmetric(5).order == 120
        with pytest.raises(TooLarge):
            symmetric(6)

    def test_alternating(self):
        assert alternating(4).order == 12
        a5 = alternating(5)
        assert a5.order == 60
        _, dl = derived_length_oracle(a5)
        assert not dl
        with pytest.raises(TooLarge):
            alternating(6)


class TestCatalog:
    def test_complete_through_order_12(self):
        per_order = {}
        for g in catalog_entries(12):
            per_order[g.order] = per_order.get(g.order, 0) + 1
        assert per_order == {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2,
                             7: 1, 8: 5, 9: 2, 10: 2, 11: 1, 12: 5}

    def test_names_unique_and_sorted(self):
        entries = catalog_entries(16)
        names = [g.name for g in entries]
        assert len(set(names)) == len(names)
        keys = [(g.order, g.name) for g in entries]
        assert keys == sorted(keys)

    def test_order_16_entries(self):
        names = {g.name for g in catalog_entries(16) if g.order == 16}
        assert names == {"Z16", "Z8xZ2", "Z4xZ4", "Z4xZ2xZ2", "Z2xZ2xZ2xZ2",
                         "D8", "Q16", "Z2xD4", "Z2xQ8"}

    def test_larger_entries_present(self):
        names = {g.name for g in catalog_entries(60)}
        assert "S4" in names and "A5" in names

    def test_pairwise_distinct_order8(self):
        hists = set()
        for g in catalog_entries(8):
            if g.order == 8:
                hists.add(tuple(sorted(g.order_histogram().items())))
        assert len(hists) == 5


# SHA-256 over (name, order, Cayley table) of catalog_entries(k), in order,
# as the catalog built every group before it kept a table of constructors
CATALOG_HASHES = {
    1: "3ddaef61b2f99b4085b7ee452291e242580dd9c62f66279c02a863c1b7afaa29",
    8: "d25c98a4f578d7ce1e49d09053f20fbce53b6da2651a5f6d283194564be2076a",
    12: "85641841a229203a55d7bfdbd0ade311c0006e364654bb31790e4ae1080db494",
    16: "198124453b80bb2718fcd5f23dc33f4c2692a5cdd01c49cf11b12c0d43091dc8",
    24: "9da1ca130a4f41b9ea816645ff82c06d5912322a1f0a083615393e2f3fbdc028",
    60: "57bbe076c86a8be47888713fd25f9fdbedd39fec5696fe337ba60bc1d14f6457",
    10_000: "57bbe076c86a8be47888713fd25f9fdbedd39fec5696fe337ba60bc1d14f6457",
}


@pytest.mark.parametrize("k", CATALOG_HASHES)
def test_catalog_groups_are_pinned(k):
    h = hashlib.sha256()
    for g in catalog_entries(k):
        h.update(repr((g.name, g.order, g.mul)).encode())
    assert h.hexdigest() == CATALOG_HASHES[k]


@pytest.mark.parametrize("name, order, make", catalog._CATALOG,
                         ids=[name for name, _, _ in catalog._CATALOG])
def test_table_entry_builds_what_it_declares(name, order, make):
    g = make()
    assert (g.name, g.order) == (name, order)


def refuse(*args, **kwargs):
    raise AssertionError("built a group nobody asked for")


class TestBuildsOnlyWhatIsAsked:
    def test_lookup_builds_one_group(self, monkeypatch):
        # the table holds the constructors themselves, so the builders under
        # them are patched too: those are what a held constructor reaches
        for name in ("alternating", "symmetric", "sl23",
                     "group_from_permutation_generators", "fixture_group"):
            monkeypatch.setattr(catalog, name, refuse)
        for name in ("D8", "Z2xQ8", "Z2xZ2xZ2xZ2"):
            assert named_group(name).name == name
        for name in ("S3", "A5", "sl23"):
            with pytest.raises(AssertionError, match="nobody asked for"):
                named_group(name)

    def test_entries_up_to_an_order_build_only_those(self, monkeypatch):
        built = []
        original = catalog.group_from_permutation_generators

        def record(n, gens, name=""):
            built.append(name)
            return original(n, gens, name=name)

        monkeypatch.setattr(catalog, "group_from_permutation_generators", record)
        monkeypatch.setattr(catalog, "fixture_group", refuse)
        assert len(catalog_entries(16)) == 37
        assert built == ["S3", "A4"]

    def test_each_lookup_builds_anew(self):
        assert named_group("D8") is not named_group("D8")
        assert catalog_entries(4)[0] is not catalog_entries(4)[0]


class TestNamedGroup:
    def test_aliases(self):
        assert named_group("v4").name == "Z2xZ2"
        assert named_group("K4").name == "Z2xZ2"
        assert named_group("d3").name == "S3"
        assert named_group("dic2").name == "Q8"
        assert named_group("z1").name == "triv"

    def test_case_insensitive(self):
        assert named_group("q16").order == 16
        assert named_group("z6xz2").order == 12

    def test_specials(self):
        assert named_group("S4").order == 24
        assert named_group("a5").order == 60
        assert named_group("sl23").order == 24

    def test_unknown(self):
        with pytest.raises(KeyError):
            named_group("M11")

    def test_unknown_is_a_rackle_error(self):
        with pytest.raises(UnknownGroup, match="no catalog group named 'M11'$"):
            named_group("M11")
        assert issubclass(UnknownGroup, RackleError)

    def test_s5_by_name_only(self):
        assert named_group("s5").order == 120
        assert "S5" not in {g.name for g in catalog_entries(10_000)}


class TestFixtures:
    def test_s3_table(self):
        g = fixture_group("s3.cay")
        inv = group_invariants(g)
        assert inv.order == 6 and not inv.is_abelian and inv.derived_length == 2

    def test_sl23(self):
        g = sl23()
        inv = group_invariants(g)
        assert inv.order == 24
        assert inv.derived_length == 3
        assert sorted(g.order_histogram().items()) == [
            (1, 1), (2, 1), (3, 8), (4, 6), (6, 8)]

    def test_stall_lattice(self):
        lat = stall_lattice()
        assert isinstance(lat, AbstractLattice)
        assert lat.size == 14 and lat.n_atoms == 7
        assert lat.supports == [0, 1, 2, 4, 8, 16, 32, 64, 14, 112, 15, 113, 126, 127]

    def test_fixture_text_has_comments_stripped_on_parse(self):
        text = fixture_text("stall.lat")
        assert text.splitlines()[0].split()[0] == "14"
