"""Mobius number of the full lattice and the reduced Euler characteristic."""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackle import (
    enumerate_subrack_lattice,
    group_rack,
    load_group,
    mobius_bottom_top,
    recover_classes,
    reduced_euler_characteristic,
    to_abstract,
)
from rackle.catalog import catalog_entries, dihedral
from rackle.config import DEFAULT_LIMITS
from rackle.errors import NotGroupLattice, TooLarge
from rackle.lattice import AbstractLattice

from conftest import GL23_PATH, closed_families, get_abstract, get_lattice


def mobius_by_recursion(lat):
    """mu(bottom, top) by the defining recursion mu(x) = -sum of mu(y) over
    y < x, in a pass by support size. O(n²); the test oracle for the
    crosscut sum, which it agrees with on lattices only."""
    if lat.is_boolean():
        return (-1) ** lat.n_atoms
    sup = lat.supports
    mu = {lat.bottom: 1}
    for x in sorted(range(lat.size), key=lambda x: sup[x].bit_count()):
        if x != lat.bottom:
            sx = sup[x]
            mu[x] = -sum(v for y, v in mu.items() if sup[y] & sx == sup[y])
    return mu[lat.top]


@lru_cache(maxsize=None)
def gl23_lattice():
    return enumerate_subrack_lattice(group_rack(load_group(GL23_PATH)))


MOBIUS_GROUPS = [g.name for g in catalog_entries(24)] + ["A5", "S5", "gl23"]


@pytest.mark.parametrize("seed", [None, 1, 7])
@pytest.mark.parametrize("name", MOBIUS_GROUPS)
def test_mobius_matches_recursion_on_groups(name, seed):
    lat = gl23_lattice() if name == "gl23" else get_lattice(name)
    ab = to_abstract(lat, seed=seed)
    assert mobius_bottom_top(ab) == mobius_by_recursion(ab)


@lru_cache(maxsize=None)
def lattice_and_mu(name):
    """The labelled lattice and its mu by recursion; mu is label-free, so
    one O(n²) pass serves every shuffle seed."""
    if name == "D12":
        lat = enumerate_subrack_lattice(group_rack(dihedral(24)))
    else:
        lat = gl23_lattice() if name == "gl23" else get_lattice(name)
    return lat, mobius_by_recursion(lat)


@pytest.mark.parametrize("seed", [None, 1, 7])
@pytest.mark.parametrize("name", ["D12", "S5", "gl23"])
def test_mobius_takes_no_joins(name, seed, monkeypatch):
    lat, mu = lattice_and_mu(name)
    ab = to_abstract(lat, seed=seed)

    def no_join(*args):
        raise AssertionError("mobius_bottom_top took a join")

    # join_mask, and the rank rows that every join not already a support reads
    monkeypatch.setattr(AbstractLattice, "join_mask", no_join)
    monkeypatch.setattr(AbstractLattice, "_above", property(no_join))
    assert mobius_bottom_top(ab) == mu


def test_non_lattice_raises():
    # {0, 1} has the two minimal upper bounds {0,1,2} and {0,1,3}, so the
    # two coatoms meet in atoms that no element holds
    poset = AbstractLattice([0, 1, 2, 4, 8, 0b0111, 0b1011, 0b1111])
    assert mobius_by_recursion(poset) == -1
    with pytest.raises(NotGroupLattice, match=r"atoms \[0, 1\]"):
        mobius_bottom_top(poset)


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=300, deadline=None)
def test_mobius_matches_recursion_on_families(sets):
    lat = AbstractLattice(sets)
    assert mobius_bottom_top(lat) == mobius_by_recursion(lat)


@given(closed_families().flatmap(st.permutations))
@settings(max_examples=300, deadline=None)
def test_chain_count_matches_recursion_on_families(sets):
    # Philip Hall: the reduced Euler characteristic of the proper part is mu
    lat = AbstractLattice(sets)
    assert reduced_euler_characteristic(lat) == mobius_by_recursion(lat)


class TestMobius:
    def test_one_element(self):
        lat = AbstractLattice(supports=[0])
        assert mobius_bottom_top(lat) == 1

    def test_boolean_sign(self):
        for name, n in (("triv", 1), ("Z2", 2), ("Z3", 3), ("Z4", 4), ("Z6", 6)):
            assert mobius_bottom_top(get_abstract(name)) == (-1) ** n, name

    def test_m3(self):
        # three atoms, each pair joining to top: mu = -(1 - 3) = 2
        m3 = AbstractLattice([0, 1, 2, 4, 7])
        assert not m3.is_boolean()
        assert mobius_bottom_top(m3) == 2

    def test_group_lattices(self):
        for name, mu in (("S3", -1), ("D4", -1), ("Q8", -1),
                         ("A4", 1), ("D5", 1), ("S4", -1)):
            assert mobius_bottom_top(get_abstract(name)) == mu, name


class TestEulerCharacteristic:
    def test_b2_two_incomparable_points(self):
        # B2 minus its ends is two incomparable atoms: -1 + 2 one-point chains
        ab = get_abstract("Z2")
        assert ab.size == 4 and len(ab.atoms) == 2
        assert reduced_euler_characteristic(ab) == 1

    def test_s3(self):
        assert reduced_euler_characteristic(get_abstract("S3")) == -1

    def test_agreement_with_mobius(self):
        for name in ("Z2", "Z3", "Z4", "S3", "D4", "Q8", "A4", "D5", "Z6"):
            ab = get_abstract(name)
            chi = reduced_euler_characteristic(ab)
            assert chi == mobius_bottom_top(ab), name

    def test_cap(self):
        ab = get_abstract("S4")  # 210 proper elements, over the default cap
        with pytest.raises(TooLarge):
            reduced_euler_characteristic(ab)
        assert reduced_euler_characteristic(
            ab, limits=DEFAULT_LIMITS.with_(chain_count_cap=250)
        ) == mobius_bottom_top(ab)


class TestSphereCheck:
    def test_catalog_sample(self):
        for name in ("S3", "Z6", "D4", "Q8", "A4", "D5", "D6", "S4", "Z12"):
            ab = get_abstract(name, seed=1)
            c = recover_classes(ab).count
            assert mobius_bottom_top(ab) == (-1) ** c, name

    def test_wrong_class_count_fails(self):
        ab = get_abstract("S3")
        c = recover_classes(ab).count
        assert mobius_bottom_top(ab) != (-1) ** (c + 1)
