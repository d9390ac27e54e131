"""Rack axioms, conjugation rack constructions, and bitmask closure."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackle import (
    BadIndex,
    NotPrime,
    conjugacy_class_rack,
    conjugacy_classes,
    group_rack,
    p_power_rack,
    rack_closure,
    verify_rack_axioms,
)
from rackle import racks
from rackle.closedsets import mask_of
from rackle.config import DEFAULT_LIMITS
from rackle.errors import FormatError
from rackle.racks import (
    closure_extend,
    closure_mask,
    format_rack,
    memo_closure,
    moves_of,
    parse_rack,
)
from rackle.scan import _coset_join_check

from conftest import get_group, is_closed_mask, small_racks


def bits(mask):
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestAxioms:
    def test_trivial_quandle(self):
        op = [[b for b in range(4)] for _ in range(4)]
        rep = verify_rack_axioms(op)
        assert rep.is_rack and rep.is_quandle and not rep.witnesses

    def test_group_rack_is_quandle(self):
        rep = verify_rack_axioms(group_rack(get_group("S4")).op)
        assert rep.is_rack and rep.is_quandle

    def test_cyclic_rack_not_quandle(self):
        # a |> b = b+1 mod 3: self-distributive and bijective, never idempotent
        op = [[(b + 1) % 3 for b in range(3)] for _ in range(3)]
        rep = verify_rack_axioms(op)
        assert rep.is_rack and not rep.is_quandle
        assert any(w[0] == "A3" for w in rep.witnesses)

    def test_distributivity_failure(self):
        # a |> b = a+b mod 3 breaks self-distributivity
        op = [[(a + b) % 3 for b in range(3)] for a in range(3)]
        rep = verify_rack_axioms(op)
        assert not rep.is_rack
        assert any(w[0] == "A1" for w in rep.witnesses)

    def test_translation_not_bijective(self):
        op = [[0, 0], [0, 1]]
        rep = verify_rack_axioms(op)
        assert not rep.is_rack
        assert any(w[0] == "A2" for w in rep.witnesses)

    def test_witnesses_check_out(self):
        op = [[(a + b) % 4 for b in range(4)] for a in range(4)]
        rep = verify_rack_axioms(op)
        for w in rep.witnesses:
            if w[0] == "A1":
                _, a, b, c = w
                assert op[a][op[b][c]] != op[op[a][b]][op[a][c]]


class TestConstructions:
    def test_group_rack_table(self):
        g = get_group("S3")
        rack = group_rack(g)
        assert rack.size == 6
        for a in range(6):
            for b in range(6):
                assert rack.op[a][b] == g.conj(a, b)

    def test_abelian_group_rack_trivial(self):
        rack = group_rack(get_group("Z6"))
        assert all(rack.op[a][b] == b for a in range(6) for b in range(6))

    def test_class_rack_transpositions(self):
        g = get_group("S3")
        part = conjugacy_classes(g)
        idx = next(i for i, c in enumerate(part.classes) if len(c) == 3)
        rack = conjugacy_class_rack(g, idx)
        assert rack.size == 3
        # conjugating one transposition by another yields the third
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert rack.op[a][b] not in (a, b)

    def test_class_rack_singleton(self):
        g = get_group("S3")
        part = conjugacy_classes(g)
        idx = next(i for i, c in enumerate(part.classes) if len(c) == 1)
        rack = conjugacy_class_rack(g, idx)
        assert rack.size == 1

    def test_class_rack_bad_index(self):
        with pytest.raises(BadIndex):
            conjugacy_class_rack(get_group("S3"), 99)

    def test_p_power_rack_s3(self):
        g = get_group("S3")
        # order a power of 2: the identity plus the three transpositions
        assert p_power_rack(g, 2).size == 4
        # order a power of 3: the identity plus the two rotations
        assert p_power_rack(g, 3).size == 3

    def test_p_power_rack_z4(self):
        # every element of a 2-group qualifies
        assert p_power_rack(get_group("Z4"), 2).size == 4

    def test_p_power_not_dividing(self):
        rack = p_power_rack(get_group("S3"), 5)
        assert rack.size == 1

    def test_p_power_not_prime(self):
        with pytest.raises(NotPrime):
            p_power_rack(get_group("S3"), 4)
        with pytest.raises(NotPrime):
            p_power_rack(get_group("S3"), 1)

    def test_rack_ground_labels(self):
        g = get_group("S3")
        part = conjugacy_classes(g)
        idx = next(i for i, c in enumerate(part.classes) if len(c) == 3)
        rack = conjugacy_class_rack(g, idx)
        assert sorted(rack.ground_labels) == sorted(part.classes[idx])


class TestClosure:
    def test_empty_and_full(self):
        rack = group_rack(get_group("S3"))
        assert closure_mask(rack.op, 0) == 0
        full = (1 << 6) - 1
        assert closure_mask(rack.op, full) == full

    def test_s3_rotation_and_transposition(self):
        g = get_group("S3")
        rack = group_rack(g)
        r = next(x for x in range(6) if g.element_order(x) == 3)
        t = next(x for x in range(6) if g.element_order(x) == 2)
        closed = closure_mask(rack.op, (1 << r) | (1 << t))
        # conjugation spreads to both rotations and all three transpositions
        assert bin(closed).count("1") == 5
        assert not closed >> g.identity & 1

    def test_closure_matches_rack_closure(self):
        g = get_group("D4")
        rack = group_rack(g)
        for seed in ([1], [2, 5], [3, 4, 6]):
            mask = 0
            for s in seed:
                mask |= 1 << s
            assert set(bits(closure_mask(rack.op, mask))) == set(
                rack_closure(rack, seed))

    def test_closure_extend_one_step(self):
        rack = group_rack(get_group("S3"))
        for j in range(6):
            assert closure_extend(rack.op, moves_of(rack.op), 0, j) == closure_mask(
                rack.op, 1 << j)

    def test_moves_are_two_sided(self):
        # point 2 swaps 0 and 1, which both act trivially: 2 ▷ 0 = 1 puts 2
        # in the moves of 0 although 0 acts trivially
        assert moves_of(((0, 1, 2), (0, 1, 2), (1, 0, 2))) == [0b100, 0b100, 0b011]
        rack = group_rack(get_group("S3"))
        centralizers = [
            mask_of(b for b in range(6) if rack.op[a][b] == b) for a in range(6)
        ]
        assert moves_of(rack.op) == [63 ^ c for c in centralizers]

    def test_is_closed_mask(self):
        g = get_group("S3")
        rack = group_rack(g)
        rot = 0
        for x in range(6):
            if g.element_order(x) in (1, 3):
                rot |= 1 << x
        assert is_closed_mask(rack.op, rot)
        assert not is_closed_mask(rack.op, rot | 1 << next(
            x for x in range(6) if g.element_order(x) == 2))


@given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
@settings(max_examples=60, deadline=None)
def test_closure_is_a_closure_operator(a, b):
    rack = group_rack(get_group("D4"))
    ca = closure_mask(rack.op, a)
    assert ca & a == a                         # extensive
    assert closure_mask(rack.op, ca) == ca     # idempotent
    if a & b == a:
        assert closure_mask(rack.op, b) & ca == ca  # monotone

@given(st.integers(min_value=0, max_value=4095), st.integers(min_value=0, max_value=4095))
@settings(max_examples=40, deadline=None)
def test_intersection_of_closed_is_closed(a, b):
    rack = group_rack(get_group("D6"))
    inter = closure_mask(rack.op, a) & closure_mask(rack.op, b)
    assert is_closed_mask(rack.op, inter)


@given(small_racks, st.data())
@settings(max_examples=80, deadline=None)
def test_memo_closure_matches_closure_mask(rack, data):
    full = (1 << rack.size) - 1
    drawn = data.draw(st.lists(st.integers(0, full), max_size=20))
    again = data.draw(st.lists(st.sampled_from(drawn), max_size=5)) if drawn else []
    # d and cl(d), both above point j, reach one closed set by different
    # prefixes and then add j: the memo's step from that set is shared
    j = data.draw(st.integers(0, rack.size - 1))
    above = full & ~((2 << j) - 1)
    shared = []
    for d in drawn:
        shared += [(d & above) | 1 << j, closure_mask(rack.op, d & above) | 1 << j]
    seeds = data.draw(st.permutations([0, full] + drawn + again + shared))
    close = memo_closure(rack.op)
    for m in seeds:
        assert close(m) == closure_mask(rack.op, m), (rack.op, m)


@pytest.mark.parametrize("name", ["S4", "sl23"])
def test_memo_closure_extends_each_step_once(name, monkeypatch):
    # the coset-join sweep asks one memo for many seeds that reach the same
    # closed set by different prefixes; each (closed set, point) step is
    # computed once
    steps = Counter()

    def counted(rows, moves, closed_mask, j, *rest):
        steps[closed_mask, j] += 1
        return closure_extend(rows, moves, closed_mask, j, *rest)

    monkeypatch.setattr(racks, "closure_extend", counted)
    g = get_group(name)
    assert _coset_join_check(g, name, DEFAULT_LIMITS, 0, False).startswith("PASS")
    assert steps and max(steps.values()) == 1


def test_memo_closure_walks_long_seeds_without_recursion():
    # trivial quandle a ▷ b = b: every subset is closed, so the full seed is
    # its own closure and its walk visits all 1,200 prefixes
    n = 1200
    close = memo_closure((tuple(range(n)),) * n)
    full = (1 << n) - 1
    assert close(full) == full
    assert close(full ^ 1) == full ^ 1
    assert close(1 << (n - 1)) == 1 << (n - 1)


class TestFormats:
    def test_roundtrip(self):
        rack = group_rack(get_group("Q8"))
        again = parse_rack(format_rack(rack))
        assert again.op == rack.op

    def test_parse_validates_axioms(self):
        with pytest.raises(FormatError):
            parse_rack("2\n0 0\n0 1\n")

    def test_parse_bad_shape(self):
        with pytest.raises(FormatError):
            parse_rack("3\n0 1 2\n0 1 2\n")

    def test_parse_out_of_range(self):
        with pytest.raises(FormatError):
            parse_rack("2\n0 5\n0 1\n")
