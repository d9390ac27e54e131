"""The Close-by-One walker on its own, against brute force."""

from functools import reduce
from operator import and_

from hypothesis import given, settings
from hypothesis import strategies as st

from rackle.closedsets import close_by_one


@st.composite
def closure_systems(draw):
    """(k, close): the closure of a set is the meet of the family members
    holding it. The family holds ∅ and the full set, so ∅ is closed and
    every set has a closure."""
    k = draw(st.integers(1, 7))
    full = (1 << k) - 1
    family = [0, full, *draw(st.lists(st.integers(0, full), max_size=10))]
    return k, lambda s: reduce(and_, (f for f in family if f & s == s))


def canonical_preorder(k, close):
    """Reference: recursion, with every closure finished before the test."""
    out = []

    def rec(a, j_from):
        for j in range(j_from, k):
            if a >> j & 1:
                continue
            b = close(a | 1 << j)
            below = (1 << j) - 1
            if b & below == a & below:
                out.append(b)
                rec(b, j + 1)

    rec(0, 0)
    return out


@given(closure_systems())
@settings(max_examples=200, deadline=None)
def test_every_closed_set_once_in_canonical_preorder(system):
    k, close = system

    def eager(a, j):
        # gives up as soon as the closure gains a point below j
        b = close(a | 1 << j)
        return None if b & ~a & ((1 << j) - 1) else b

    closed = [s for s in range(1, 1 << k) if close(s) == s]
    for extend in (lambda a, j: close(a | 1 << j), eager):
        walk = list(close_by_one(range(k), extend))
        assert sorted(walk) == closed
        assert walk == canonical_preorder(k, close)
