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
    """Reference: recursion, with every closure finished before the test.
    Returns the sets and the number of closures it took."""
    out = []
    calls = 0

    def rec(a, j_from):
        nonlocal calls
        for j in range(j_from, k):
            if a >> j & 1:
                continue
            b = close(a | 1 << j)
            calls += 1
            below = (1 << j) - 1
            if b & below == a & below:
                out.append(b)
                rec(b, j + 1)

    rec(0, 0)
    return out, calls


@given(closure_systems())
@settings(max_examples=200, deadline=None)
def test_every_closed_set_once_in_canonical_preorder(system):
    k, close = system

    def eager(a, j):
        # stops at the first point below j that the closure gains, and
        # returns the part it has: a, j and that point
        b = close(a | 1 << j)
        gained = b & ~a & ((1 << j) - 1)
        return a | 1 << j | gained & -gained if gained else b

    closed = [s for s in range(1, 1 << k) if close(s) == s]
    preorder, reference_calls = canonical_preorder(k, close)
    for extend in (lambda a, j: close(a | 1 << j), eager):
        calls = []

        def counted(a, j):
            calls.append(j)
            return extend(a, j)

        walk = list(close_by_one(range(k), counted))
        assert sorted(walk) == closed
        assert walk == preorder
        # a failure seen above a set decides some of its extends unasked
        assert len(calls) <= reference_calls
