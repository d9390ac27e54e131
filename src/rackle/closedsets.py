"""Bitmask helpers and the one closed-set walker, Fast Close-by-One
(Outrata & Vychodil, Information Sciences 185, 2012; Close-by-One is
Kuznetsov & Obiedkov, J. Exp. Theor. Artif. Intell. 14, 2002), over every
closed-set family rackle lists: subracks, join posets and normal subgroups.
Each family hands it one extend step, which returns a set: the closure, or
the part of it that already shows the closure is not canonical. It imports
nothing from rackle, so every module can import it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence


def bits(mask: int) -> list[int]:
    """Positions of the set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(members: Iterable[int]) -> int:
    """Bitmask with the given positions set."""
    out = 0
    for v in members:
        out |= 1 << v
    return out


def close_by_one(
    points: Sequence[int], extend: Callable[[int, int], int]
) -> Iterator[int]:
    """Every nonempty closed set over points, each once, in canonical preorder.

    ∅ must be closed and points ascending. extend(a, j), for a closed a
    without j, returns the closure b of a ∪ {j}, or a part of it that
    already holds a new point below j: a caller may stop a closure there.
    Such a b is dropped either way, as it is reached from another set. A
    kept b is yielded and its children are tried with the later points.

    This is Fast Close-by-One (Outrata & Vychodil, Information Sciences
    185, 2012). A set tries all its later points before any child is
    walked. For each j whose extend fails it records d = b & ~a & below(j),
    the new points below j that the closure gained. A descendant c ⊇ a
    then skips j without an extend while d & ~c is nonzero: d ⊆ closure(a
    ∪ {j}) ⊆ closure(c ∪ {j}), and d lies below j, so that closure fails
    too. So one extend per (closed set, later point) pair is an upper
    bound on the cost, never 2^len(points). The witnesses are one list per
    set, by position in points, shared with its children and copied only
    when the set records a failure of its own. Children are pushed in
    reverse so that they pop, and are yielded, in ascending order.
    """
    n = len(points)
    stack = [(0, 0, [0] * n, False)]     # (set, next position, witnesses, yield?)
    while stack:
        a, i, fails, new = stack.pop()
        if new:
            yield a
        kids = []
        own = fails
        outside = ~a
        for pos in range(i, n):
            j = points[pos]
            if a >> j & 1 or own[pos] & outside:
                continue
            b = extend(a, j)
            d = b & outside & ((1 << j) - 1)
            if d:
                if own is fails:
                    own = fails[:]
                own[pos] = d
            else:
                kids.append((b, pos + 1))
        for b, p in reversed(kids):
            stack.append((b, p, own, True))
