"""Bitmask helpers and the one Close-by-One walker (Kuznetsov & Obiedkov,
J. Exp. Theor. Artif. Intell. 14, 2002) over every closed-set family rackle
lists: subracks, join posets and normal subgroups. It imports nothing from
rackle, so every module can import it.
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
    points: Sequence[int], extend: Callable[[int, int], int | None]
) -> Iterator[int]:
    """Every nonempty closed set over points, each once, in canonical preorder.

    ∅ must be closed and points ascending. extend(a, j), for a closed a
    without j, returns the closure b of a ∪ {j}, or None once it sees b gain
    a point below j. Such a b is dropped either way: it is reached from
    another set. A kept b is yielded and its children are tried with the
    later points, so the cost is one extend per (closed set, later point)
    pair, never 2^len(points). The stack holds each set whose children are
    still being tried, with the position in points of the next one to add.
    """
    stack = [(0, 0)]
    while stack:
        a, i = stack.pop()
        while i < len(points):
            j = points[i]
            i += 1
            if not a >> j & 1:
                b = extend(a, j)
                if b is not None and not b & ~a & ((1 << j) - 1):
                    yield b
                    stack.append((a, i))
                    a = b
