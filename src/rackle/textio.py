"""The line rules shared by the four text formats (.cay, .pgen, .rk, .lat).

`#` starts a comment anywhere on a line, surrounding whitespace is stripped,
and lines left empty are skipped. A token that should be an integer and is
not raises FormatError naming the line it came from.
"""

from __future__ import annotations

import os
from itertools import chain
from typing import Iterator, Sequence

from .errors import FormatError

BLOCK = 1 << 16                          # a block's characters, then on to a newline


def content_lines(text: str) -> Iterator[str]:
    """The non-empty lines of text, comments cut, read in blocks that end at
    the first newline past BLOCK characters (a line end whatever precedes
    it): no list of every line is held. A block with no "#" skips the cut."""
    return chain.from_iterable(_blocks(text))


def _blocks(text: str) -> Iterator[Iterator[str]]:
    start = 0
    while start < len(text):
        end = text.find("\n", start + BLOCK) + 1 or len(text)
        block, start = text[start:end], end
        lines = block.splitlines()
        if "#" in block:
            lines = (ln.split("#", 1)[0] for ln in lines)
        yield filter(None, map(str.strip, lines))


def ints(tokens: Sequence[str], what: str, line: str) -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        raise FormatError(f"bad {what} {line!r}") from None


def parse_table(text: str) -> list[tuple[int, ...]]:
    """A square table (.cay, .rk): a line holding only the size n, then n
    rows of n indices in [0, n)."""
    lines = list(content_lines(text))
    if not lines:
        raise FormatError("empty table file")
    (n,) = ints(lines[:1], "size line", lines[0])
    if len(lines) != n + 1:
        raise FormatError(f"expected {n} table rows, found {len(lines) - 1}")
    table = []
    for ln in lines[1:]:
        row = tuple(ints(ln.split(), "table row", ln))
        if len(row) != n or any(not (0 <= x < n) for x in row):
            raise FormatError(f"row {ln!r} is not {n} indices in [0,{n})")
        table.append(row)
    return table


def format_table(rows: Sequence[Sequence[int]]) -> str:
    lines = [str(len(rows))] + [" ".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def stem(path: str) -> str:
    """The file name without its directory and last extension."""
    return os.path.basename(path).rsplit(".", 1)[0]


def read_file(path: str) -> tuple[str, str]:
    """The text of a file and its stem, which loaders use as the name. Bytes
    that are not UTF-8 raise FormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc.reason}") from None
    return text, stem(path)
