"""The line rules every text format shares: comments and blank lines."""

from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rackle.catalog import fixture_text
from rackle.groups import format_cayley, parse_cayley, parse_pgen
from rackle.lattice import format_lattice, parse_lattice
from rackle.racks import format_rack, group_rack, parse_rack
from rackle import textio
from rackle.textio import BLOCK, content_lines

from conftest import content_lines_reference, get_group, get_lattice


def with_comments(text):
    """The same content with a comment on every line and blank,
    whitespace-only and comment-only lines between them."""
    out = ["# leading comment", ""]
    for ln in text.splitlines():
        out += [f"{ln}  # trailing comment", "   ", "\t# indented comment", ""]
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("text, parse, key", [
    pytest.param(format_cayley(get_group("S3")), parse_cayley, lambda g: g.mul, id="cay"),
    pytest.param(format_rack(group_rack(get_group("Q8"))), parse_rack, lambda r: r.op,
                 id="rk"),
    pytest.param("3\n(1 2)\n(1 2 3)\n", parse_pgen, lambda g: g.mul, id="pgen"),
    pytest.param(format_lattice(get_lattice("D4")), parse_lattice, lambda lat: lat.supports,
                 id="lat-concrete"),
    pytest.param(fixture_text("stall.lat"), parse_lattice, lambda lat: lat.supports,
                 id="lat-stall"),
])
def test_comments_and_blank_lines_are_skipped(text, parse, key):
    assert key(parse(with_comments(text))) == key(parse(text))


@given(st.text(alphabet="0a #\t\n\r\x0b\x0c\x1c\u2028", max_size=60),
       st.sampled_from([BLOCK, 1, 2, 3, 5, 8]))
@settings(max_examples=300, deadline=None)
def test_content_lines_cut_then_strip(text, block):
    # a text with no "#" skips the cut; every text gives the lines of one
    # comment cut and strip per line, in one block or in blocks of a few
    # characters, which end at nearly every newline, "\r\n" included
    with patch.object(textio, "BLOCK", block):
        assert list(content_lines(text)) == [
            cut for ln in text.splitlines() if (cut := ln.split("#", 1)[0].strip())
        ]


@st.composite
def long_texts(draw):
    """Texts over a block long: runs of short lines with every separator,
    comments and whitespace-only lines, between two long lines with no
    newline, so that block ends fall among the short lines."""
    runs = st.lists(st.tuples(st.sampled_from(["0 1", " a # c", "\t", "#", "", "# x\t"]),
                              st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\u2028"])),
                    max_size=30).map(lambda pairs: "".join(a + b for a, b in pairs))
    gap = draw(st.integers(0, 60))
    return (draw(runs) + "x" * (BLOCK - gap) + draw(runs) + "y" * (BLOCK - gap) + draw(runs)
            + draw(st.sampled_from(["", "last line", "# last\r"])))


@given(long_texts())
@example("a\r" * BLOCK)                 # no "\n" at all: one block
@example("x" * (BLOCK - 1) + "\r\n" + "y")
@example("x" * BLOCK + "\r\nlast")
@example("x" * BLOCK + "\n")
@settings(max_examples=150, deadline=None)
def test_content_lines_matches_whole_text_past_a_block(text):
    assert list(content_lines(text)) == list(content_lines_reference(text))
