"""The line rules every text format shares: comments and blank lines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rackle.catalog import fixture_text
from rackle.groups import format_cayley, parse_cayley, parse_pgen
from rackle.lattice import format_lattice, parse_lattice
from rackle.racks import format_rack, group_rack, parse_rack
from rackle.textio import content_lines

from conftest import get_group, get_lattice


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


@given(st.text(alphabet="0a #\t\n\r\x0b\x1c\u2028", max_size=40))
@settings(max_examples=300, deadline=None)
def test_content_lines_cut_then_strip(text):
    # a text with no "#" skips the cut; every text gives the lines of one
    # comment cut and strip per line
    assert list(content_lines(text)) == [
        cut for ln in text.splitlines() if (cut := ln.split("#", 1)[0].strip())
    ]
