"""Catalog integrity and the design file format round-trips."""
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designcolour import (
    Colouring,
    Design,
    Grouping,
    ParseError,
    catalog_get,
    catalog_names,
    check_group_colouring,
    parse_colouring,
    parse_design,
    render_colouring,
    render_design,
    validate_bibd,
)
from designcolour.catalog import UnknownEntryError


class TestCatalog:
    def test_all_entries_load_validated(self):
        names = catalog_names()
        assert set(names) >= {
            "sts7", "sts9", "sts13", "sts21", "bibd13_4",
            "td44", "pack7", "pack11", "pack24", "pack25",
        }
        for name in names:
            catalog_get(name)

    def test_unknown_name(self):
        with pytest.raises(UnknownEntryError):
            catalog_get("sts99")

    def test_sts21_shape(self):
        entry = catalog_get("sts21")
        assert entry.design.v == 21 and entry.design.b == 70
        assert validate_bibd(entry.design).passed

    def test_td44_colouring_balances_groups(self):
        entry = catalog_get("td44")
        report = check_group_colouring(
            entry.design, entry.grouping, entry.colouring, "group-equitable"
        )
        assert report.passed

    def test_provenance_text_present(self):
        for name in catalog_names():
            assert catalog_get(name).provenance


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["sts7", "sts21", "td44", "pack24"])
    def test_parse_render_identity(self, name):
        entry = catalog_get(name)
        text = render_design(entry.design, entry.grouping, entry.colouring)
        design, grouping, colouring = parse_design(text)
        assert design == entry.design
        assert grouping == entry.grouping
        assert colouring == entry.colouring
        assert render_design(design, grouping, colouring) == text

    def test_canonical_file_stable(self):
        text = "design v=4 k=3 lambda=1\nblock: 0 1 2\nblock: 0 1 3\n"
        design, grouping, colouring = parse_design(text)
        assert render_design(design) == text

    def test_colouring_round_trip(self):
        col = Colouring(3, (0, 1, 2, 1))
        assert parse_colouring(render_colouring(col)) == col


HEADER = "design v=4 k=3 lambda=1\n"

# Malformed files with the exact message and line number each one raises.
# Where a line breaks several rules, the first of duplicate, range and
# order wins; every line is checked before the design as a whole.
PARSE_ERRORS = [
    (HEADER + "block: 0 1 1\n", 2, "duplicate point in block"),
    ("design v=3 k=3 lambda=1\nblock: 0 1 5\n", 2, "point out of range [0, 3)"),
    ("design v=3 k=3 lambda=1\nblock: -1 1 2\n", 2, "point out of range [0, 3)"),
    (HEADER + "block: 1 2 4\n", 2, "point out of range [0, 4)"),
    ("design v=0 k=2 lambda=1\nblock: 0 1\n", 2, "point out of range [0, 0)"),
    (HEADER + "block: 2 1 0\n", 2, "block points must be ascending"),
    (HEADER + "block: 1 0\n", 2, "block points must be ascending"),
    ("design v=3 k=3 lambda=1\nblock: 5 1 1\n", 2, "duplicate point in block"),
    ("design v=3 k=3 lambda=1\nblock: 5 1 0\n", 2, "point out of range [0, 3)"),
    ("design v=3 k=3 lambda=1\nblock: 2 1 1\n", 2, "duplicate point in block"),
    (HEADER + "block: 3 3 -1\n", 2, "duplicate point in block"),
    (HEADER + "block: 0 1 2\nblock: 2 3 3 3\n", 3, "duplicate point in block"),
    (HEADER + "block: 0 1 2\nblock: 1 2 9 # far\n", 3, "point out of range [0, 4)"),
    (HEADER + "block: 0 1 x\n", 2, "expected integers, got ' 0 1 x'"),
    (HEADER + "block: 0 1 x   \n", 2, "expected integers, got ' 0 1 x'"),
    (HEADER + "block: 0 1 x # note\n", 2, "expected integers, got ' 0 1 x'"),
    (HEADER + "block: 0 1 2.0\n", 2, "expected integers, got ' 0 1 2.0'"),
    (HEADER + "block:\n", 1, "block () has fewer than two points"),
    (HEADER + "block:   # nothing\n", 1, "block () has fewer than two points"),
    ("design v=4 k=1 lambda=1\nblock: 2\n", 1, "block (2,) has fewer than two points"),
    (HEADER + "block: 0 1 2\nblock: 3\nblock: 1\n", 1, "block (3,) has fewer than two points"),
    ("design v=4 k=3 lambda=0\nblock: 0 1 2\n", 1,
     "pair multiplicity index must be a positive integer"),
    ("design v=4 k=3 lambda=0\nblock: 2\n", 1,
     "pair multiplicity index must be a positive integer"),
    ("design v=4 k=3 lambda=0\nblock: 0 1 1\n", 2, "duplicate point in block"),
    ("design v=4 k=4 lambda=1\nblock: 0 1 2\n", 1, "header k=4 but the least block size is 3"),
    (HEADER + "block: 0 1 2 3\nblock: 0 1\n", 1, "header k=3 but the least block size is 2"),
    ("block: 0 1 2\n", 1, "block before design header"),
    (HEADER + "block: 0 1 2\n" + HEADER, 3, "duplicate design header"),
    (HEADER + "block: 0 1 2\ngroup: 0 1 5\n", 3, "point out of range [0, 4)"),
]


@st.composite
def design_files(draw):
    """A random design, sometimes with a grouping and a colouring."""
    v = draw(st.integers(2, 12))
    blocks = draw(st.lists(
        st.sets(st.integers(0, v - 1), min_size=2, max_size=min(v, 5)).map(tuple),
        max_size=20,
    ))
    design = Design(v, tuple(blocks), draw(st.integers(1, 3)))
    grouping = colouring = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 3), min_size=v, max_size=v))
        grouping = Grouping(v, tuple(
            tuple(p for p in range(v) if labels[p] == label) for label in set(labels)
        ))
    if draw(st.booleans()):
        c = draw(st.integers(1, 11))
        colouring = Colouring(c, tuple(draw(st.lists(st.integers(0, c - 1), min_size=v, max_size=v))))
    return design, grouping, colouring


@settings(max_examples=150, deadline=None)
@given(design_files(), st.randoms(use_true_random=False))
def test_shuffled_block_lines_parse_to_the_same_design(parts, rng):
    text = render_design(*parts)
    assert parse_design(text) == parts
    assert render_design(*parse_design(text)) == text
    lines = text.splitlines(keepends=True)
    blocks = [i for i, line in enumerate(lines) if line.startswith("block:")]
    shuffled = [lines[i] for i in blocks]
    rng.shuffle(shuffled)
    for i, line in zip(blocks, shuffled):
        lines[i] = line
    assert parse_design("".join(lines)) == parts


class TestParseErrors:
    @pytest.mark.parametrize("text, line_no, msg", PARSE_ERRORS)
    def test_message_and_line(self, text, line_no, msg):
        with pytest.raises(ParseError) as err:
            parse_design(text)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: {msg}"

    def test_tokens_int_accepts(self):
        # a sign, Unicode digits, tabs and no space after the tag parse as before
        text = HEADER + "block: +0 1 \uff13\nblock:0\t1  2\n  block: 1 2 3\n"
        design, _, _ = parse_design(text)
        assert design.blocks == ((0, 1, 2), (0, 1, 3), (1, 2, 3))
        # tokens that are no canonical point name take the int() path
        text = "design v=12 k=3 lambda=1\nblock: 01 +2 1_0\nblock: \uff10 \uff11 \uff11\uff11\n"
        design, _, _ = parse_design(text)
        assert design.blocks == ((0, 1, 11), (1, 2, 10))

    def test_points_share_one_int(self):
        text = "design v=999 k=2 lambda=1\n" + "".join(f"block: {p} 500\n" for p in range(100))
        design, _, _ = parse_design(text)
        assert len({id(blk[1]) for blk in design.blocks}) == 1

    def test_duplicate_point_names_line(self):
        text = "design v=4 k=3 lambda=1\nblock: 0 1 1\n"
        with pytest.raises(ParseError) as err:
            parse_design(text)
        assert err.value.line_no == 2

    def test_out_of_range_point(self):
        with pytest.raises(ParseError):
            parse_design("design v=3 k=3 lambda=1\nblock: 0 1 5\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_design("block: 0 1 2\n")

    def test_bad_k_header(self):
        with pytest.raises(ParseError):
            parse_design("design v=4 k=4 lambda=1\nblock: 0 1 2\n")

    def test_unsorted_block(self):
        with pytest.raises(ParseError):
            parse_design("design v=4 k=3 lambda=1\nblock: 2 1 0\n")

    def test_colouring_needs_every_point(self):
        text = "design v=3 k=2 lambda=1\nblock: 0 1\ncolouring c=2\ncolour: 0 1\n"
        with pytest.raises(ParseError):
            parse_design(text)

    def test_colour_lines_out_of_order(self):
        text = "design v=3 k=2 lambda=1\nblock: 0 1\ncolouring c=2\ncolour: 0 1\ncolour: 2 0\ncolour: 1 1\n"
        with pytest.raises(ParseError, match="every point once, ascending"):
            parse_design(text)

    def test_huge_header_order_with_colour_lines(self):
        # The colour lines are compared one by one, so nothing of size v
        # is allocated before the file is rejected.
        text = f"design v={2**62} k=2 lambda=1\ncolouring c=2\ncolour: 0 1\n"
        with pytest.raises(ParseError, match="every point once, ascending"):
            parse_design(text)

    def test_huge_header_order_with_block_lines(self):
        # The point-name table has min(v, len(text)) entries, so a huge v
        # costs memory in proportion to the text only.
        text = f"design v={2**62} k=3 lambda=1\n" + "".join(
            f"block: {i} {i + 1} {i + 2}\n" for i in range(0, 3000, 3)
        )
        tracemalloc.start()
        try:
            design, _, _ = parse_design(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert design.v == 2**62 and design.b == 1000
        assert peak < 200 * len(text)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ndesign v=3 k=3 lambda=1\nblock: 0 1 2  # the only block\n"
        design, _, _ = parse_design(text)
        assert design.b == 1
