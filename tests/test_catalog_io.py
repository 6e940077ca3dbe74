"""Catalog integrity and the design file format round-trips."""
import pytest

from designcolour import (
    Colouring,
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


class TestParseErrors:
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

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ndesign v=3 k=3 lambda=1\nblock: 0 1 2  # the only block\n"
        design, _, _ = parse_design(text)
        assert design.b == 1
