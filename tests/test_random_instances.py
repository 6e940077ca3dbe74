"""Randomized cross-checks: solver vs enumeration, files vs round-trip."""
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designcolour import (
    Colouring,
    Design,
    Grouping,
    check_block_equitable,
    check_group_colouring,
    check_weak,
    decide_colourable,
    parse_design,
    render_design,
    validate_packing,
)


@st.composite
def small_designs(draw):
    v = draw(st.integers(4, 8))
    k = draw(st.integers(2, min(4, v)))
    pool = list(combinations(range(v), k))
    count = draw(st.integers(1, min(6, len(pool))))
    indices = draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=count, max_size=count, unique=True)
    )
    return Design(v, tuple(pool[i] for i in indices))


@settings(max_examples=60, deadline=None)
@given(small_designs(), st.integers(1, 3))
def test_weak_verdict_matches_enumeration(design, c):
    expected = any(
        check_weak(design, Colouring(c, assignment)).passed
        for assignment in product(range(c), repeat=design.v)
    )
    assert decide_colourable(design, None, c, "weak").colourable == expected


@settings(max_examples=40, deadline=None)
@given(small_designs(), st.integers(2, 3))
def test_block_equitable_verdict_matches_enumeration(design, c):
    expected = any(
        check_block_equitable(design, Colouring(c, assignment)).passed
        for assignment in product(range(c), repeat=design.v)
    )
    assert decide_colourable(design, None, c, "block-equitable").colourable == expected


@settings(max_examples=40, deadline=None)
@given(small_designs(), st.data())
def test_group_modes_match_enumeration(design, data):
    cut = data.draw(st.integers(1, design.v - 1))
    grouping = Grouping(design.v, (tuple(range(cut)), tuple(range(cut, design.v))))
    c = data.draw(st.integers(2, 3))
    for mode, checker in [
        ("group-monochromatic", "monochromatic"),
        ("group-equitable", "group-equitable"),
    ]:
        expected = any(
            check_group_colouring(design, grouping, Colouring(c, assignment), checker).passed
            for assignment in product(range(c), repeat=design.v)
        )
        got = decide_colourable(design, grouping, c, mode).colourable
        assert got == expected, mode


WITNESS_CHECKS = {
    "weak": lambda d, g, col: check_weak(d, col),
    "block-equitable": lambda d, g, col: check_block_equitable(d, col),
    "group-monochromatic": lambda d, g, col: check_group_colouring(d, g, col, "monochromatic"),
    "group-equitable": lambda d, g, col: check_group_colouring(d, g, col, "group-equitable"),
}


@pytest.mark.parametrize("mode", list(WITNESS_CHECKS))
@settings(max_examples=100, deadline=None)
@given(design=small_designs(), data=st.data())
def test_witness_is_lexicographically_least(mode, design, data):
    # The search pass branches on the most-constrained variable; the
    # witness must still be the first valid assignment in point-major
    # lexicographic order, or None when there is none.
    cut = data.draw(st.integers(1, design.v - 1))
    grouping = Grouping(design.v, (tuple(range(cut)), tuple(range(cut, design.v))))
    c = data.draw(st.integers(2, 3))
    check = WITNESS_CHECKS[mode]
    expected = next(
        (
            assignment
            for assignment in product(range(c), repeat=design.v)
            if check(design, grouping, Colouring(c, assignment)).passed
        ),
        None,
    )
    result = decide_colourable(design, grouping, c, mode)
    got = result.witness.assignment if result.colourable else None
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(small_designs())
def test_file_round_trip(design):
    text = render_design(design)
    parsed, grouping, colouring = parse_design(text)
    assert parsed == design and grouping is None and colouring is None
    assert render_design(parsed) == text


@settings(max_examples=30, deadline=None)
@given(small_designs())
def test_packing_report_consistent_with_leave(design):
    report, leave = validate_packing(design)
    if report.passed:
        covered = set()
        for blk in design.blocks:
            covered.update(combinations(blk, 2))
        assert leave.edge_count == len(list(combinations(range(design.v), 2))) - len(covered)
