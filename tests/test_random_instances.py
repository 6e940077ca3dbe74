"""Randomized cross-checks: solver vs enumeration, validators vs pair
loops, files vs round-trip."""
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designcolour import (
    Colouring,
    Design,
    Grouping,
    Violation,
    check_block_equitable,
    check_group_colouring,
    check_weak,
    decide_colourable,
    admissible,
    catalog_get,
    parse_design,
    render_design,
    validate_bibd,
    validate_gdd,
    validate_packing,
)
from designcolour.transforms import delete_point


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
        ("group-monochromatic", "group-monochromatic"),
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
    "group-monochromatic": lambda d, g, col: check_group_colouring(d, g, col, "group-monochromatic"),
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


# Reference validators: the O(v^2) pair loops the validators used before
# they counted pairs once per block.  Each returns (violations, details,
# leave edges or None).


def oracle_pair_counts(d):
    counts = {}
    for blk in d.blocks:
        for pair in combinations(blk, 2):
            counts[pair] = counts.get(pair, 0) + 1
    return counts


def oracle_bibd(d):
    violations = []
    if not d.uniform:
        violations.append(Violation("nonuniform-blocks", tuple(sorted({len(b) for b in d.blocks}))))
    counts = oracle_pair_counts(d)
    for pair in combinations(range(d.v), 2):
        got = counts.get(pair, 0)
        if got != d.lambda_:
            violations.append(Violation("pair-multiplicity", (pair, got)))
    details = {
        "v": d.v,
        "k": d.k,
        "lambda": d.lambda_,
        "blocks": d.b,
        "admissible": admissible(d.v, 1, d.k, d.lambda_) if d.v >= 2 and d.k >= 2 else False,
    }
    return violations, details, None


def oracle_gdd(d, g):
    violations = []
    gi = g.group_index
    for bi, blk in enumerate(d.blocks):
        used = {}
        for p in blk:
            grp = gi[p]
            if grp in used:
                violations.append(Violation("within-group-pair-in-block", (bi, blk, (used[grp], p))))
            else:
                used[grp] = p
    counts = oracle_pair_counts(d)
    for pair in combinations(range(d.v), 2):
        got = counts.get(pair, 0)
        if gi[pair[0]] != gi[pair[1]] and got != d.lambda_:
            violations.append(Violation("cross-pair-multiplicity", (pair, got)))
    uniform = g.uniform_size is not None
    details = {
        "v": d.v,
        "k": d.k,
        "lambda": d.lambda_,
        "blocks": d.b,
        "u": g.u,
        "uniform-groups": uniform,
    }
    if uniform and d.k >= 2:
        details["admissible"] = admissible(g.u, g.uniform_size, d.k, d.lambda_)
    return violations, details, None


def oracle_packing(d):
    violations = []
    if not d.uniform:
        violations.append(Violation("nonuniform-blocks", tuple(sorted({len(b) for b in d.blocks}))))
    counts = oracle_pair_counts(d)
    for pair, got in sorted(counts.items()):
        if got > d.lambda_:
            violations.append(Violation("pair-multiplicity", (pair, got)))
    edges = None
    if d.lambda_ == 1:
        edges = frozenset(pair for pair in combinations(range(d.v), 2) if pair not in counts)
    details = {"v": d.v, "k": d.k, "lambda": d.lambda_, "blocks": d.b, "size": d.b}
    return violations, details, edges


@st.composite
def validator_cases(draw):
    """A design with a grouping: either random blocks (mixed sizes,
    repeated and over-covered pairs, within-group pairs) or a relabelled
    BIBD or GDD, possibly with lambda 2 and a block dropped or repeated."""
    if draw(st.booleans()):
        v = draw(st.integers(2, 9))
        blocks = draw(st.lists(
            st.lists(st.integers(0, v - 1), min_size=2, max_size=min(v, 5), unique=True),
            max_size=14,
        ))
        labels = draw(st.lists(st.integers(0, 3), min_size=v, max_size=v))
        lambda_ = draw(st.integers(1, 2))
    else:
        name = draw(st.sampled_from(["sts7", "sts9", "td44", "sts13-point"]))
        if name == "sts13-point":
            design, grouping = delete_point(catalog_get("sts13").design, 12)
        else:
            entry = catalog_get(name)
            design, grouping = entry.design, entry.grouping
        v, blocks = design.v, design.blocks
        labels = list(grouping.group_index) if grouping else list(range(v))
        lambda_ = draw(st.integers(1, 2))
        blocks = list(blocks) * lambda_
        perm = draw(st.permutations(range(v)))
        blocks = [tuple(perm[p] for p in blk) for blk in blocks]
        labels = [labels[perm.index(p)] for p in range(v)]
        edit = draw(st.sampled_from(["none", "drop", "repeat"]))
        if edit != "none" and blocks:
            i = draw(st.integers(0, len(blocks) - 1))
            if edit == "drop":
                del blocks[i]
            else:
                blocks.append(blocks[i])
    groups = {}
    for p, label in enumerate(labels):
        groups.setdefault(label, []).append(p)
    return Design(v, tuple(map(tuple, blocks)), lambda_), Grouping(v, tuple(map(tuple, groups.values())))


@settings(max_examples=300, deadline=None)
@given(validator_cases())
def test_validators_match_pair_loops(case):
    design, grouping = case
    for (report, leave), expected in [
        ((validate_bibd(design), None), oracle_bibd(design)),
        ((validate_gdd(design, grouping), None), oracle_gdd(design, grouping)),
        (validate_packing(design), oracle_packing(design)),
    ]:
        violations, details, edges = expected
        assert report.violations == tuple(violations)
        assert report.details == details
        if edges is None:
            assert leave is None
        else:
            assert leave.edges == edges
            assert leave.edge_count == len(edges)
    assert design.pair_multiplicities() == oracle_pair_counts(design)
