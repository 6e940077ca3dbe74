"""Acceptance criteria, one test per criterion, exact tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 4 checks the order-21 (chi, chi_M) histogram against
an oracle computed in the test, and shows that the published split cannot
come from the stored STS(21); tests/test_parallel.py::TestAnalysis::
test_sts21_histogram_as_computed pins the histogram the stored block list
yields.
"""
import time
from collections import Counter
from itertools import combinations, product
from math import comb

from designcolour import (
    Grouping,
    SearchBudget,
    Unachievable,
    analyze_parallel_classes,
    blow_up,
    bound_general,
    bound_max_equitable,
    catalog_get,
    check_block_equitable,
    check_group_colouring,
    check_weak,
    chromatic_number,
    decide_colourable,
    delete_point,
    enumerate_parallel_classes,
    equitable_gdd_colouring,
    group_equitable_blowup,
    max_equitable_packing,
    pack_from_pairs,
    pair_stats_equitable,
    pairs_for_s,
    pc_to_gdd,
    td_group_equitable_colouring,
    validate_bibd,
    validate_packing,
    verify_pairs_profile,
)
from designcolour.catalog import STS21_TOP_ROW
from designcolour.solver import NOT_COLOURABLE
from designcolour.td import build_td
from designcolour.transforms import NONEXISTENT, ParallelClass


def report(number: int, description: str) -> None:
    print(f"PASS: criterion {number} - {description}")


def top_row_class():
    sts21 = catalog_get("sts21").design
    indices = tuple(sorted(sts21.blocks.index(tuple(sorted(b))) for b in STS21_TOP_ROW))
    return sts21, ParallelClass(indices)


def test_criterion_01_sts21_integrity():
    start = time.monotonic()
    entry = catalog_get("sts21")
    assert entry.design.b == 70
    result = validate_bibd(entry.design)
    assert result.passed
    assert time.monotonic() - start < 1.0
    report(1, "catalog STS(21) has 70 blocks and every pair exactly once")


def test_criterion_02_parallel_class_count():
    start = time.monotonic()
    classes, truncated = enumerate_parallel_classes(catalog_get("sts21").design)
    assert not truncated
    assert len(classes) == 130
    assert time.monotonic() - start < 10.0
    report(2, "STS(21) has exactly 130 distinct parallel classes")


def test_criterion_03_sts21_chromatic_number():
    start = time.monotonic()
    result = chromatic_number(catalog_get("sts21").design)
    assert result.chi == 4
    assert result.refutation is not None
    assert result.refutation.c == 3
    assert result.refutation.status == NOT_COLOURABLE
    assert result.refutation.nodes > 0
    assert check_weak(catalog_get("sts21").design, result.witness).passed
    assert time.monotonic() - start < 300.0
    report(3, "chi(STS(21)) = 4 with an exhaustion certificate at c = 3")


# The order-21 (chi, chi_M) split the paper publishes.
PUBLISHED_ORDER21_HISTOGRAM = {(3, 3): 70, (3, 4): 60}

# Two automorphisms of the stored STS(21), as point maps p -> g[p].  The
# group they generate has order 108 and splits the 130 parallel classes into
# orbits of sizes 1, 3, 9, 9 and 108.
STS21_AUTOMORPHISMS = (
    (0, 1, 2, 3, 4, 5, 18, 20, 19, 9, 10, 11, 15, 17, 16, 12, 14, 13, 6, 8, 7),
    (6, 8, 7, 3, 5, 4, 1, 0, 2, 12, 14, 13, 10, 9, 11, 16, 15, 17, 19, 18, 20),
)


def group_quotient_chi(sts, pc) -> tuple[int, int]:
    """(chi, chi_M) of the GDD a parallel class of an STS induces, without
    taking either value from the solver.

    chi_M: the groups are the vertices and every GDD block is the triple of
    groups it meets; the least c for which one of the c^u colourings of the
    groups leaves no triple monochromatic.

    chi = 3: no 2-colouring exists, because a block that is not
    monochromatic holds exactly two bichromatic pairs, no two blocks share a
    pair, and a 2-colouring of v points has at most v^2/4 bichromatic pairs;
    and the solver's 3-colouring, checked here, leaves no block monochromatic.
    """
    gdd, _ = pc_to_gdd(sts, pc)
    group_of = {p: g for g, bi in enumerate(pc.block_indices) for p in sts.blocks[bi]}
    triples = {tuple(sorted({group_of[p] for p in blk})) for blk in gdd.blocks}
    assert all(len(t) == 3 for t in triples)
    u = len(pc.block_indices)
    chi_m = next(
        c
        for c in range(1, u + 1)
        for col in product(range(c), repeat=u)
        if all(col[x] != col[y] or col[x] != col[z] for x, y, z in triples)
    )
    pairs = [pair for blk in gdd.blocks for pair in combinations(blk, 2)]
    assert len(set(pairs)) == len(pairs)
    assert 2 * gdd.b > gdd.v * gdd.v // 4, "a 2-colouring is not ruled out"
    witness = decide_colourable(gdd, None, 3, "weak").witness
    assert witness is not None, "no weak 3-colouring found"
    assert all(len({witness.assignment[p] for p in blk}) > 1 for blk in gdd.blocks)
    return 3, chi_m


def class_orbits(design, classes, generators) -> list[set[int]]:
    """Orbits of the parallel classes (as indices into `classes`) under the
    permutation group the generators span; each generator must be an
    automorphism of the design."""
    block_index = {frozenset(blk): bi for bi, blk in enumerate(design.blocks)}
    for g in generators:
        assert all(frozenset(g[p] for p in blk) in block_index for blk in design.blocks), (
            "not an automorphism: the stored block list changed, so check it "
            "against the published split again"
        )
    group = {tuple(range(design.v))}
    frontier = list(group)
    while frontier:
        h = frontier.pop()
        for g in generators:
            gh = tuple(g[h[p]] for p in range(design.v))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    class_index = {frozenset(pc.block_indices): i for i, pc in enumerate(classes)}

    def image(h, pc) -> int:
        return class_index[
            frozenset(
                block_index[frozenset(h[p] for p in design.blocks[bi])]
                for bi in pc.block_indices
            )
        ]

    orbits: list[set[int]] = []
    for i, pc in enumerate(classes):
        if not any(i in orbit for orbit in orbits):
            orbits.append({image(h, pc) for h in group})
    return orbits


def test_criterion_04_table2_order21_histogram():
    start = time.monotonic()
    sts21 = catalog_get("sts21").design
    classes, truncated = enumerate_parallel_classes(sts21)
    assert not truncated
    analysis = analyze_parallel_classes(sts21, SearchBudget())
    assert not any(r.budget_exceeded for r in analysis.records)
    histogram = analysis.histogram_dict()
    assert sum(histogram.values()) == len(classes) == 130

    expected = [group_quotient_chi(sts21, pc) for pc in classes]
    assert [r.class_index for r in analysis.records] == list(range(len(classes)))
    assert [(r.chi, r.chi_m) for r in analysis.records] == expected
    assert histogram == dict(Counter(expected))

    # Every automorphism maps parallel classes to parallel classes with the
    # same GDD up to relabelling, so (chi, chi_M) is constant on each orbit
    # and every histogram count is a sum of orbit sizes.  The published
    # counts are not, so no structural reading of chi_M yields them here.
    orbits = class_orbits(sts21, classes, STS21_AUTOMORPHISMS)
    assert sorted(map(len, orbits)) == [1, 3, 9, 9, 108]
    assert all(len({expected[i] for i in orbit}) == 1 for orbit in orbits)
    orbit_sums = {0}
    for orbit in orbits:
        orbit_sums |= {s + len(orbit) for s in orbit_sums}
    for key, count in PUBLISHED_ORDER21_HISTOGRAM.items():
        assert count not in orbit_sums, key
    assert time.monotonic() - start < 10.0
    report(
        4,
        f"order-21 histogram {histogram} matches the group-quotient oracle; "
        f"the published {PUBLISHED_ORDER21_HISTOGRAM} is no sum of class-orbit sizes",
    )


def test_criterion_05_top_row_worked_example():
    start = time.monotonic()
    sts21, pc = top_row_class()
    gdd, grouping = pc_to_gdd(sts21, pc)
    assert chromatic_number(gdd).chi == 3
    assert chromatic_number(gdd, grouping, "group-monochromatic").chi == 4
    assert time.monotonic() - start < 60.0
    report(5, "top-row class: chi = 3 and monochromatic-group chi = 4")


def test_criterion_06_packing_sweep_to_120():
    start = time.monotonic()
    for v in range(0, 121):
        result = max_equitable_packing(v)
        bound = bound_max_equitable(v, 4, 2)
        if v in (6, 8, 9, 10):
            assert isinstance(result, Unachievable), v
            continue
        packing_report, _ = validate_packing(result.design)
        assert packing_report.passed, v
        assert check_block_equitable(result.design, result.colouring).passed, v
        assert result.design.v == v and result.size == bound.value, v
    assert time.monotonic() - start < 60.0
    report(6, "maximum coloured packings match the bound for all v <= 120")


def test_criterion_07_pairs_profile_sweep():
    start = time.monotonic()
    for s in range(2, 61):
        profile = pairs_for_s(s)
        assert verify_pairs_profile(profile).passed, s
        packed = pack_from_pairs(profile)
        assert packed.size == 4 * s * s + 2 * s, s
        packing_report, _ = validate_packing(packed.design)
        assert packing_report.passed, s
        assert check_block_equitable(packed.design, packed.colouring).passed, s
    assert time.monotonic() - start < 60.0
    report(7, "difference profiles verify and pack for all 2 <= s <= 60")


def test_criterion_08_formula_oracles():
    start = time.monotonic()
    for c in range(2, 5):
        for mu in range(c, 11):
            expected = pair_stats_equitable(mu, c).m
            best = None
            attaining_sizes = set()
            for assignment in product(range(c), repeat=mu):
                sizes = [0] * c
                for colr in assignment:
                    sizes[colr] += 1
                mono = sum(comb(s, 2) for s in sizes)
                if best is None or mono < best:
                    best = mono
                    attaining_sizes = {tuple(sorted(sizes))}
                elif mono == best:
                    attaining_sizes.add(tuple(sorted(sizes)))
            assert best == expected, (mu, c)
            for sizes in attaining_sizes:
                assert max(sizes) - min(s for s in sizes) <= 1, (mu, c, sizes)
    assert time.monotonic() - start < 60.0
    report(8, "brute force confirms the monochrome-pair minimum is point-equitable only")


def test_criterion_09_equitable_gdd_iff():
    start = time.monotonic()
    sts7 = catalog_get("sts7").design
    blown = blow_up(sts7, Grouping.singletons(7), 3)
    corpus = [
        build_td(3, 3),
        build_td(4, 4),
        build_td(4, 5),
        delete_point(catalog_get("sts13").design, 0),
        pc_to_gdd(
            catalog_get("sts9").design,
            enumerate_parallel_classes(catalog_get("sts9").design)[0][0],
        ),
        (blown.design, blown.grouping),
    ]
    for design, grouping in corpus:
        u = grouping.u
        g = grouping.uniform_size
        k = design.k
        for c in range(2, min(12, design.v) + 1):
            expected = (u <= c <= u * g) or k == u or (k == u - 1 and u % c == 0)
            verdict = decide_colourable(design, grouping, c, "block-equitable")
            assert verdict.colourable == expected, (u, g, k, c)
            witness = equitable_gdd_colouring(design, grouping, c)
            if expected:
                assert witness != NONEXISTENT, (u, g, k, c)
                assert check_block_equitable(design, witness).passed, (u, g, k, c)
            else:
                assert witness == NONEXISTENT, (u, g, k, c)
    assert time.monotonic() - start < 600.0
    report(9, "equitable colourability matches the three-condition characterisation")


def test_criterion_10_transform_sandwiches():
    start = time.monotonic()
    sts13 = catalog_get("sts13").design
    for y in range(13):
        gdd, _ = delete_point(sts13, y)
        assert chromatic_number(gdd).chi == 3, y
    sts9 = catalog_get("sts9").design
    classes, _ = enumerate_parallel_classes(sts9)
    assert len(classes) == 4
    for pc in classes:
        gdd, grouping = pc_to_gdd(sts9, pc)
        assert grouping.u == 3 and grouping.uniform_size == 3
        assert chromatic_number(gdd).chi == 2
    sts7 = catalog_get("sts7").design
    blown = blow_up(sts7, Grouping.singletons(7), 3)
    assert chromatic_number(blown.design).chi == 3
    assert time.monotonic() - start < 300.0
    report(10, "point deletions, class conversions and blow-ups have the stated chi")


def test_criterion_11_group_equitable_constructions():
    start = time.monotonic()
    td54_design, td54_grouping = build_td(5, 4)
    colouring = td_group_equitable_colouring(td54_design, td54_grouping)
    assert check_group_colouring(td54_design, td54_grouping, colouring, "group-equitable").passed
    assert check_weak(td54_design, colouring).passed
    bibd = catalog_get("bibd13_4").design
    td44 = catalog_get("td44")
    design, grouping, blow_col = group_equitable_blowup(
        bibd, Grouping.singletons(13), td44.design, td44.grouping, td44.colouring
    )
    assert check_group_colouring(design, grouping, blow_col, "group-equitable").passed
    assert check_weak(design, blow_col).passed
    assert time.monotonic() - start < 60.0
    report(11, "group-equitable TD colouring and expansion both verify")


def test_criterion_12_bound_agreement():
    start = time.monotonic()
    for v in range(3, 501):
        assert bound_general(v, 3, 2)[1] == (v * v) // 8
    for v in range(4, 501):
        assert bound_general(v, 4, 2)[0] >= bound_max_equitable(v, 4, 2).value
    assert time.monotonic() - start < 1.0
    report(12, "general bound matches the closed form and dominates the tight one")
