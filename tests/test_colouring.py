"""Colouring predicates and pair statistics against enumeration oracles."""
from fractions import Fraction
from itertools import combinations, product
from math import comb

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designcolour.colouring as colouring_module

from designcolour import (
    Colouring,
    Design,
    DesignError,
    Grouping,
    InstanceTooLargeError,
    PairStats,
    brute_min_monochrome,
    catalog_get,
    check_block_equitable,
    check_colouring,
    check_group_colouring,
    check_weak,
    count_monochrome_cross_pairs,
    pair_stats_equitable,
)
from designcolour.colouring import GROUP_MODES, MODES
from designcolour.core import Violation
from designcolour.packings import max_equitable_packing, pack_from_pairs, pairs_for_s
from designcolour.td import build_td
from designcolour.transforms import delete_point


def min_mono_by_partitions(mu, c):
    """Independent oracle: minimum monochrome pairs over class-size splits."""

    def partitions(total, parts, cap):
        if parts == 1:
            if total <= cap:
                yield (total,)
            return
        for first in range(min(total, cap), -1, -1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    best = None
    attaining = []
    for sizes in partitions(mu, c, mu):
        mono = sum(comb(s, 2) for s in sizes)
        if best is None or mono < best:
            best, attaining = mono, [sizes]
        elif mono == best:
            attaining.append(sizes)
    return best, attaining


class TestColouring:
    @pytest.mark.parametrize("colour", [0.5, 1.0, "1", None])
    def test_rejects_a_colour_that_is_not_an_int(self, colour):
        with pytest.raises(DesignError, match=r"^point 0 has colour .+, which is not an integer$"):
            Colouring(2, (colour, 1, 0, 1))

    def test_rejects_a_colour_outside_the_palette(self):
        with pytest.raises(DesignError, match=r"^point 1 has colour 2 outside \[0, 2\)$"):
            Colouring(2, (0, 2))


class TestPairStats:
    def test_mu5_c2(self):
        stats = pair_stats_equitable(5, 2)
        assert (stats.nm, stats.m) == (6, 4)
        assert stats.pm == Fraction(2, 5)

    def test_mu4_c2(self):
        stats = pair_stats_equitable(4, 2)
        assert (stats.nm, stats.m) == (4, 2)
        assert stats.pm == Fraction(1, 3)

    @pytest.mark.parametrize("c", [2, 3, 5, 9])
    def test_mu_equals_c(self, c):
        stats = pair_stats_equitable(c, c)
        assert stats.m == 0 and stats.pm == 0

    def test_rejects_degenerate(self):
        with pytest.raises(DesignError):
            pair_stats_equitable(1, 2)
        with pytest.raises(DesignError):
            pair_stats_equitable(4, 1)

    @given(st.integers(2, 40), st.integers(2, 12))
    def test_counts_sum_to_all_pairs(self, mu, c):
        stats = pair_stats_equitable(mu, c)
        assert stats.nm + stats.m == comb(mu, 2)

    def test_matches_partition_minimum_up_to_12(self):
        for mu in range(2, 13):
            for c in range(2, mu + 1):
                best, attaining = min_mono_by_partitions(mu, c)
                stats = pair_stats_equitable(mu, c)
                assert stats.m == best, (mu, c)
                # minimum attained only by the point-equitable split
                equitable = tuple(
                    sorted((mu // c + (1 if i < mu % c else 0) for i in range(c)), reverse=True)
                )
                assert attaining == [equitable], (mu, c)

    def test_monotone_step_property(self):
        for c in range(2, 11):
            for mu in range(2, 200):
                now = pair_stats_equitable(mu, c).pm
                nxt = pair_stats_equitable(mu + 1, c).pm
                if (mu + 1) % c == 0 or mu < c:
                    assert nxt == now, (mu, c)
                else:
                    assert nxt > now, (mu, c)


class TestCheckWeak:
    def test_all_one_colour_lists_every_block(self):
        d = catalog_get("sts7").design
        report = check_weak(d, Colouring(2, (0,) * 7))
        assert not report.passed
        assert len(report.violations) == d.b

    def test_td33_mono_groups_three_colours(self):
        d, g = build_td(3, 3)
        col = Colouring(3, tuple(g.group_index))
        assert check_weak(d, col).passed


class TestCheckBlockEquitable:
    def test_td44_colouring_is_group_but_not_block_equitable(self):
        # The stored TD(4,4) colouring balances every group, not every
        # block: the block through the four 0-symbols splits 3:1.
        entry = catalog_get("td44")
        assert check_group_colouring(
            entry.design, entry.grouping, entry.colouring, "group-equitable"
        ).passed
        report = check_block_equitable(entry.design, entry.colouring)
        assert not report.passed

    def test_td_banded_colouring_is_block_equitable(self):
        from designcolour.packings import td_packing_coloured

        packed = td_packing_coloured(4, 4, 2)
        assert check_block_equitable(packed.design, packed.colouring).passed

    def test_k3_c2_equivalent_to_weak(self):
        d = catalog_get("sts7").design
        for bits in product(range(2), repeat=7):
            col = Colouring(2, bits)
            assert check_block_equitable(d, col).passed == check_weak(d, col).passed

    def test_unused_colour_fails_when_floor_positive(self):
        d = Design(4, ((0, 1, 2, 3),))
        col = Colouring(2, (0, 0, 0, 0))
        report = check_block_equitable(d, col)
        assert not report.passed

    def test_pack_from_pairs_splits(self):
        packed = pack_from_pairs(pairs_for_s(2))
        assert check_block_equitable(packed.design, packed.colouring).passed


class TestCheckGroupColouring:
    def test_td44_group_equitable(self):
        entry = catalog_get("td44")
        report = check_group_colouring(entry.design, entry.grouping, entry.colouring, "group-equitable")
        assert report.passed

    def test_bicoloured_group_fails_monochromatic_mode(self):
        d, g = build_td(3, 3)
        assignment = list(g.group_index)
        assignment[0] = 2
        report = check_group_colouring(d, g, Colouring(3, tuple(assignment)), "group-monochromatic")
        assert any(v.kind == "group-not-monochromatic" for v in report.violations)

    def test_unknown_mode_rejected(self):
        d, g = build_td(3, 3)
        with pytest.raises(DesignError):
            check_group_colouring(d, g, Colouring(2, (0,) * 9), "sideways")

    @pytest.mark.parametrize("mode", GROUP_MODES)
    def test_details_name_the_mode(self, mode):
        entry = catalog_get("td44")
        report = check_group_colouring(entry.design, entry.grouping, entry.colouring, mode)
        assert report.details["mode"] == mode


class TestCheckColouring:
    def test_dispatch_matches_each_checker(self):
        entry = catalog_get("td44")
        d, g = entry.design, entry.grouping
        for col in (entry.colouring, Colouring(2, (0,) * d.v), Colouring(4, g.group_index)):
            expected = {
                "weak": check_weak(d, col),
                "block-equitable": check_block_equitable(d, col),
                "group-monochromatic": check_group_colouring(d, g, col, "group-monochromatic"),
                "group-equitable": check_group_colouring(d, g, col, "group-equitable"),
            }
            assert list(expected) == list(MODES)
            for mode in MODES:
                assert check_colouring(d, g, col, mode) == expected[mode]
                assert check_colouring(d, g, col, mode).details["mode"] == mode

    @pytest.mark.parametrize("mode", ["sideways", "monochromatic", "block-eq", "group-mono"])
    def test_unknown_mode_rejected(self, mode):
        entry = catalog_get("td44")
        with pytest.raises(DesignError, match="unknown colouring mode"):
            check_colouring(entry.design, entry.grouping, entry.colouring, mode)

    @pytest.mark.parametrize("mode", GROUP_MODES)
    def test_group_mode_needs_grouping(self, mode):
        entry = catalog_get("td44")
        with pytest.raises(DesignError, match="requires a grouping"):
            check_colouring(entry.design, None, entry.colouring, mode)


class TestCountMonochromeCrossPairs:
    def test_mono_groups_equitable_over_groups(self):
        d, g = delete_point(catalog_get("sts13").design, 0)  # type 2^6
        for c in (2, 3):
            group_colours = [i % c for i in range(g.u)]
            assignment = [group_colours[g.group_index[p]] for p in range(d.v)]
            stats = count_monochrome_cross_pairs(d, Colouring(c, tuple(assignment)), g)
            expected = pair_stats_equitable(g.u, c).m * 4
            assert stats.m == expected

    def test_rainbow_has_no_monochrome(self):
        d = catalog_get("sts7").design
        stats = count_monochrome_cross_pairs(d, Colouring(7, tuple(range(7))))
        assert stats.m == 0 and stats.nm == comb(7, 2)

    def test_all_colourings_of_2_4_gdd_respect_bound(self):
        d, g = delete_point(catalog_get("sts9").design, 0)  # type 2^4
        for c in (2, 3):
            floor = pair_stats_equitable(g.u, c).pm
            for assignment in product(range(c), repeat=8):
                stats = count_monochrome_cross_pairs(d, Colouring(c, assignment), g)
                assert stats.pm >= floor


class TestBruteMinMonochrome:
    def test_td33_attains_group_monochromatic_minimum(self):
        d, g = build_td(3, 3)
        minimum, witness = brute_min_monochrome(d, g, 2)
        expected = pair_stats_equitable(3, 2).m * 9
        assert minimum == expected == 9
        mono_group = Colouring(2, (0,) * 3 + (0,) * 3 + (1,) * 3)
        assert count_monochrome_cross_pairs(d, mono_group, g).m == minimum

    def test_many_colours_reach_zero(self):
        d, g = build_td(3, 3)
        minimum, witness = brute_min_monochrome(d, g, 9, limit_bits=30)
        assert minimum == 0

    def test_2_4_gdd_matches_formula(self):
        d, g = delete_point(catalog_get("sts9").design, 0)
        minimum, _ = brute_min_monochrome(d, g, 2)
        assert minimum == pair_stats_equitable(4, 2).m * 4 == 8

    def test_witness_is_lexicographically_least(self):
        d, g = build_td(3, 3)
        minimum, witness = brute_min_monochrome(d, g, 2)
        best = None
        for assignment in product(range(2), repeat=9):
            stats = count_monochrome_cross_pairs(d, Colouring(2, assignment), g)
            if stats.m == minimum:
                best = assignment
                break
        assert witness.assignment == best

    def test_guard_rejects_large_instances(self):
        d, g = build_td(4, 7)
        with pytest.raises(InstanceTooLargeError):
            brute_min_monochrome(d, g, 3)

    def test_one_colour_needs_no_search(self):
        # the all-zero colouring is the only one, so every cross-group pair
        # is monochrome; 2,000 points would be 2,000 levels of search
        d, g = build_td(3, 3)
        minimum, witness = brute_min_monochrome(d, g, 1)
        assert minimum == count_monochrome_cross_pairs(d, witness, g).m == 27
        v = 2000
        g = Grouping(v, (tuple(range(0, v, 2)), tuple(range(1, v, 2))))
        minimum, witness = brute_min_monochrome(Design(v, ((0, 1),)), g, 1)
        assert minimum == (v // 2) ** 2
        assert witness == Colouring(1, (0,) * v)


@settings(max_examples=40)
@given(st.integers(2, 9), st.data())
def test_group_counts_consistency(v, data):
    c = data.draw(st.integers(2, 4))
    assignment = tuple(data.draw(st.integers(0, c - 1)) for _ in range(v))
    col = Colouring(c, assignment)
    stats = count_monochrome_cross_pairs(Design(v, ()), col)
    mono = sum(1 for p, q in combinations(range(v), 2) if assignment[p] == assignment[q])
    assert stats.m == mono
    assert stats.total == comb(v, 2)


@settings(max_examples=80)
@given(st.integers(1, 10), st.data())
def test_grouped_counts_match_brute_force(v, data):
    c = data.draw(st.integers(1, 4))
    assignment = tuple(data.draw(st.lists(st.integers(0, c - 1), min_size=v, max_size=v)))
    labels = data.draw(st.lists(st.integers(0, 3), min_size=v, max_size=v))
    groups = {}
    for p, label in enumerate(labels):
        groups.setdefault(label, []).append(p)
    g = Grouping(v, tuple(map(tuple, groups.values())))
    cross = [(p, q) for p, q in combinations(range(v), 2) if labels[p] != labels[q]]
    mono = sum(1 for p, q in cross if assignment[p] == assignment[q])
    pm = Fraction(mono, len(cross)) if cross else Fraction(0)
    assert count_monochrome_cross_pairs(Design(v, ()), Colouring(c, assignment), g) == (
        PairStats(len(cross) - mono, mono, pm)
    )


def test_pair_counts_reject_mismatched_point_counts():
    with pytest.raises(DesignError, match="^colouring is over a different point count$"):
        count_monochrome_cross_pairs(Design(5, ()), Colouring(2, (0,) * 4), Grouping(4, ((0, 1), (2, 3))))
    with pytest.raises(DesignError, match="^grouping is over a different point count$"):
        count_monochrome_cross_pairs(Design(4, ()), Colouring(2, (0,) * 4), Grouping(5, ((0, 1), (2, 3, 4))))


def equitable_violations_by_counting(kind, sets, a, c):
    """Oracle: every set's colour counts, counted point by point."""
    violations = []
    for i, members in enumerate(sets):
        s = len(members)
        lo, hi = s // c, -(-s // c)
        counts = [0] * c
        for p in members:
            counts[a[p]] += 1
        for colr, n in enumerate(counts):
            if not lo <= n <= hi:
                violations.append(Violation(kind, (i, members, colr, n)))
    return violations


@st.composite
def sets_and_colourings(draw):
    """Mixed-size blocks and a grouping on points coloured round robin
    along runs of consecutive points, so most blocks and groups are
    equitable, then relabelled and with a few points flipped; or a random
    colouring from part of the palette."""
    rng = draw(st.randoms(use_true_random=False))
    v = draw(st.integers(2, 16))
    sizes = draw(st.lists(st.integers(2, min(v, 7)), min_size=1, max_size=12))
    c = draw(st.sampled_from([*range(1, max(sizes) + 4), 50]))
    palette = rng.sample(range(c), rng.randint(1, c))
    if draw(st.booleans()):
        a = [palette[p % len(palette)] for p in range(v)]
        for p in rng.sample(range(v), rng.randint(0, min(3, v))):
            a[p] = rng.randrange(c)
    else:
        a = [rng.choice(palette) for _ in range(v)]
    starts = [rng.randrange(v - s + 1) for s in sizes]
    blocks = [tuple(range(p, p + s)) for p, s in zip(starts, sizes)]
    cuts = sorted(rng.sample(range(1, v), rng.randint(0, v - 1)))
    groups = [tuple(range(p, q)) for p, q in zip([0, *cuts], [*cuts, v])]
    label = rng.sample(range(v), v)
    assignment = [0] * v
    for p, colr in enumerate(a):
        assignment[label[p]] = colr
    design = Design(v, tuple(tuple(label[p] for p in blk) for blk in blocks))
    grouping = Grouping(v, tuple(tuple(label[p] for p in grp) for grp in groups))
    return design, grouping, Colouring(c, tuple(assignment))


@settings(max_examples=300, deadline=None)
@given(sets_and_colourings(), st.booleans())
def test_equitable_checks_match_counting(parts, count_every_set):
    # count_every_set turns the code sums off, as for a huge palette
    d, g, col = parts
    a = col.assignment
    saved = colouring_module._MAX_CODE_BITS
    colouring_module._MAX_CODE_BITS = -1 if count_every_set else saved
    try:
        block_report = check_block_equitable(d, col)
        group_report = check_group_colouring(d, g, col, "group-equitable")
    finally:
        colouring_module._MAX_CODE_BITS = saved
    assert block_report.violations == tuple(
        equitable_violations_by_counting("block-colour-count", d.blocks, a, col.c)
    )
    assert group_report.violations == check_weak(d, col).violations + tuple(
        equitable_violations_by_counting("group-colour-count", g.groups, a, col.c)
    )


def test_block_equitable_check_of_the_986_packing_with_1000_colours():
    d = max_equitable_packing(986).design
    rng = random.Random(986)
    col = Colouring(1000, tuple(rng.randrange(1000) for _ in range(d.v)))
    expected = equitable_violations_by_counting("block-colour-count", d.blocks, col.assignment, 1000)
    assert expected
    assert check_block_equitable(d, col).violations == tuple(expected)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.integers(1, 3), st.data())
def test_weak_check_matches_comparing_every_point(v, c, data):
    # mixed block sizes and at most three colours, so blocks whose first
    # and last points share a colour while a middle point does not are
    # common
    blocks = data.draw(
        st.lists(st.lists(st.integers(0, v - 1), min_size=2, max_size=min(v, 6), unique=True), max_size=12)
    )
    a = tuple(data.draw(st.lists(st.integers(0, c - 1), min_size=v, max_size=v)))
    d = Design(v, tuple(map(tuple, blocks)))
    expected = tuple(
        Violation("monochromatic-block", (bi, blk))
        for bi, blk in enumerate(d.blocks)
        if all(a[p] == a[blk[0]] for p in blk)
    )
    assert check_weak(d, Colouring(c, a)).violations == expected
