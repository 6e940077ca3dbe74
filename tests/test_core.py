"""Structural validation against brute-force pair-count oracles."""
import tracemalloc
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from designcolour import (
    Design,
    DesignError,
    Grouping,
    UnsupportedParameterError,
    admissible,
    catalog_get,
    decide_colourable,
    is_transversal,
    validate_bibd,
    validate_gdd,
    validate_packing,
)
from designcolour import catalog, packings, solver, td, transforms
from designcolour.colouring import (
    Colouring,
    brute_min_monochrome,
    check_block_equitable,
    check_group_colouring,
    check_weak,
    count_monochrome_cross_pairs,
)
from designcolour.core import InternalConsistencyError, ValidationReport, Violation, _neighbour_masks
from designcolour.packings import max_equitable_packing, pack_4n2_odd
from designcolour.td import build_td
from designcolour.transforms import blow_up, delete_point


def brute_pair_counts(design):
    counts = Counter()
    for blk in design.blocks:
        for pair in combinations(blk, 2):
            counts[pair] += 1
    return counts


def fano():
    return Design(7, tuple(tuple(sorted(((0 + s) % 7, (1 + s) % 7, (3 + s) % 7))) for s in range(7)))


class TestDesign:
    def test_canonical_block_order(self):
        d = Design(5, ((4, 2, 3), (0, 1, 2)))
        assert d.blocks == ((0, 1, 2), (2, 3, 4))

    def test_rejects_repeated_point(self):
        with pytest.raises(DesignError):
            Design(4, ((0, 0, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(DesignError):
            Design(3, ((0, 1, 3),))

    def test_mixed_sizes_reported(self):
        d = Design(6, ((0, 1, 2), (0, 3, 4, 5)))
        assert not d.uniform
        assert d.k == 3

    def test_cached_sizes_stay_out_of_equality(self):
        read = Design(6, ((0, 3, 4, 5), (0, 1, 2)))
        assert (read.k, read.uniform) == (3, False)
        unread = Design(6, ((0, 1, 2), (0, 3, 4, 5)))
        assert read == unread and hash(read) == hash(unread)
        assert repr(read) == repr(unread)

    def test_from_canonical_matches_constructor(self):
        blocks = [(1, 3, 4), (0, 1, 2), (0, 3)]
        assert Design._from_canonical(5, blocks, 2) == Design(5, tuple(blocks), 2)
        assert Design._from_canonical(5, [], 1) == Design(5, ())
        # the checks left to it keep the constructor's messages and order
        for v, blocks, lambda_ in (
            (-1, [(2,)], 0),
            (4, [(2,)], 0),
            (4, [(0, 1), (3,), (1,)], 1),
            (4, [(0, 1), ()], 1),
        ):
            with pytest.raises(DesignError) as want:
                Design(v, tuple(blocks), lambda_)
            with pytest.raises(DesignError) as got:
                Design._from_canonical(v, blocks, lambda_)
            assert str(got.value) == str(want.value)


class TestGrouping:
    def test_partition_enforced(self):
        with pytest.raises(DesignError):
            Grouping(4, ((0, 1), (1, 2, 3)))
        with pytest.raises(DesignError):
            Grouping(4, ((0, 1),))

    @pytest.mark.parametrize(
        "v,groups,message",
        [
            (4, ((0, 1), ()), "empty group"),
            (4, ((0, 1), (1, 2, 3)), "point 1 occurs in two groups"),
            (4, ((0, 5), (1, 1)), "group point 5 out of range for v=4"),
            (4, ((0, 1), (-1, 2, 3)), "group point -1 out of range for v=4"),
            (6, ((5, 3), (3, 9)), "point 3 occurs in two groups"),
            (9, ((1, 4),), "groups do not cover points [0, 2, 3, 5, 6]"),
            (9, ((0, 1, 2, 3, 4, 5, 6),), "groups do not cover points [7, 8]"),
            (-2, (), "groups do not cover points []"),
            # would need a list of 2**62 entries if anything of size v
            # were built before the coverage check
            (2**62, ((0, 1),), "groups do not cover points [2, 3, 4, 5, 6]"),
        ],
    )
    def test_error_messages_and_precedence(self, v, groups, message):
        with pytest.raises(DesignError) as info:
            Grouping(v, groups)
        assert str(info.value) == message

    def test_canonical_order_and_index(self):
        g = Grouping(4, ((2, 3), (1, 0)))
        assert g.groups == ((0, 1), (2, 3))
        assert g.group_index == (0, 0, 1, 1)
        assert g.uniform_size == 2


class TestValidateBibd:
    def test_fano_passes_and_agrees_with_oracle(self):
        d = fano()
        counts = brute_pair_counts(d)
        assert all(counts[p] == 1 for p in combinations(range(7), 2))
        report = validate_bibd(d)
        assert report.passed
        assert report.details["admissible"]

    def test_single_block_complete_design(self):
        assert validate_bibd(Design(3, ((0, 1, 2),))).passed

    def test_sts21_catalog(self):
        d = catalog_get("sts21").design
        assert d.b == 70
        assert validate_bibd(d).passed

    def test_corrupted_block_fails_with_witness(self):
        blocks = list(fano().blocks)
        blocks[0] = (0, 1, 2)
        report = validate_bibd(Design(7, tuple(blocks)))
        assert not report.passed
        kinds = {v.kind for v in report.violations}
        assert kinds == {"pair-multiplicity"}

    @pytest.mark.parametrize("name", ["sts7", "sts9", "sts13", "sts21"])
    def test_block_count_identity(self, name):
        d = catalog_get(name).design
        assert d.b == d.v * (d.v - 1) // (d.k * (d.k - 1))


class TestValidateGdd:
    def test_td44_catalog(self):
        entry = catalog_get("td44")
        report = validate_gdd(entry.design, entry.grouping)
        assert report.passed
        assert report.details["uniform-groups"]

    def test_within_group_pair_fails(self):
        d = Design(6, ((0, 1, 2), (0, 1, 3)), 1)
        g = Grouping(6, ((0, 1), (2, 3), (4, 5)))
        report = validate_gdd(d, g)
        assert any(v.kind == "within-group-pair-in-block" for v in report.violations)

    def test_sts13_minus_point_is_2_6_gdd(self):
        sts13 = catalog_get("sts13").design
        d, g = delete_point(sts13, 4)
        counts = brute_pair_counts(d)
        gi = g.group_index
        for pair in combinations(range(12), 2):
            expected = 1 if gi[pair[0]] != gi[pair[1]] else 0
            assert counts[pair] == expected
        assert validate_gdd(d, g).passed
        assert g.u == 6 and g.uniform_size == 2

    def test_uniform_block_count_identity(self):
        d, g = build_td(4, 5)
        assert d.b == 5 * 5 * 4 * 3 // (4 * 3)


class TestValidatePacking:
    def test_pack24_catalog(self):
        d = catalog_get("pack24").design
        report, leave = validate_packing(d)
        assert report.passed and d.b == 36
        assert leave.edge_count == comb(24, 2) - 36 * comb(4, 2)

    def test_empty_block_list_leaves_complete_graph(self):
        report, leave = validate_packing(Design(5, ()))
        assert report.passed
        assert leave.edge_count == comb(5, 2)

    def test_pack_4n2_odd_size_formula(self):
        packed = pack_4n2_odd(5)
        report, _ = validate_packing(packed.design)
        assert report.passed
        assert packed.size == 5 * 5 + 5

    def test_overcovered_pair_fails(self):
        report, _ = validate_packing(Design(6, ((0, 1, 2, 3), (0, 1, 4, 5))))
        assert not report.passed
        assert report.violations[0].witness[0] == (0, 1)


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw during the call."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHostileDesigns:
    HUGE = Design(2**40, ((0, 1, 2), (3, 4, 5)))

    def test_packing_of_huge_order_allocates_no_masks(self):
        # v * v mask bits would dwarf the 6 pair keys, so the keys decide
        assert _neighbour_masks(self.HUGE) is None
        (report, leave), peak = traced_peak(validate_packing, self.HUGE)
        assert report.passed
        assert leave.v == 2**40 and leave.edge_count == comb(2**40, 2) - 6
        assert peak < 1 << 20

    def test_bibd_of_huge_order_refuses_to_list(self):
        # every one of the C(2**40, 2) - 6 uncovered pairs is a violation
        with pytest.raises(UnsupportedParameterError, match="pairs fail"):
            validate_bibd(self.HUGE)

    def test_gdd_of_huge_order_has_no_grouping(self):
        # a grouping of 2**40 points cannot be built, and a smaller one is
        # rejected before anything of size v is allocated
        with pytest.raises(DesignError, match="groups do not cover"):
            Grouping(2**40, ((0, 1, 2), (3, 4, 5)))
        with pytest.raises(DesignError, match="different point count"):
            validate_gdd(self.HUGE, Grouping(6, ((0, 1, 2), (3, 4, 5))))

    def test_point_tables_of_huge_order_are_refused(self):
        # a colouring search and a singleton grouping build an entry per
        # point, so above 2**20 points they refuse before allocating one
        with pytest.raises(UnsupportedParameterError, match="exceeds the 1048576-point limit"):
            Grouping.singletons(2**20 + 1)
        with pytest.raises(UnsupportedParameterError, match="exceeds the 1048576-point limit"):
            decide_colourable(self.HUGE, None, 2, "weak")
        assert Grouping.singletons(3).groups == ((0,), (1,), (2,))

    def test_wide_matching_stays_small(self):
        # 10**5 points on 5*10**4 disjoint pairs: v-bit masks for every
        # point would take over a GiB; the sorted keys take about 3 MiB
        matching = Design(10**5, tuple((2 * i, 2 * i + 1) for i in range(5 * 10**4)))
        assert _neighbour_masks(matching) is None
        (report, leave), peak = traced_peak(validate_packing, matching)
        assert report.passed and leave.edge_count == comb(10**5, 2) - 5 * 10**4
        assert peak < 16 << 20


def test_max_packing_validation_memory_guard():
    # The mask kernel peaks at about 80 KiB here; the sorted list of
    # 87,120 pair keys it replaced peaked at about 4,080 KiB.
    design = max_equitable_packing(482).design
    (report, leave), peak = traced_peak(validate_packing, design)
    assert report.passed and leave.edge_count == comb(482, 2) - 6 * design.b
    assert peak < 1 << 20


class TestTransversal:
    def test_td44_true(self):
        entry = catalog_get("td44")
        assert is_transversal(entry.design, entry.grouping)

    def test_2_6_gdd_false(self):
        d, g = delete_point(catalog_get("sts13").design, 0)
        assert not is_transversal(d, g)

    def test_build_td_3_3(self):
        d, g = build_td(3, 3)
        assert is_transversal(d, g)


class TestAdmissible:
    @pytest.mark.parametrize(
        "v_or_u,g,k,lam,expected",
        [
            (21, 1, 3, 1, True),
            (8, 1, 3, 1, False),
            (6, 2, 3, 1, True),
            (13, 1, 4, 1, True),
            (7, 1, 3, 2, True),
            (4, 3, 4, 1, True),
            (5, 2, 4, 1, False),
        ],
    )
    def test_examples(self, v_or_u, g, k, lam, expected):
        assert admissible(v_or_u, g, k, lam) is expected

    def test_mod6_characterisation_for_triples(self):
        for v in range(3, 200):
            assert admissible(v, 1, 3, 1) == (v % 6 in (1, 3))
        # g = 1 is a BIBD(v, k, lambda): r = lambda(v-1)/(k-1) and
        # b = lambda v(v-1)/(k(k-1)) must be integers
        for k in (3, 4, 5):
            for lam in (1, 2):
                for v in range(1, 200):
                    bibd = lam * (v - 1) % (k - 1) == 0 and lam * v * (v - 1) % (k * (k - 1)) == 0
                    assert admissible(v, 1, k, lam) == bibd, (v, k, lam)


# A failed report with five violations: a failed check names the first three.
FAKE_REPORT = ValidationReport(tuple(Violation("fake", (i,)) for i in range(5)))
LISTED = "(" + ", ".join(f"Violation(kind='fake', witness=({i},))" for i in range(3)) + ")"

# A colouring or grouping over other points than the design's.
FOUR = Design(4, ((0, 1, 2, 3),))
FOUR_COLOURS = Colouring(2, (0, 1, 0, 1))
FOUR_GROUPS = Grouping(4, ((0, 1), (2, 3)))
FIVE_COLOURS = Colouring(2, (0, 1, 0, 1, 0))
FIVE_GROUPS = Grouping(5, ((0, 1), (2, 3, 4)))
COLOURING_POINTS = "colouring is over a different point count"
GROUPING_POINTS = "grouping is over a different point count"


def _fail(module, name, call, packing=False):
    """Force `module.name`, the checker a site calls, to fail, then run the site."""
    def run(monkeypatch):
        monkeypatch.setattr(module, name, lambda *args: (FAKE_REPORT, None) if packing else FAKE_REPORT)
        call()
    return run


def _direct(call):
    return lambda monkeypatch: call()


def _pack_from_failing_pairs(monkeypatch):
    profile = packings.pairs_for_s(2)
    monkeypatch.setattr(packings, "verify_pairs_profile", lambda p: FAKE_REPORT)
    packings.pack_from_pairs(profile)


def _blowup_output_check(monkeypatch):
    # the TD colouring is checked first and must pass
    real = transforms.check_group_colouring
    td44 = catalog_get("td44")
    monkeypatch.setattr(
        transforms, "check_group_colouring",
        lambda d, g, col, mode: real(d, g, col, mode) if d is td44.design else FAKE_REPORT,
    )
    transforms.group_equitable_blowup(
        catalog_get("bibd13_4").design, Grouping.singletons(13), td44.design, td44.grouping, td44.colouring
    )


def _catalog_entry(name):
    return lambda: catalog._validate_entry(catalog._BUILDERS[name]())


FAILED_CHECKS = {
    "catalog-gdd": (
        _fail(catalog, "validate_gdd", _catalog_entry("td44")),
        DesignError, f"catalog entry td44 fails GDD validation: {LISTED}",
    ),
    "catalog-packing": (
        _fail(catalog, "validate_packing", _catalog_entry("pack7"), packing=True),
        DesignError, f"catalog entry pack7 fails packing validation: {LISTED}",
    ),
    "catalog-bibd": (
        _fail(catalog, "validate_bibd", _catalog_entry("sts7")),
        DesignError, f"catalog entry sts7 fails BIBD validation: {LISTED}",
    ),
    "packing": (
        _fail(packings, "validate_packing", lambda: packings.pack_small(7), packing=True),
        InternalConsistencyError, f"constructed packing invalid: {LISTED}",
    ),
    "packing-colouring": (
        _fail(packings, "check_block_equitable", lambda: packings.pack_small(7)),
        InternalConsistencyError, f"constructed colouring not block-equitable: {LISTED}",
    ),
    "pairs-for-s": (
        _fail(packings, "verify_pairs_profile", lambda: packings.pairs_for_s(5)),
        InternalConsistencyError, f"profile for s=5 fails verification: {LISTED}",
    ),
    "pack-from-pairs": (
        _pack_from_failing_pairs, DesignError, f"pairs profile fails verification: {LISTED}",
    ),
    "solver-witness": (
        _fail(solver, "check_colouring", lambda: decide_colourable(catalog_get("sts9").design, None, 3, "weak")),
        InternalConsistencyError, f"solver produced an invalid witness: {LISTED}",
    ),
    "td": (
        _fail(td, "validate_gdd", lambda: build_td(4, 5)),
        InternalConsistencyError, f"TD(4,5) invalid: {LISTED}",
    ),
    "td-colouring": (
        _fail(transforms, "check_group_colouring", lambda: transforms.td_group_equitable_colouring(*build_td(5, 4))),
        InternalConsistencyError, f"constructed colouring invalid: {LISTED}",
    ),
    "blowup-output": (
        _blowup_output_check, InternalConsistencyError, f"expanded colouring invalid: {LISTED}",
    ),
    "validate-gdd": (_direct(lambda: validate_gdd(FOUR, FIVE_GROUPS)), DesignError, GROUPING_POINTS),
    "check-weak": (_direct(lambda: check_weak(FOUR, FIVE_COLOURS)), DesignError, COLOURING_POINTS),
    "check-block-equitable": (
        _direct(lambda: check_block_equitable(FOUR, FIVE_COLOURS)), DesignError, COLOURING_POINTS,
    ),
    "group-colouring-colours": (
        _direct(lambda: check_group_colouring(FOUR, FOUR_GROUPS, FIVE_COLOURS, "group-equitable")),
        DesignError, COLOURING_POINTS,
    ),
    "group-colouring-groups": (
        _direct(lambda: check_group_colouring(FOUR, FIVE_GROUPS, FOUR_COLOURS, "group-equitable")),
        DesignError, GROUPING_POINTS,
    ),
    "pair-counts-colours": (
        _direct(lambda: count_monochrome_cross_pairs(FOUR, FIVE_COLOURS)), DesignError, COLOURING_POINTS,
    ),
    "pair-counts-groups": (
        _direct(lambda: count_monochrome_cross_pairs(FOUR, FOUR_COLOURS, FIVE_GROUPS)),
        DesignError, GROUPING_POINTS,
    ),
    "brute-min": (_direct(lambda: brute_min_monochrome(FOUR, FIVE_GROUPS, 2)), DesignError, GROUPING_POINTS),
    "lift": (
        _direct(lambda: blow_up(catalog_get("sts7").design, Grouping.singletons(7), 3).lift(FIVE_COLOURS)),
        DesignError, COLOURING_POINTS,
    ),
}


@pytest.mark.parametrize("site", FAILED_CHECKS)
def test_failed_check_raises_its_error_and_message(site, monkeypatch):
    # A failed report names its first three violations; a colouring or
    # grouping over other points than the design's says which it is.
    run, error, message = FAILED_CHECKS[site]
    with pytest.raises(error) as raised:
        run(monkeypatch)
    assert type(raised.value) is error
    assert str(raised.value) == message


def _grouping_cases():
    sts7 = catalog_get("sts7").design
    td34, _ = build_td(3, 4)
    td_colouring = transforms.td_group_equitable_colouring(*build_td(5, 4))
    return {
        "decide": lambda g: decide_colourable(sts7, g, 3, "group-monochromatic"),
        "decide-group-equitable": lambda g: decide_colourable(sts7, g, 2, "group-equitable"),
        "chromatic": lambda g: solver.chromatic_number(sts7, g, "group-monochromatic"),
        "gdd-chromatic": lambda g: solver.gdd_chromatic_numbers(sts7, g),
        "upper-bound": lambda g: solver.upper_bound_colouring(sts7, g),
        "blow-up": lambda g: blow_up(sts7, g, 2),
        "is-transversal": lambda g: is_transversal(td34, g),
        "td-colouring": lambda g: transforms.td_group_equitable_colouring(td34, g),
        "gdd-colouring": lambda g: transforms.equitable_gdd_colouring(td34, g, 3),
        "group-equitable-blowup": lambda g: transforms.group_equitable_blowup(
            td34, g, *build_td(3, 4), td_colouring
        ),
    }


@pytest.mark.parametrize("site", list(_grouping_cases()))
@pytest.mark.parametrize("points", [5, 9])
def test_a_grouping_over_other_points_is_refused(site, points):
    # every public entry point that takes a design and a grouping refuses
    # one over fewer or more points than the design's, before using it
    call = _grouping_cases()[site]
    with pytest.raises(DesignError) as raised:
        call(Grouping.singletons(points))
    assert type(raised.value) is DesignError
    assert str(raised.value) == GROUPING_POINTS
