"""Solver verdicts cross-checked against exhaustive colouring enumeration."""
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

import designcolour
from designcolour import (
    BudgetExceededError,
    Colouring,
    Design,
    DesignError,
    Grouping,
    SearchBudget,
    UnsupportedParameterError,
    catalog_get,
    check_block_equitable,
    check_colouring,
    check_group_colouring,
    check_weak,
    chromatic_lower_bound,
    chromatic_number,
    decide_colourable,
    enumerate_parallel_classes,
    upper_bound_colouring,
)
from designcolour.solver import (
    BUDGET_EXCEEDED,
    COLOURABLE,
    NOT_COLOURABLE,
    InternalConsistencyError,
)
from designcolour.td import build_td
from designcolour.transforms import delete_point, pc_to_gdd


def brute_force_colourable(d, g, c, mode):
    """Ground truth by enumerating every assignment through the checkers."""
    if mode == "weak":
        check = lambda col: check_weak(d, col)
    elif mode == "block-equitable":
        check = lambda col: check_block_equitable(d, col)
    elif mode == "group-monochromatic":
        check = lambda col: check_group_colouring(d, g, col, "group-monochromatic")
    else:
        check = lambda col: check_group_colouring(d, g, col, "group-equitable")
    return any(
        check(Colouring(c, assignment)).passed
        for assignment in product(range(c), repeat=d.v)
    )


def sts9_class():
    d = catalog_get("sts9").design
    classes, _ = enumerate_parallel_classes(d)
    return pc_to_gdd(d, classes[0])


class TestDecide:
    def test_fano_not_2_colourable(self):
        result = decide_colourable(catalog_get("sts7").design, None, 2, "weak")
        assert result.status == NOT_COLOURABLE
        assert result.nodes > 0

    def test_rainbow_always_works(self):
        d = catalog_get("sts9").design
        result = decide_colourable(d, None, 9, "weak")
        assert result.status == COLOURABLE

    def test_2_6_gdd_block_equitable_iff(self):
        d, g = delete_point(catalog_get("sts13").design, 0)
        assert decide_colourable(d, g, 2, "block-equitable").status == NOT_COLOURABLE
        assert decide_colourable(d, g, 6, "block-equitable").status == COLOURABLE

    def test_one_colour_with_blocks(self):
        d = catalog_get("sts7").design
        assert decide_colourable(d, None, 1, "weak").status == NOT_COLOURABLE

    def test_group_mode_needs_grouping(self):
        d = catalog_get("sts7").design
        with pytest.raises(DesignError):
            decide_colourable(d, None, 2, "group-monochromatic")

    @pytest.mark.parametrize("mode", ["group-monochromatic", "group-equitable"])
    def test_a_missing_grouping_is_one_error_for_check_and_search(self, mode):
        # both go through one mode check, so they raise the same type
        entry = catalog_get("td44")
        message = f"^mode '{mode}' requires a grouping$"
        with pytest.raises(UnsupportedParameterError, match=message):
            check_colouring(entry.design, None, entry.colouring, mode)
        with pytest.raises(UnsupportedParameterError, match=message):
            decide_colourable(entry.design, None, 2, mode)

    def test_the_point_cap_comes_before_the_mode(self):
        # the search refuses a table per point first, whatever the mode
        with pytest.raises(UnsupportedParameterError, match="-point limit$"):
            decide_colourable(Design((1 << 20) + 1, ()), None, 2, "sideways")
        with pytest.raises(DesignError, match="^unknown colouring mode 'sideways'$"):
            decide_colourable(Design(1 << 20, ()), None, 2, "sideways")

    def test_budget_exceeded_status(self):
        d = catalog_get("sts21").design
        result = decide_colourable(d, None, 3, "weak", SearchBudget(node_limit=5))
        assert result.status == BUDGET_EXCEEDED

    @pytest.mark.parametrize("time_limit", [float("nan"), 0, -1.5, float("-inf")])
    def test_budget_rejects_time_limits_that_never_expire_or_are_spent(self, time_limit):
        with pytest.raises(DesignError, match="^time limit must be positive or None$"):
            SearchBudget(time_limit=time_limit)

    @pytest.mark.parametrize("node_limit", [2.5, 1e6, "10", 0, -3])
    def test_budget_rejects_non_integer_or_non_positive_node_limits(self, node_limit):
        with pytest.raises(DesignError, match="^node limit must be positive or None$"):
            SearchBudget(node_limit=node_limit)

    def test_budget_accepts_unlimited_settings(self):
        assert SearchBudget(None, float("inf")).node_limit is None
        assert SearchBudget(7, 0.5) == SearchBudget(node_limit=7, time_limit=0.5)

    def test_nodes_per_pass(self):
        d = catalog_get("sts9").design
        refuted = decide_colourable(d, None, 2, "weak")
        assert refuted.witness_nodes == 0 and refuted.nodes == refuted.search_nodes > 0
        coloured = decide_colourable(d, None, 3, "weak")
        assert coloured.search_nodes > 0 and coloured.witness_nodes > 0
        assert coloured.nodes == coloured.search_nodes + coloured.witness_nodes

    def test_a_stopped_search_reports_the_nodes_it_tried(self):
        # the refused node is not counted, in either pass
        d = catalog_get("sts9").design
        full = decide_colourable(d, None, 3, "weak")
        for limit in (1, full.search_nodes - 1, full.search_nodes, full.nodes - 1):
            stopped = decide_colourable(d, None, 3, "weak", SearchBudget(node_limit=limit))
            assert stopped.status == BUDGET_EXCEEDED and stopped.nodes == limit, limit
        assert decide_colourable(d, None, 3, "weak", SearchBudget(node_limit=full.nodes)) == full

    def test_a_passed_deadline_stops_the_search_at_the_256th_node(self, monkeypatch):
        # the deadline is read at the first call and checked every 256 nodes
        times = iter([0.0])
        monkeypatch.setattr(designcolour.solver.time, "monotonic", lambda: next(times, 2.0))
        d = catalog_get("sts21").design
        result = decide_colourable(d, None, 3, "weak", SearchBudget(time_limit=1.0))
        assert result.status == BUDGET_EXCEEDED
        assert (result.search_nodes, result.witness_nodes) == (256, 0)

    def test_search_pass_witness_without_the_least_witness_pass(self):
        d = catalog_get("sts9").design
        least = decide_colourable(d, None, 3, "weak")
        quick = decide_colourable(d, None, 3, "weak", least_witness=False)
        assert quick.colourable and quick.witness_nodes == 0
        assert quick.search_nodes == least.search_nodes
        assert check_weak(d, quick.witness).passed
        refuted = decide_colourable(d, None, 2, "weak", least_witness=False)
        assert refuted == decide_colourable(d, None, 2, "weak")

    def test_corrupted_witness_check_raises_under_optimize(self):
        # The invariant checks are explicit raises, not asserts, so they
        # hold in an interpreter started with -O; callers that catch
        # AssertionError still catch them.
        assert issubclass(InternalConsistencyError, AssertionError)
        assert InternalConsistencyError is designcolour.InternalConsistencyError
        assert InternalConsistencyError is designcolour.packings.InternalConsistencyError
        script = (
            "import types\n"
            "import designcolour.solver as s\n"
            "from designcolour import catalog_get\n"
            "s.check_colouring = lambda d, g, col, mode: types.SimpleNamespace(passed=False, violations=['corrupted'])\n"
            "try:\n"
            "    s.decide_colourable(catalog_get('sts9').design, None, 3, 'weak')\n"
            "except s.InternalConsistencyError:\n"
            "    print('raised')\n"
        )
        src = str(Path(designcolour.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "raised"


class TestBruteAgreement:
    @pytest.mark.parametrize("c", [1, 2, 3])
    @pytest.mark.parametrize("name", ["sts7", "sts9"])
    def test_weak_agreement(self, name, c):
        d = catalog_get(name).design
        expected = brute_force_colourable(d, None, c, "weak")
        assert decide_colourable(d, None, c, "weak").colourable == expected

    @pytest.mark.parametrize("c", [2, 3])
    def test_all_modes_on_2_4_gdd(self, c):
        d, g = delete_point(catalog_get("sts9").design, 0)
        for mode in ("weak", "block-equitable", "group-monochromatic", "group-equitable"):
            expected = brute_force_colourable(d, g, c, mode)
            got = decide_colourable(d, g, c, mode).colourable
            assert got == expected, (mode, c)

    @pytest.mark.parametrize("c", [2, 3])
    def test_all_modes_on_small_packing(self, c):
        d = catalog_get("pack7").design
        g = Grouping(7, ((0, 1, 2), (3, 4, 5), (6,)))
        for mode in ("weak", "block-equitable", "group-monochromatic", "group-equitable"):
            expected = brute_force_colourable(d, g, c, mode)
            got = decide_colourable(d, g, c, mode).colourable
            assert got == expected, (mode, c)


class TestChromatic:
    def test_sts9_is_3_chromatic(self):
        result = chromatic_number(catalog_get("sts9").design)
        assert result.chi == 3
        assert result.refutation is not None and result.refutation.c == 2

    def test_sts13_is_3_chromatic(self):
        assert chromatic_number(catalog_get("sts13").design).chi == 3

    def test_type_3_3_gdd_is_2_chromatic(self):
        gdd, grouping = sts9_class()
        assert chromatic_number(gdd).chi == 2

    def test_no_blocks_is_1_chromatic(self):
        result = chromatic_number(Design(5, ()))
        assert result.chi == 1

    def test_chi_2_retains_refutation_at_1(self):
        gdd, _ = sts9_class()
        result = chromatic_number(gdd)
        assert result.chi == 2
        assert result.refutation is not None and result.refutation.c == 1

    def test_equitable_modes_rejected(self):
        with pytest.raises(DesignError):
            chromatic_number(catalog_get("sts9").design, None, "block-equitable")

    def test_budget_error(self):
        d = catalog_get("sts21").design
        with pytest.raises(BudgetExceededError):
            chromatic_number(d, None, "weak", SearchBudget(node_limit=3))

    @pytest.mark.parametrize("limit,c", [(2, 2), (9, 3)])
    def test_budget_spent_between_two_decisions(self, limit, c):
        # sts7's search spends exactly 2 nodes refuting c=1 and 7 more
        # refuting c=2, so these limits run out before the next decision
        with pytest.raises(BudgetExceededError) as info:
            chromatic_number(catalog_get("sts7").design, budget=SearchBudget(node_limit=limit))
        assert str(info.value) == f"budget exhausted before deciding {c}-colourability"
        assert info.value.nodes == limit

    def test_one_budget_spans_every_colour_count(self):
        d = catalog_get("sts13").design
        per_c = [decide_colourable(d, None, c, "weak").nodes for c in (1, 2, 3)]
        assert max(per_c) < sum(per_c)
        with pytest.raises(BudgetExceededError):
            chromatic_number(d, None, "weak", SearchBudget(node_limit=max(per_c)))
        assert chromatic_number(d, None, "weak", SearchBudget(node_limit=sum(per_c))).chi == 3

    @pytest.mark.parametrize("seed", range(5))
    def test_relabelled_sts21_is_4_chromatic(self, seed):
        d = catalog_get("sts21").design
        perm = list(range(d.v))
        random.Random(seed).shuffle(perm)
        relabelled = Design(d.v, tuple(tuple(perm[p] for p in blk) for blk in d.blocks))
        result = chromatic_number(relabelled)
        assert result.chi == 4
        assert result.refutation is not None and result.refutation.c == 3
        assert result.refutation.status == NOT_COLOURABLE
        assert check_weak(relabelled, result.witness).passed

    @pytest.mark.parametrize("seed, refuted, c4_nodes", [
        (0, 3545, (19, 19)),
        (1, 3611, (19, 20)),
        (2, 6078, (19, 17)),
        (3, 3723, (19, 19)),
        (4, 3477, (19, 18)),
        (5, 3517, (19, 21)),
    ])
    def test_relabelled_sts21_trees_are_pinned(self, seed, refuted, c4_nodes):
        # The same shape as `chromatic` on a relabelled STS(21): a c=3
        # refutation, then a c=4 decision with its least-witness pass.
        d = catalog_get("sts21").design
        perm = list(range(d.v))
        random.Random(seed).shuffle(perm)
        relabelled = Design(d.v, tuple(tuple(perm[p] for p in blk) for blk in d.blocks))
        assert chromatic_number(relabelled).refutation.search_nodes == refuted
        result = decide_colourable(relabelled, None, 4, "weak")
        assert (result.search_nodes, result.witness_nodes) == c4_nodes

    def test_stored_sts21_refuted_at_3_in_7354_nodes(self):
        # `chromatic sts21` prints this count on stdout
        result = chromatic_number(catalog_get("sts21").design)
        assert result.chi == 4
        refutation = result.refutation
        assert (refutation.c, refutation.status) == (3, NOT_COLOURABLE)
        assert (refutation.search_nodes, refutation.witness_nodes) == (7354, 0)

    def test_group_monochromatic_on_td(self):
        d, g = build_td(4, 4)
        result = chromatic_number(d, g, "group-monochromatic")
        assert result.chi == 2
        assert check_group_colouring(d, g, result.witness, "group-monochromatic").passed


class TestLowerBound:
    @pytest.mark.parametrize("name", designcolour.catalog_names())
    def test_never_exceeds_the_chromatic_number(self, name):
        d = catalog_get(name).design
        assert 2 <= chromatic_lower_bound(d) <= chromatic_number(d).chi

    def test_turan_refutes_two_colours_on_an_sts21_class_gdd(self):
        # 63 triples need 126 bichromatic pairs; two colours on 21 points
        # give at most 10 * 11 = 110
        d = catalog_get("sts21").design
        classes, _ = enumerate_parallel_classes(d)
        gdd, _ = pc_to_gdd(d, classes[0])
        assert chromatic_lower_bound(gdd) == 3
        assert decide_colourable(gdd, None, 2, "weak").status == NOT_COLOURABLE

    def test_claims_nothing_beyond_two_when_a_pair_repeats(self):
        d = catalog_get("sts21").design
        classes, _ = enumerate_parallel_classes(d)
        gdd, _ = pc_to_gdd(d, classes[0])
        doubled = Design(gdd.v, gdd.blocks + gdd.blocks[:1], 2)
        assert chromatic_lower_bound(doubled) == 2

    def test_no_blocks(self):
        assert chromatic_lower_bound(Design(5, ())) == 1


class TestPaperProperties:
    def test_block_equitable_implies_weak(self):
        # Equitability caps every colour strictly below the block size, so
        # an equitable colouring can never leave a block monochromatic.
        d = catalog_get("pack11").design
        for assignment in product(range(2), repeat=11):
            col = Colouring(2, assignment)
            if check_block_equitable(d, col).passed:
                assert check_weak(d, col).passed

    def test_no_2_chromatic_uniform_3gdd_with_5_plus_groups(self):
        corpus = [
            delete_point(catalog_get("sts13").design, 0),  # type 2^6
        ]
        sts7 = catalog_get("sts7").design
        from designcolour import blow_up

        blown = blow_up(sts7, Grouping.singletons(7), 3)  # type 3^7
        corpus.append((blown.design, blown.grouping))
        for d, g in corpus:
            assert g.u >= 5
            assert decide_colourable(d, g, 2, "weak").status == NOT_COLOURABLE

    def test_point_deletion_chi_sandwich(self):
        for name in ("sts7", "sts9", "sts13"):
            d = catalog_get(name).design
            chi = chromatic_number(d).chi
            for y in range(0, d.v, 4):
                gdd, _ = delete_point(d, y)
                chi_y = chromatic_number(gdd).chi
                assert chi_y in (chi - 1, chi), (name, y)


class TestWitnessDeterminism:
    def test_lexicographically_least_weak_witness(self):
        d = catalog_get("sts7").design
        result = decide_colourable(d, None, 3, "weak")
        best = None
        for assignment in product(range(3), repeat=7):
            if check_weak(d, Colouring(3, assignment)).passed:
                best = assignment
                break
        assert result.witness.assignment == best

    def test_repeat_runs_identical(self):
        d, g = delete_point(catalog_get("sts13").design, 3)
        first = decide_colourable(d, g, 6, "block-equitable")
        second = decide_colourable(d, g, 6, "block-equitable")
        assert first.witness == second.witness


class TestUpperBoundColouring:
    def test_td44_gets_two_colours(self):
        d, g = build_td(4, 4)
        col = upper_bound_colouring(d, g)
        assert col.c == 2
        assert col.assignment == (0,) * 12 + (1,) * 4
        assert check_group_colouring(d, g, col, "group-monochromatic").passed

    def test_seven_groups_blocksize_three(self):
        # Class 0 leaves the group triple (0, 1, 2) unmet, so that triple
        # takes one colour and groups 3-6 two more; in class 14 all 35
        # triples are met and the runs of two groups stand.
        d = catalog_get("sts21").design
        classes, _ = enumerate_parallel_classes(d)
        gdd, grouping = pc_to_gdd(d, classes[0])
        col = upper_bound_colouring(gdd, grouping)
        assert col.c == 3
        assert col.assignment == (0,) * 9 + (1,) * 6 + (2,) * 6
        assert check_group_colouring(gdd, grouping, col, "group-monochromatic").passed
        gdd, grouping = pc_to_gdd(d, classes[14])
        col = upper_bound_colouring(gdd, grouping)
        assert col.c == 4
        assert col.assignment == tuple(gi // 2 for gi in grouping.group_index)
        assert check_group_colouring(gdd, grouping, col, "group-monochromatic").passed

    def test_no_blocks_single_colour(self):
        d = Design(6, ())
        g = Grouping(6, ((0, 1, 2), (3, 4, 5)))
        assert upper_bound_colouring(d, g).c == 1
        assert upper_bound_colouring(d, g).assignment == (0,) * 6

    def test_class_gdds_of_a_design_with_shared_pairs(self):
        # Blocks 012 and 013 share a pair, so each class GDD has a block
        # meeting only two groups; runs of k - 1 = 2 groups then leave a
        # block inside one colour.
        d = Design(6, ((0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5), (0, 2, 4), (1, 3, 5)), 2)
        classes, _ = enumerate_parallel_classes(d)
        assert classes
        for pc in classes:
            gdd, grouping = pc_to_gdd(d, pc)
            col = upper_bound_colouring(gdd, grouping)
            assert check_colouring(gdd, grouping, col, "group-monochromatic").passed

    def test_block_inside_a_group_raises(self):
        d = Design(6, ((0, 1, 2), (0, 3, 4)))
        g = Grouping(6, ((0, 1, 2), (3,), (4,), (5,)))
        with pytest.raises(DesignError, match=r"block \(0, 1, 2\) lies inside one group"):
            upper_bound_colouring(d, g)

    def test_chain_chi_le_chiM_le_ceiling(self):
        for name, grouping in [("sts13", None)]:
            d = catalog_get(name).design
            dd, gg = delete_point(d, 0)
            chi = chromatic_number(dd).chi
            chi_m = chromatic_number(dd, gg, "group-monochromatic").chi
            assert chi <= chi_m
            assert chi_m <= -(-gg.u // (dd.k - 1))
