"""Parallel-class enumeration with an independent subset-filter oracle."""
import random
from itertools import combinations

import pytest

from designcolour import parallel
from designcolour import (
    SearchBudget,
    UnsupportedParameterError,
    analyze_parallel_classes,
    catalog_get,
    chromatic_number,
    decide_colourable,
    enumerate_parallel_classes,
    pc_to_gdd,
)
from designcolour.parallel import PcRecord


class TestEnumeration:
    def test_sts9_has_four_classes_vs_naive_filter(self):
        sts9 = catalog_get("sts9").design
        classes, truncated = enumerate_parallel_classes(sts9)
        assert not truncated
        naive = {
            combo
            for combo in combinations(range(sts9.b), 3)
            if len({p for bi in combo for p in sts9.blocks[bi]}) == 9
        }
        assert {pc.block_indices for pc in classes} == naive
        assert len(classes) == 4

    def test_sts7_has_none(self):
        classes, truncated = enumerate_parallel_classes(catalog_get("sts7").design)
        assert classes == [] and not truncated

    def test_sts21_has_130(self):
        classes, _ = enumerate_parallel_classes(catalog_get("sts21").design)
        assert len(classes) == 130
        seen = set()
        for pc in classes:
            assert pc.block_indices not in seen
            seen.add(pc.block_indices)

    def test_limit_truncates(self):
        classes, truncated = enumerate_parallel_classes(catalog_get("sts21").design, limit=5)
        assert len(classes) == 5 and truncated

    def test_limit_below_one_is_rejected(self):
        # a limit is checked only after a class is found, so 0 would still
        # list one class
        sts9 = catalog_get("sts9").design
        for limit in (0, -1):
            with pytest.raises(UnsupportedParameterError):
                enumerate_parallel_classes(sts9, limit=limit)

    def test_greedy_samples_are_found(self):
        sts21 = catalog_get("sts21").design
        classes, _ = enumerate_parallel_classes(sts21)
        known = {pc.block_indices for pc in classes}
        rng = random.Random(7)
        found = 0
        for _ in range(300):
            order = list(range(sts21.b))
            rng.shuffle(order)
            chosen, covered = [], set()
            for bi in order:
                blk = sts21.blocks[bi]
                if not covered.intersection(blk):
                    chosen.append(bi)
                    covered.update(blk)
            if len(covered) == 21:
                found += 1
                assert tuple(sorted(chosen)) in known
        assert found > 0


class TestAnalysis:
    def test_sts9_all_classes_2_2(self):
        analysis = analyze_parallel_classes(catalog_get("sts9").design)
        assert analysis.histogram_dict() == {(2, 2): 4}

    def test_empty_design(self):
        from designcolour import Design

        analysis = analyze_parallel_classes(Design(6, ()))
        assert analysis.histogram == ()

    def test_parallel_jobs_match_serial(self):
        sts9 = catalog_get("sts9").design
        serial = analyze_parallel_classes(sts9)
        fanned = analyze_parallel_classes(sts9, jobs=2)
        assert serial == fanned

    def test_pool_matches_serial_on_sts21(self):
        # 130 classes make 33 chunks, so two workers start where there are
        # two CPUs; sts9's 4 classes are one chunk and always run serially
        sts21 = catalog_get("sts21").design
        assert analyze_parallel_classes(sts21, jobs=2) == analyze_parallel_classes(sts21)

    @pytest.mark.parametrize(
        "jobs,tasks,cpus,expected",
        [
            (1, 130, 8, 1),
            (0, 130, 8, 0),
            (3, 130, 8, 3),
            (64, 130, 8, 8),
            (64, 130, None, 1),
            (8, 4, 8, 1),
            (8, 9, 8, 3),
            (8, 0, 8, 0),
        ],
    )
    def test_worker_count_clamp(self, monkeypatch, jobs, tasks, cpus, expected):
        monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
        assert parallel._worker_count(jobs, tasks) == expected

    def test_sts21_histogram_as_computed(self):
        # Regression pin for the stored STS(21) block list; nothing in the
        # repository says whether it is the paper's Table 1 design.  The
        # histogram below (130 classes, top row chi_M = 4) is checked class
        # by class against the group-quotient oracle in acceptance
        # criterion 4, which also shows that the published order-21 split
        # {(3,3): 70, (3,4): 60} is unreachable from this block list.
        analysis = analyze_parallel_classes(catalog_get("sts21").design)
        assert analysis.histogram_dict() == {(3, 3): 22, (3, 4): 108}

    def test_one_search_over_budget_keeps_the_other(self):
        # A node budget between the costs of a class's two searches: the
        # cheaper search keeps its answer, the record is still flagged, and
        # the histogram skips it.
        sts21 = catalog_get("sts21").design
        classes, _ = enumerate_parallel_classes(sts21)

        def cost(gdd, grouping, mode, chi):
            return sum(
                decide_colourable(gdd, grouping, c, mode).nodes for c in range(1, chi + 1)
            )

        picked = {}
        for idx, pc in enumerate(classes):
            gdd, grouping = pc_to_gdd(sts21, pc)
            chi = chromatic_number(gdd).chi
            chi_m = chromatic_number(gdd, grouping, "group-monochromatic").chi
            costs = (cost(gdd, None, "weak", chi), cost(gdd, grouping, "group-monochromatic", chi_m))
            if costs[0] != costs[1]:
                picked.setdefault(costs[0] < costs[1], (idx, pc, chi, chi_m, min(costs)))
            if len(picked) == 2:
                break
        for chi_cheaper, (idx, pc, chi, chi_m, limit) in picked.items():
            budget = SearchBudget(node_limit=limit)
            expected = PcRecord(idx, chi, None, True) if chi_cheaper else PcRecord(idx, None, chi_m, True)
            assert parallel._analyze_one((sts21, pc, idx, budget)) == expected
        idx, pc, chi, _, limit = picked[True]
        analysis = analyze_parallel_classes(sts21, SearchBudget(node_limit=limit))
        assert analysis.records[idx] == PcRecord(idx, chi, None, True)
        complete = [r for r in analysis.records if not r.budget_exceeded]
        assert all(r.chi is not None and r.chi_m is not None for r in complete)
        assert sum(analysis.histogram_dict().values()) == len(complete) < len(classes)

    def test_sandwich_bounds_on_sts9(self):
        sts9 = catalog_get("sts9").design
        chi_d = chromatic_number(sts9).chi
        classes, _ = enumerate_parallel_classes(sts9)
        for pc in classes:
            gdd, grouping = pc_to_gdd(sts9, pc)
            chi_pi = chromatic_number(gdd).chi
            chi_m = chromatic_number(gdd, grouping, "group-monochromatic").chi
            assert chi_pi <= chi_d <= chi_pi + -(-sts9.v // (sts9.k * (sts9.k - 1)))
            assert chi_pi <= chi_m
