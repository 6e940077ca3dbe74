"""Parallel-class enumeration with an independent subset-filter oracle."""
import random
from collections import Counter
from functools import cache
from itertools import combinations

import pytest

from designcolour import parallel, solver
from designcolour import (
    Design,
    SearchBudget,
    UnsupportedParameterError,
    analyze_parallel_classes,
    catalog_get,
    chromatic_lower_bound,
    chromatic_number,
    check_colouring,
    decide_colourable,
    enumerate_parallel_classes,
    pc_to_gdd,
    upper_bound_colouring,
)
from designcolour.parallel import PcRecord
from designcolour.solver import NOT_COLOURABLE


def relabelled_sts21(seed):
    d = catalog_get("sts21").design
    perm = list(range(d.v))
    random.Random(seed).shuffle(perm)
    return Design(d.v, tuple(tuple(perm[p] for p in blk) for blk in d.blocks))


@cache
def bose_sts27():
    """Bose's STS(27) on Z_9 x Z_3, point (x, i) numbered 3x + i: the
    triples {(x, 0), (x, 1), (x, 2)} and, for x < y, {(x, i), (y, i),
    (x o y, i + 1)}, with the idempotent commutative quasigroup
    x o y = (x + y) / 2 = 5(x + y) mod 9."""
    blocks = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(9)]
    for i in range(3):
        for x, y in combinations(range(9), 2):
            blocks.append((3 * x + i, 3 * y + i, 3 * (5 * (x + y) % 9) + (i + 1) % 3))
    return Design(27, tuple(blocks))


def random_sts(v, seed):
    """A seeded random STS(v), v = 1 or 3 (mod 6), by Stinson's
    hill-climbing: a live point x and two of its uncovered partners y, z
    make the block xyz, which replaces the block through yz if there is
    one."""
    rng = random.Random(seed)
    third = {}  # third[x, y]: the third point of the block through x and y
    blocks = set()
    while len(blocks) < v * (v - 1) // 6:
        live = [x for x in range(v) if sum((x, y) in third for y in range(v)) < v - 1]
        x = rng.choice(live)
        y, z = rng.sample([y for y in range(v) if y != x and (x, y) not in third], 2)
        if (y, z) in third:
            w = third[y, z]
            blocks.remove(tuple(sorted((y, z, w))))
            for a, b in combinations((y, z, w), 2):
                del third[a, b], third[b, a]
        blocks.add(tuple(sorted((x, y, z))))
        for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
            third[a, b] = third[b, a] = c
    return Design(v, tuple(blocks))


def source_design(name, seed=None):
    if name == "shared-pairs":
        return Design(6, ((0, 1, 2), (3, 4, 5), (0, 1, 3), (2, 4, 5), (0, 2, 4), (1, 3, 5)), 2)
    if name == "repeated-block":
        # shared-pairs with (0, 1, 2) twice: a class GDD may keep one copy
        # of a class block, or both copies of another block
        return Design(6, source_design("shared-pairs").blocks + ((0, 1, 2),), 2)
    if name == "sts27-bose":
        return bose_sts27()
    if name == "sts3":
        # one block, one class: the class GDD has no blocks
        return Design(3, ((0, 1, 2),))
    if name == "two-k4":
        # two K4 graphs on 0-3 and 4-7 joined by the matching i, i + 4: the
        # class of that matching leaves two K4s, chi 4 above the shared
        # Turan bound of 2, and the design is not 2-colourable either
        edges = [e for part in (range(4), range(4, 8)) for e in combinations(part, 2)]
        return Design(8, tuple(edges + [(i, i + 4) for i in range(4)]))
    if name.startswith("random-sts"):
        return random_sts(int(name[len("random-sts"):]), seed)
    return relabelled_sts21(seed) if seed is not None else catalog_get(name).design


def reference_parallel_classes(d, limit=None):
    """Plain exact cover with point sets: branch on the least uncovered
    point over its blocks in ascending index order that miss every
    covered point; stop, truncated, at the limit-th class."""
    classes = []

    def rec(covered, chosen):
        if len(covered) == d.v:
            classes.append(tuple(chosen))
            return limit is None or len(classes) < limit
        low = min(set(range(d.v)) - covered)
        for bi, blk in enumerate(d.blocks):
            if low in blk and not covered.intersection(blk):
                if not rec(covered | set(blk), chosen + [bi]):
                    return False
        return True

    complete = rec(set(), [])
    return classes, not complete


def unmet_group_sets(gdd, grouping):
    """The k-sets of group indices that no block meets exactly, k = gdd.k,
    in lexicographic order, by brute force."""
    gi = grouping.group_index
    met = {tuple(sorted({gi[p] for p in blk})) for blk in gdd.blocks}
    return [t for t in combinations(range(grouping.u), gdd.k) if t not in met]


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

    @pytest.mark.parametrize(
        "name,seed",
        [("sts9", None), ("td44", None), ("random-sts15", 3), ("random-sts15", 8), ("random-sts21", 5)],
    )
    def test_block_mask_cover_matches_plain_exact_cover(self, name, seed):
        d = source_design(name, seed)
        everything, _ = reference_parallel_classes(d)
        count = len(everything)
        assert count >= 2
        for limit in (None, 1, count // 2 + 1, count):
            expected = reference_parallel_classes(d, limit)
            classes, truncated = enumerate_parallel_classes(d, limit)
            assert ([pc.block_indices for pc in classes], truncated) == expected

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
        analysis = analyze_parallel_classes(Design(6, ()))
        assert analysis.histogram == ()

    def test_parallel_jobs_match_serial(self):
        for name, seed in [("sts9", None), ("sts21", 3), ("shared-pairs", None)]:
            d = source_design(name, seed)
            serial = analyze_parallel_classes(d)
            fanned = analyze_parallel_classes(d, jobs=2)
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

    def test_one_search_over_budget_keeps_the_other(self, monkeypatch):
        # A node budget between the costs of a class's two searches: the
        # cheaper search keeps its answer, the record is still flagged, and
        # the histogram skips it.  The group certificates settle chi_M on
        # every STS(21) class GDD, so this runs on Bose's STS(27): a class
        # with chi < chi_M and an unmet group triple searches both, chi_M
        # from the lower bound up to the unmet-set colouring's count.  The
        # design has 8,191 classes; to keep the test short the analysis
        # sees only the first 40, which hold classes of both kinds.
        sts27 = bose_sts27()
        classes, _ = enumerate_parallel_classes(sts27, limit=40)
        monkeypatch.setattr(parallel, "enumerate_parallel_classes", lambda d: (classes, True))

        def cost(gdd, grouping, mode, stop):
            # one search: its search passes from the lower bound up to the
            # first colourable count below stop
            nodes = 0
            for c in range(chromatic_lower_bound(gdd), stop):
                result = decide_colourable(gdd, grouping, c, mode, least_witness=False)
                nodes += result.nodes
                if result.colourable:
                    break
            return nodes

        picked = {}
        for idx, pc in enumerate(classes):
            gdd, grouping = pc_to_gdd(sts27, pc)
            chi = chromatic_number(gdd).chi
            chi_m = chromatic_number(gdd, grouping, "group-monochromatic").chi
            if chi == chi_m or not unmet_group_sets(gdd, grouping):
                # with chi = chi_M the chi search is empty; with every
                # group triple met the pigeonhole bound settles chi_M
                continue
            top = upper_bound_colouring(gdd, grouping).c
            costs = (cost(gdd, None, "weak", chi_m), cost(gdd, grouping, "group-monochromatic", top))
            if costs[0] != costs[1]:
                picked.setdefault(costs[0] < costs[1], (idx, pc, chi, chi_m, min(costs)))
            if len(picked) == 2:
                break
        assert set(picked) == {True, False}
        facts = parallel._DesignFacts(sts27)
        for chi_cheaper, (idx, pc, chi, chi_m, limit) in picked.items():
            budget = SearchBudget(node_limit=limit)
            expected = PcRecord(idx, chi, None, True) if chi_cheaper else PcRecord(idx, None, chi_m, True)
            assert parallel._analyze_one((facts, pc, idx, budget)) == expected
        idx, pc, chi, _, limit = picked[True]
        analysis = analyze_parallel_classes(sts27, SearchBudget(node_limit=limit))
        assert analysis.records[idx] == PcRecord(idx, chi, None, True)
        complete = [r for r in analysis.records if not r.budget_exceeded]
        assert all(r.chi is not None and r.chi_m is not None for r in complete)
        assert sum(analysis.histogram_dict().values()) == len(complete) < len(classes)
        assert analysis.budget_exceeded == len(classes) - len(complete)

    @pytest.mark.parametrize(
        "name,seed",
        [
            ("sts9", None),
            ("td44", None),
            ("sts21", None),
            ("sts21", 1),
            ("sts21", 2),
            ("shared-pairs", None),
            ("sts27-bose", None),
        ],
    )
    def test_records_match_two_chromatic_number_oracle(self, name, seed):
        # The analysis searches only what its certificates leave open and
        # skips witness passes; two full chromatic_number calls per class
        # must give the same records.  In the shared-pairs design (lambda=2)
        # blocks meet a group in two points, so the upper bound colouring
        # fails its check and one colour per group stands in for it.  The
        # first 40 classes of Bose's STS(27) have nine groups: chi_M is
        # settled by pigeonhole where every group triple is met, and
        # searched below the unmet-set colouring's four colours elsewhere.
        d = source_design(name, seed)
        limit = 40 if name == "sts27-bose" else None
        classes, _ = enumerate_parallel_classes(d, limit)
        assert classes
        expected = []
        for idx, pc in enumerate(classes):
            gdd, grouping = pc_to_gdd(d, pc)
            chi = chromatic_number(gdd).chi
            chi_m = chromatic_number(gdd, grouping, "group-monochromatic").chi
            expected.append(PcRecord(idx, chi, chi_m))
        if limit is None:
            records = analyze_parallel_classes(d).records
        else:
            facts = parallel._DesignFacts(d)
            records = tuple(
                parallel._analyze_one((facts, pc, idx, SearchBudget())) for idx, pc in enumerate(classes)
            )
        assert records == tuple(expected)

    def test_sts21_decides_only_what_no_certificate_settles(self, monkeypatch):
        # Turan refutes c=2, so chi_M >= 3.  A class with an unmet group
        # triple has the checked 3-colouring that gives the triple one
        # colour; a class with all 35 triples met has chi_M >= 4 by
        # pigeonhole, and the runs 4-colouring.  chi <= chi_M leaves one
        # weak decision at c=3 when chi_M = 4; no group-monochromatic
        # decision and no witness pass.
        calls = []
        decide = solver.decide_colourable

        def spy(d, g, c, mode, budget=None, least_witness=True):
            calls.append((mode, c, least_witness))
            return decide(d, g, c, mode, budget, least_witness)

        monkeypatch.setattr(solver, "decide_colourable", spy)
        analysis = analyze_parallel_classes(catalog_get("sts21").design)
        assert analysis.histogram_dict() == {(3, 3): 22, (3, 4): 108}
        assert Counter(calls) == {("weak", 3, False): 108}

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


class TestGroupCertificates:
    """The two group-level facts behind `gdd_chromatic_numbers`, checked
    class by class against a brute-force list of unmet k-sets of groups."""

    @pytest.mark.parametrize(
        "name,seed,kinds",
        [
            ("sts9", None, {False}),
            ("td44", None, {False}),
            ("sts21", None, {False, True}),
            ("sts21", 1, {False, True}),
            ("sts27-bose", None, {False, True}),
        ],
    )
    def test_pigeonhole_and_unmet_set_colouring(self, name, seed, kinds):
        # All C(u, k) k-sets met: fewer than ceil(u / (k - 1)) colours put
        # k groups on one colour, over a block, so that count minus one
        # is refuted.  Some k-set unmet: it takes colour 0 and the other
        # groups runs of k - 1, a checked ceil((u - 1) / (k - 1))-colouring.
        d = source_design(name, seed)
        limit = 40 if name == "sts27-bose" else None
        classes, _ = enumerate_parallel_classes(d, limit)
        seen = set()
        for pc in classes:
            gdd, grouping = pc_to_gdd(d, pc)
            u, k = grouping.u, gdd.k
            unmet = unmet_group_sets(gdd, grouping)
            col = upper_bound_colouring(gdd, grouping)
            assert check_colouring(gdd, grouping, col, "group-monochromatic").passed
            if unmet:
                rest = [gi for gi in range(u) if gi not in unmet[0]]
                colours = dict.fromkeys(unmet[0], 0) | {gi: 1 + j // (k - 1) for j, gi in enumerate(rest)}
                assert col.c == -(-(u - 1) // (k - 1))
                assert col.assignment == tuple(colours[gi] for gi in grouping.group_index)
            else:
                c = -(-u // (k - 1))
                assert col.c == c
                refuted = decide_colourable(gdd, grouping, c - 1, "group-monochromatic")
                assert refuted.status == NOT_COLOURABLE
            seen.add(bool(unmet))
        assert seen == kinds


class TestDesignFacts:
    """What `analyze_parallel_classes` derives once per design equals
    what each class GDD would compute for itself."""

    @pytest.mark.parametrize(
        "name,seed",
        [
            ("sts9", None),
            ("td44", None),
            ("sts21", None),
            ("sts21", 1),
            ("sts21", 2),
            ("sts27-bose", None),
            ("shared-pairs", None),
            ("repeated-block", None),
            ("sts3", None),
        ],
    )
    def test_class_facts_match_the_class_gdd(self, name, seed):
        d = source_design(name, seed)
        limit = 40 if name == "sts27-bose" else None
        classes, _ = enumerate_parallel_classes(d, limit)
        assert classes
        facts = parallel._DesignFacts(d)
        # one bound for all class GDDs unless d repeats a pair
        assert (facts.bound is None) == (d.lambda_ > 1)
        for pc in classes:
            gdd, _ = pc_to_gdd(d, pc)
            assert facts.lower_bound(gdd) == chromatic_lower_bound(gdd)



def oracle_records(d, classes):
    """Each class's (chi, chi_M) from two full chromatic_number calls."""
    records = []
    for idx, pc in enumerate(classes):
        gdd, grouping = pc_to_gdd(d, pc)
        chi = chromatic_number(gdd).chi
        chi_m = chromatic_number(gdd, grouping, "group-monochromatic").chi
        records.append(PcRecord(idx, chi, chi_m))
    return tuple(records)


class TestDesignColouring:
    """A weak colouring of the design is one of every class GDD, so one
    checked search of the design at the shared Turan bound settles chi
    for all classes; the analysis gives it one node per class."""

    def spy_on_design_search(self, monkeypatch):
        results = []
        decide = parallel.decide_colourable

        def spy(*args, **kwargs):
            results.append(decide(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(parallel, "decide_colourable", spy)
        return results

    @pytest.mark.parametrize("name,seed", [("sts27-bose", None), ("random-sts21", 0)])
    def test_found_within_one_node_per_class(self, monkeypatch, name, seed):
        # Bose's STS(27) is 3-colourable in 33 nodes, inside the 40-class
        # limit the analysis sees here; the seed-0 random STS(21) has 34
        # classes and a 3-colouring found in 14 nodes
        d = source_design(name, seed)
        classes, _ = enumerate_parallel_classes(d, 40 if name == "sts27-bose" else None)
        monkeypatch.setattr(parallel, "enumerate_parallel_classes", lambda d: (classes, False))
        results = self.spy_on_design_search(monkeypatch)
        class_modes = []
        decide = solver.decide_colourable

        def spy(gdd, g, c, mode, budget=None, least_witness=True):
            class_modes.append(mode)
            return decide(gdd, g, c, mode, budget, least_witness)

        monkeypatch.setattr(solver, "decide_colourable", spy)
        analysis = analyze_parallel_classes(d)
        (found,) = results
        assert found.colourable and found.c == 3 and found.nodes <= len(classes)
        assert check_colouring(d, None, found.witness, "weak").passed
        assert {r.chi for r in analysis.records} == {3}
        # no class searches a weak colour count
        assert "weak" not in class_modes
        facts = parallel._DesignFacts(d, SearchBudget(node_limit=len(classes)))
        assert facts.hi == facts.bound == 3

    def test_not_found_for_the_4_chromatic_sts21(self, monkeypatch):
        # refuting c=3 on the stored STS(21) takes 7,354 nodes; the search
        # stops after one node per class, and reports the 130 it tried.
        d = catalog_get("sts21").design
        results = self.spy_on_design_search(monkeypatch)
        analysis = analyze_parallel_classes(d)
        (stopped,) = results
        assert stopped.status == solver.BUDGET_EXCEEDED
        assert stopped.nodes == len(analysis.records) == 130
        assert parallel._DesignFacts(d, SearchBudget(node_limit=130)).hi is None
        assert analysis.histogram_dict() == {(3, 3): 22, (3, 4): 108}

    def test_the_caller_node_limit_caps_the_search(self, monkeypatch):
        d = source_design("random-sts21", 0)
        results = self.spy_on_design_search(monkeypatch)
        analyze_parallel_classes(d, SearchBudget(node_limit=5))
        (stopped,) = results
        # the 5 nodes tried, not the sixth, refused
        assert stopped.status == solver.BUDGET_EXCEEDED and stopped.nodes == 5

    @pytest.mark.parametrize(
        "name,seed",
        [
            ("sts9", None),
            ("td44", None),
            ("sts21", None),
            ("random-sts21", 0),
            ("random-sts21", 4),
            ("shared-pairs", None),
            ("sts27-bose", None),
            ("two-k4", None),
        ],
    )
    def test_records_with_and_without_it_match_the_oracle(self, name, seed):
        d = source_design(name, seed)
        classes, _ = enumerate_parallel_classes(d, 40 if name == "sts27-bose" else None)
        expected = oracle_records(d, classes)
        without = parallel._DesignFacts(d)
        with_it = parallel._DesignFacts(d, SearchBudget(node_limit=len(classes)))
        assert without.hi is None
        for facts in (without, with_it):
            records = tuple(
                parallel._analyze_one((facts, pc, idx, SearchBudget())) for idx, pc in enumerate(classes)
            )
            assert records == expected

    @pytest.mark.parametrize("nodes", [1, 5, 20, None])
    def test_jobs_do_not_change_records_under_a_budget(self, monkeypatch, nodes):
        # the first 40 Bose STS(27) classes, ten chunks: the design search
        # runs before the pool, found at the default budget only
        sts27 = bose_sts27()
        classes, _ = enumerate_parallel_classes(sts27, limit=40)
        monkeypatch.setattr(parallel, "enumerate_parallel_classes", lambda d: (classes, True))
        budget = SearchBudget(node_limit=nodes)
        serial = analyze_parallel_classes(sts27, budget, jobs=1)
        assert analyze_parallel_classes(sts27, budget, jobs=2) == serial
