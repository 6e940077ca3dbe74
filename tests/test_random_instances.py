"""Randomized cross-checks: solver vs enumeration and vs its earlier
engine, validators vs pair loops, files vs round-trip."""
from collections import Counter
from functools import lru_cache
from itertools import combinations, product
from math import comb

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
from designcolour.colouring import GROUP_MODES, MODES
from designcolour.core import (
    _MASK_BITS_PER_COVER,
    _distinct_pairs,
    _mask_pairs,
    _neighbour_masks,
    _pair_covers,
)
from designcolour.packings import max_equitable_packing
from designcolour.td import build_td
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


def oracle_masks(d):
    """For each point q, the bits of the points p < q sharing a block with
    it, or 0 when there are none, from the pairs of each block."""
    masks = [0] * d.v
    for blk in d.blocks:
        for p, q in combinations(sorted(blk), 2):
            masks[q] |= 1 << p
    return masks


@lru_cache(maxsize=None)
def wide_packing(v):
    return max_equitable_packing(v).design


@st.composite
def validator_cases(draw):
    """A design with a grouping: random blocks (mixed sizes, repeated and
    over-covered pairs, within-group pairs); a relabelled BIBD or GDD,
    possibly with lambda 2 and a block dropped or repeated; or a maximum
    packing on 65-130 points, wider than one machine word, possibly cut
    to a few blocks (a sparse design), with lambda 2, or with up to three
    blocks given one point swapped, and grouped by residue or with all but
    at most three points in one group."""
    source = draw(st.sampled_from(["random", "catalog", "wide"]))
    if source == "wide":
        v = draw(st.integers(65, 130))
        blocks = [list(blk) for blk in wide_packing(v).blocks]
        if draw(st.booleans()):
            del blocks[draw(st.integers(0, 8)):]
        for _ in range(draw(st.integers(0, min(3, len(blocks))))):
            blk = blocks[draw(st.integers(0, len(blocks) - 1))]
            pos = draw(st.integers(0, len(blk) - 1))
            blk[pos] = draw(st.sampled_from([p for p in range(v) if p not in blk]))
        if draw(st.booleans()):
            labels = [0] * v
            for p in draw(st.lists(st.integers(0, v - 1), max_size=3, unique=True)):
                labels[p] = p + 1
        else:
            groups_mod = draw(st.integers(1, 4))
            labels = [p % groups_mod for p in range(v)]
        lambda_ = draw(st.integers(1, 2))
    elif source == "random":
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


@st.composite
def mixed_block_designs(draw):
    """A lambda = 1 design on 5-40 points, some of them on no block: 1-30
    blocks of 2-6 points, mixed in size, some holding a pair of an earlier
    block again."""
    rng = draw(st.randoms(use_true_random=False))
    v = draw(st.integers(5, 40))
    used = rng.sample(range(v), draw(st.integers(2, v)))
    blocks = []
    for _ in range(draw(st.integers(1, 30))):
        size = draw(st.integers(2, min(6, len(used))))
        if blocks and draw(st.integers(0, 3)) == 0:
            pair = rng.sample(rng.choice(blocks), 2)
            blocks.append(pair + rng.sample([p for p in used if p not in pair], size - 2))
        else:
            blocks.append(rng.sample(used, size))
    return Design(v, tuple(map(tuple, blocks)))


@settings(max_examples=200, deadline=None)
@given(mixed_block_designs())
def test_mask_kernel_matches_pair_oracles(design):
    counts = oracle_pair_counts(design)
    covers = sum(comb(len(blk), 2) for blk in design.blocks)
    sizes = Counter(map(len, design.blocks))
    assert design._sizes == sizes
    assert Design._from_canonical(design.v, design.blocks, 1)._sizes == sizes
    assert _pair_covers(design) == covers
    masks = _neighbour_masks(design)
    if design.v * design.v > _MASK_BITS_PER_COVER * covers:
        assert masks is None
    else:
        assert masks == oracle_masks(design)
        assert _mask_pairs(masks) == len(counts)
    assert _distinct_pairs(design) == (len(counts) if len(counts) == covers else None)
    report, leave = validate_packing(design)
    violations, details, edges = oracle_packing(design)
    assert (report.violations, report.details) == (tuple(violations), details)
    assert (leave.edges, leave.edge_count) == (edges, len(edges))


# Reference engine: the solver's engine as it was before colour classes
# became bitsets and problems were compiled once per design.  Weak
# constraints there keep a counter per colour and an assigned count per
# constraint; the search tree, and so every node count, must not change.


class Unbounded:
    def __init__(self):
        self.nodes = 0

    def spend(self):
        self.nodes += 1
        return True


class CounterEngine:
    """The counter-based engine: weak constraints count each colour."""

    def __init__(
        self,
        n: int,
        c: int,
        weak: list[tuple[int, ...]],
        counted: list[tuple[tuple[int, ...], int, int]],
        budget,
    ):
        self.n = n
        self.c = c
        self.weak = weak
        self.w_size = [len(m) for m in weak]
        self.counted = [m for m, _, _ in counted]
        self.caps = [cap for _, cap, _ in counted]
        self.floors = [fl for _, _, fl in counted]
        self.budget = budget
        self.var_weak: list[list[int]] = [[] for _ in range(n)]
        for ci, members in enumerate(weak):
            for x in members:
                self.var_weak[x].append(ci)
        self.var_ctr: list[list[int]] = [[] for _ in range(n)]
        for ci, (members, _, _) in enumerate(counted):
            for x in members:
                self.var_ctr[x].append(ci)
        self.colour = [-1] * n
        self.dom = [(1 << c) - 1] * n
        self.w_cnt = [0] * (c * len(weak))
        self.w_ass = [0] * len(weak)
        self.t_cnt = [0] * (c * len(counted))
        self.t_ass = [0] * len(counted)
        self.deficit = [c * fl for fl in self.floors]
        self.max_used = -1
        self.most_constrained = False

    def _restrict(self, y: int, mask: int, trail: list, forced: list) -> bool:
        dom = self.dom
        old = dom[y]
        new = old & mask
        if new == old:
            return True
        if new == 0:
            return False
        trail.append(old)
        trail.append(~y)
        dom[y] = new
        if new & (new - 1) == 0:
            forced.append((y, new.bit_length() - 1))
        return True

    def _assign(self, x0: int, colr0: int, trail: list) -> bool:
        c = self.c
        colour = self.colour
        dom = self.dom
        w_cnt, w_ass, w_size = self.w_cnt, self.w_ass, self.w_size
        t_cnt, t_ass = self.t_cnt, self.t_ass
        floors, caps, deficit = self.floors, self.caps, self.deficit
        weak, counted = self.weak, self.counted
        forced = [(x0, colr0)]
        while forced:
            x, colr = forced.pop()
            if colour[x] != -1:
                if colour[x] != colr:
                    return False
                continue
            if not (dom[x] >> colr) & 1:
                return False
            colour[x] = colr
            trail.append(x)
            if colr > self.max_used:
                self.max_used = colr
            var_weak = self.var_weak[x]
            var_ctr = self.var_ctr[x]
            for ci in var_weak:
                w_cnt[ci * c + colr] += 1
                w_ass[ci] += 1
            for ci in var_ctr:
                k = ci * c + colr
                if t_cnt[k] < floors[ci]:
                    deficit[ci] -= 1
                t_cnt[k] += 1
                t_ass[ci] += 1
            strip = ~(1 << colr)
            for ci in var_weak:
                cnt = w_cnt[ci * c + colr]
                size = w_size[ci]
                if cnt == size:
                    return False
                if w_ass[ci] == size - 1 and cnt == size - 1:
                    for y in weak[ci]:
                        if colour[y] == -1:
                            if not self._restrict(y, strip, trail, forced):
                                return False
                            break
            for ci in var_ctr:
                cnt = t_cnt[ci * c + colr]
                if cnt > caps[ci]:
                    return False
                members = counted[ci]
                remaining = len(members) - t_ass[ci]
                if deficit[ci] > remaining:
                    return False
                if cnt == caps[ci]:
                    for y in members:
                        if colour[y] == -1:
                            if not self._restrict(y, strip, trail, forced):
                                return False
                if deficit[ci] == remaining and remaining > 0:
                    fl = floors[ci]
                    base = ci * c
                    need = 0
                    for cc in range(c):
                        if t_cnt[base + cc] < fl:
                            need |= 1 << cc
                    for y in members:
                        if colour[y] == -1:
                            if not self._restrict(y, need, trail, forced):
                                return False
        return True

    def _undo(self, trail: list, mark: int) -> None:
        c = self.c
        colour = self.colour
        w_cnt, w_ass = self.w_cnt, self.w_ass
        t_cnt, t_ass = self.t_cnt, self.t_ass
        floors, deficit = self.floors, self.deficit
        dom, var_weak, var_ctr = self.dom, self.var_weak, self.var_ctr
        while len(trail) > mark:
            x = trail.pop()
            if x < 0:
                dom[~x] = trail.pop()
                continue
            colr = colour[x]
            colour[x] = -1
            for ci in var_weak[x]:
                w_cnt[ci * c + colr] -= 1
                w_ass[ci] -= 1
            for ci in var_ctr[x]:
                k = ci * c + colr
                t_cnt[k] -= 1
                t_ass[ci] -= 1
                if t_cnt[k] < floors[ci]:
                    deficit[ci] += 1

    def search(self, most_constrained: bool):
        """First solution of one depth-first pass, or None.

        The engine is back in its initial state afterwards, so it can run
        another pass.  Raises _Exhausted via the budget when limits run out.
        """
        self.most_constrained = most_constrained
        trail: list[int] = []
        solution = list(self.colour) if self._dfs(0, trail) else None
        self._undo(trail, 0)
        self.max_used = -1
        return solution

    def _dfs(self, start: int, trail: list) -> bool:
        """Extend the current assignment; variables below `start` are set."""
        colour = self.colour
        dom = self.dom
        n = self.n
        while start < n and colour[start] != -1:
            start += 1
        if start == n:
            return True
        x = start
        if self.most_constrained:
            fewest = dom[x].bit_count()
            for y in range(x + 1, n):
                if colour[y] == -1:
                    size = dom[y].bit_count()
                    if size < fewest:
                        x, fewest = y, size
        saved = self.max_used
        allowed = dom[x] & ((1 << min(saved + 2, self.c)) - 1)
        colr = 0
        while allowed:
            if allowed & 1:
                if not self.budget.spend():
                    raise RuntimeError("unbounded search ran out")
                mark = len(trail)
                if self._assign(x, colr, trail) and self._dfs(start, trail):
                    return True
                self._undo(trail, mark)
                self.max_used = saved
            allowed >>= 1
            colr += 1
        return False


def oracle_dedupe(seqs) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for s in seqs:
        t = tuple(sorted(s))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def oracle_build_problem(d, g, c, mode):
    """(n_vars, weak, counted); for the group-monochromatic mode the
    variables are groups, not points."""
    if mode == "weak":
        return d.v, oracle_dedupe(d.blocks), []
    if mode == "block-equitable":
        counted = [
            (blk, -(-len(blk) // c), len(blk) // c) for blk in oracle_dedupe(d.blocks)
        ]
        return d.v, [], counted
    if mode == "group-monochromatic":
        gi = g.group_index
        return g.u, oracle_dedupe({gi[p] for p in blk} for blk in d.blocks), []
    counted = [(grp, -(-len(grp) // c), len(grp) // c) for grp in g.groups]
    return d.v, oracle_dedupe(d.blocks), counted


def oracle_decide(d, g, c, mode):
    """(status, witness, search_nodes, witness_nodes) from the reference
    engine, with the two passes of `decide_colourable`."""
    budget = Unbounded()
    n, weak, counted = oracle_build_problem(d, g, c, mode)
    engine = CounterEngine(n, c, weak, counted, budget)
    solution = engine.search(most_constrained=True)
    search_nodes = budget.nodes
    if solution is None:
        return "not-colourable", None, search_nodes, 0
    solution = engine.search(most_constrained=False)
    if mode == "group-monochromatic":
        solution = [solution[gi] for gi in g.group_index]
    return "colourable", tuple(solution), search_nodes, budget.nodes - search_nodes


@st.composite
def engine_cases(draw):
    """Mixed-size blocks, possibly repeated, with a random grouping that
    may put a whole block in one group."""
    v = draw(st.integers(2, 9))
    blocks = draw(st.lists(
        st.lists(st.integers(0, v - 1), min_size=2, max_size=min(v, 5), unique=True),
        max_size=16,
    ))
    labels = draw(st.lists(st.integers(0, 3), min_size=v, max_size=v))
    groups = {}
    for p, label in enumerate(labels):
        groups.setdefault(label, []).append(p)
    return Design(v, tuple(map(tuple, blocks))), Grouping(v, tuple(map(tuple, groups.values())))


@settings(max_examples=300, deadline=None)
@given(engine_cases())
def test_engine_matches_counter_engine(case):
    # Every colour count in turn on one design object, so the compiled
    # problem is shared across counts as it is in chromatic_number.
    design, grouping = case
    for mode in MODES:
        for c in (1, 2, 3):
            result = decide_colourable(design, grouping, c, mode)
            witness = result.witness.assignment if result.witness else None
            got = (result.status, witness, result.search_nodes, result.witness_nodes)
            assert got == oracle_decide(design, grouping, c, mode), (mode, c)


def deep_instances():
    """Fixed designs larger than the drawn ones, with the deepest tree of
    each noted."""
    sts13 = catalog_get("sts13").design
    sts21 = catalog_get("sts21").design
    td44 = catalog_get("td44")
    return [
        pytest.param(sts13, None, id="sts13"),
        pytest.param(td44.design, td44.grouping, id="td44"),
        pytest.param(*delete_point(sts13, 0), id="sts13-less-a-point"),
        # group-equitable: 909 nodes at c=2
        pytest.param(*build_td(4, 5), id="td45"),
        # group-equitable: 10,233 nodes at c=2, over 28 variables
        pytest.param(*build_td(4, 7), id="td47"),
        # group-equitable: 683 nodes at c=3
        pytest.param(*delete_point(sts21, 0), id="sts21-less-a-point"),
        # block-equitable: 523 nodes at c=3
        pytest.param(catalog_get("pack24").design, None, id="pack24"),
        # weak: 7354 nodes at c=3
        pytest.param(sts21, None, id="sts21"),
    ]


@pytest.mark.parametrize("design, grouping", deep_instances())
def test_engine_matches_counter_engine_on_deep_trees(design, grouping):
    # The drawn designs have at most 9 points, so their trees are a few
    # levels deep; these have 12 to 28 variables, and a branch may restore
    # state that many assignments have changed.
    for mode in MODES:
        if grouping is None and mode in GROUP_MODES:
            continue
        for c in (2, 3):
            result = decide_colourable(design, grouping, c, mode)
            witness = result.witness.assignment if result.witness else None
            got = (result.status, witness, result.search_nodes, result.witness_nodes)
            assert got == oracle_decide(design, grouping, c, mode), (mode, c)
