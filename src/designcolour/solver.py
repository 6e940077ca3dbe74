"""Exact decision procedures for c-colourability and chromatic numbers.

The solver is a backtracking search over point (or group) colour
assignments with constraint propagation and colour-symmetry breaking.
It takes the colouring modes named in `colouring.MODES`, and checks
every witness with `colouring.check_colouring`.  A "not-colourable"
verdict is only produced after the symmetry-reduced space has been
exhausted, so it is a certificate, not a heuristic answer.

`decide_colourable` searches in up to two passes over one engine:

* the search pass branches on the most-constrained variable, the
  unassigned one with the fewest colours left (lowest index on ties;
  Brelaz, CACM 22(4), 1979).  It decides the instance, and a
  not-colourable verdict is its exhausted tree;
* on a colourable verdict, the witness pass branches in natural variable
  order, so its first solution is the lexicographically least witness.
  A caller that needs only the verdict skips it (`least_witness=False`)
  and gets the search pass's solution, checked the same way.

`SolveResult` reports the nodes of each pass.

`gdd_chromatic_numbers` finds (chi, chi_M) of a GDD searching only the
colour counts that no search-free certificate settles: a Turan-number
lower bound, a pigeonhole lower bound on chi_M when every k-set of groups
holds a block, the checked `upper_bound_colouring`, and chi <= chi_M.

Each decision compiles its design and mode into constraints: each weak
("not all equal") constraint is an int mask of its members, and each
counted constraint a member tuple.  An `_Engine` keeps one mask of
variables per colour, so an assignment checks a weak constraint with two
bit operations.  Its whole state is four small lists (a domain and a
colour per variable, a mask per colour, and the counters of the counted
constraints), so it backtracks by restoring one copy of them rather than
by logging every change.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Iterable, Optional

from .colouring import GROUP_MODES, MODES, Colouring, check_colouring, pair_stats_equitable
from .core import (
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    UnsupportedParameterError,
    _check_table_points,
    _distinct_pairs,
    _require,
)

COLOURABLE = "colourable"
NOT_COLOURABLE = "not-colourable"
BUDGET_EXCEEDED = "budget-exceeded"


class BudgetExceededError(RuntimeError):
    def __init__(self, msg: str, nodes: int = 0):
        super().__init__(msg)
        self.nodes = nodes


@dataclass(frozen=True)
class SearchBudget:
    """Limits on the exhaustive search; node_limit counts assignments tried."""

    node_limit: Optional[int] = 100_000_000
    time_limit: Optional[float] = None

    def __post_init__(self) -> None:
        limit = self.node_limit
        if limit is not None and (not isinstance(limit, int) or limit <= 0):
            raise DesignError("node limit must be positive or None")
        # `not >` rejects nan, whose deadline would never expire
        if self.time_limit is not None and not (self.time_limit > 0):
            raise DesignError("time limit must be positive or None")


@dataclass(frozen=True)
class SolveResult:
    status: str
    c: int
    mode: str
    witness: Optional[Colouring]
    search_nodes: int
    witness_nodes: int

    @property
    def nodes(self) -> int:
        """Nodes of both passes: the search pass and, on a colourable
        verdict, the natural-order pass that picks the least witness
        (none when `least_witness=False`)."""
        return self.search_nodes + self.witness_nodes

    @property
    def colourable(self) -> bool:
        return self.status == COLOURABLE


@dataclass(frozen=True)
class ChromaticResult:
    chi: int
    witness: Colouring
    refutation: Optional[SolveResult]
    mode: str


class _Budget:
    __slots__ = ("node_limit", "deadline", "nodes")

    def __init__(self, budget: SearchBudget):
        self.node_limit = budget.node_limit
        self.deadline = (
            time.monotonic() + budget.time_limit if budget.time_limit else None
        )
        self.nodes = 0

    def spend(self) -> None:
        """Account one node; raises _Exhausted, without counting it, when
        the budget has no node left, so `nodes` is the nodes tried."""
        # a node_limit of None never equals the count
        if self.nodes == self.node_limit:
            raise _Exhausted
        self.nodes += 1
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                raise _Exhausted


class _Exhausted(Exception):
    pass


def _weak_lists(n: int, weak: Iterable[Iterable[int]]) -> list[list[int]]:
    """For each variable, the masks of the weak constraints holding it:
    a mask per member set that `weak` yields, listing its members once,
    goes to each member's list in order, unless an earlier set had the
    same members."""
    var_weak: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    for members in weak:
        mask = 0
        for x in members:
            mask |= 1 << x
        if mask not in seen:
            seen.add(mask)
            for x in members:
                var_weak[x].append(mask)
    return var_weak


class _Engine:
    """Backtracking colourer over 'not all equal' and counted constraints.

    Variables are points, or groups in the group-monochromatic mode.  A
    weak ("not all equal") constraint is the int mask of its members,
    listed in `var_weak[x]` for each member x; it forbids its members from
    being single-coloured.  A counted constraint is a member tuple, and
    `var_ctr[x]` lists the indices of those holding x; it bounds every
    colour's count within its members by [floor, cap], both computed from
    the colour count.  Domains are bitmasks; an assignment strips or
    restricts the domains it rules out, and a domain left with one colour
    forces that colour, cascading until nothing changes or a constraint
    fails.

    Colour classes are int masks: `cls[colour]` holds the variables
    assigned that colour.  Assigning x the colour r sets x's bit in
    `cls[r]`; for each weak mask m on x, `rest = m & ~cls[r]` is the
    members not coloured r.  An empty `rest` is a single-coloured
    constraint, a failure; a single bit whose variable is unassigned
    loses r from its domain.  Counted constraint ci keeps c + 2 entries
    of the flat list `ctr` from ci * (c + 2): its count of each colour,
    its members left unassigned and its total floor deficit.

    `search` runs one depth-first pass.  The branching variable is the
    unassigned one with the fewest colours left in its domain (lowest
    index on ties) when `most_constrained` is set, and the lowest-index
    unassigned one otherwise; colours are tried in ascending order, and a
    variable may take at most one colour above the highest used so far,
    which breaks the symmetry between unused colours.

    The state is the four lists `dom`, `cls`, `colour` and `ctr`, and undo
    is by one copy of them.  A `_dfs` frame with more than one colour to
    try copies them before its first branch and restores them before each
    later one; a failed frame leaves its last branch for its caller to
    undo, and `search` restores the initial state at the end.  `max_used`
    is restored by each `_dfs` frame.
    """

    def __init__(
        self,
        n: int,
        var_weak: list[list[int]],
        counted: list[tuple[int, ...]],
        c: int,
        budget: _Budget,
    ):
        self.n = n
        self.c = c
        self.var_weak = var_weak
        self.counted = counted
        self.var_ctr: list[list[int]] = [[] for _ in range(n)]
        for ci, members in enumerate(counted):
            for x in members:
                self.var_ctr[x].append(ci)
        sizes = [len(m) for m in counted]
        self.caps = [-(-size // c) for size in sizes]
        self.floors = [size // c for size in sizes]
        self.budget = budget
        self.colour = [-1] * n
        self.dom = [(1 << c) - 1] * n
        self.cls = [0] * c
        self.ctr: list[int] = []
        for size, fl in zip(sizes, self.floors):
            self.ctr += [0] * c + [size, c * fl]
        self.max_used = -1

    def _restrict(self, y: int, mask: int, forced: list) -> bool:
        dom = self.dom
        old = dom[y]
        new = old & mask
        if new == old:
            return True
        if new == 0:
            return False
        dom[y] = new
        if new & (new - 1) == 0:
            forced.append((y, new.bit_length() - 1))
        return True

    def _assign(self, x0: int, colr0: int) -> bool:
        c = self.c
        colour = self.colour
        dom = self.dom
        cls = self.cls
        ctr = self.ctr
        floors, caps = self.floors, self.caps
        counted = self.counted
        forced = [(x0, colr0)]
        while forced:
            x, colr = forced.pop()
            if colour[x] != -1:
                if colour[x] != colr:
                    return False
                continue
            bit = 1 << colr
            if not dom[x] & bit:
                return False
            colour[x] = colr
            if colr > self.max_used:
                self.max_used = colr
            same = cls[colr] | (1 << x)
            cls[colr] = same
            others = ~same
            for mask in self.var_weak[x]:
                rest = mask & others
                if not rest:
                    return False
                if not rest & (rest - 1):
                    y = rest.bit_length() - 1
                    old = dom[y]
                    if old & bit and colour[y] == -1:
                        if old == bit:
                            return False
                        dom[y] = old = old ^ bit
                        if not old & (old - 1):
                            forced.append((y, old.bit_length() - 1))
            strip = ~bit
            for ci in self.var_ctr[x]:
                base = ci * (c + 2)
                cnt = ctr[base + colr] + 1
                ctr[base + colr] = cnt
                left = ctr[base + c] - 1
                ctr[base + c] = left
                fl = floors[ci]
                deficit = ctr[base + c + 1]
                if cnt <= fl:
                    deficit -= 1
                    ctr[base + c + 1] = deficit
                if cnt > caps[ci] or deficit > left:
                    return False
                if cnt == caps[ci]:
                    for y in counted[ci]:
                        if colour[y] == -1:
                            if not self._restrict(y, strip, forced):
                                return False
                if deficit == left and left > 0:
                    need = 0
                    for cc in range(c):
                        if ctr[base + cc] < fl:
                            need |= 1 << cc
                    for y in counted[ci]:
                        if colour[y] == -1:
                            if not self._restrict(y, need, forced):
                                return False
        return True

    def search(self, most_constrained: bool) -> Optional[list[int]]:
        """First solution of one depth-first pass, or None.

        The engine is back in its initial state afterwards, so it can run
        another pass.  Raises _Exhausted via the budget when limits run out.
        """
        dom, cls, colour, ctr = self.dom, self.cls, self.colour, self.ctr
        initial = (dom[:], cls[:], colour[:], ctr[:])
        solution = colour[:] if self._dfs(most_constrained) else None
        dom[:], cls[:], colour[:], ctr[:] = initial
        self.max_used = -1
        return solution

    def _dfs(self, most_constrained: bool) -> bool:
        """Extend the current assignment depth first; a failure leaves the
        last branch tried for `search` to restore.  The open frame (x,
        start, saved, the colours still allowed, snapshot) lives in locals,
        and the frames above it that have a colour left wait on `stack`,
        so depth costs no recursion.  A frame on its last colour is not
        kept: its failure falls to the nearest frame with a colour left,
        whose snapshot undoes it."""
        dom, cls, colour, ctr = self.dom, self.cls, self.colour, self.ctr
        n, c = self.n, self.c
        spend = self.budget.spend
        stack: list[tuple] = []
        start = 0
        while True:
            while start < n and colour[start] != -1:
                start += 1
            if start == n:
                return True
            x = start
            if most_constrained:
                fewest = dom[x].bit_count()
                for y in range(x + 1, n):
                    if colour[y] == -1:
                        size = dom[y].bit_count()
                        if size < fewest:
                            x, fewest = y, size
            saved = self.max_used
            allowed = dom[x] & ((1 << min(saved + 2, c)) - 1)
            snapshot = None
            while True:
                while not allowed:
                    if not stack:
                        return False
                    x, start, saved, allowed, snapshot = stack.pop()
                bit = allowed & -allowed
                allowed ^= bit
                spend()
                if snapshot is not None:
                    dom[:], cls[:], colour[:], ctr[:] = snapshot
                    self.max_used = saved
                elif allowed:
                    snapshot = (dom[:], cls[:], colour[:], ctr[:])
                if self._assign(x, bit.bit_length() - 1):
                    if allowed:
                        stack.append((x, start, saved, allowed, snapshot))
                    break


def _build_problem(
    d: Design, g: Optional[Grouping], mode: str
) -> tuple[int, list[list[int]], list[tuple[int, ...]]]:
    """Translate a design and mode into the engine's variable count, weak
    masks per variable and counted member tuples.

    For the group-monochromatic mode the variables are groups, not points.
    """
    if mode not in MODES:
        raise DesignError(f"unknown colouring mode {mode!r}")
    _check_table_points(d.v, "a colouring search")
    if mode in GROUP_MODES and g is None:
        raise UnsupportedParameterError(f"mode {mode!r} requires a grouping")
    if mode == "weak":
        return d.v, _weak_lists(d.v, d.blocks), []
    if mode == "block-equitable":
        # blocks are sorted tuples, so equal blocks are equal tuples
        return d.v, _weak_lists(d.v, ()), list(dict.fromkeys(d.blocks))
    if g is None:
        raise InternalConsistencyError(f"mode {mode!r} reached without a grouping")
    if mode == "group-monochromatic":
        gi = g.group_index
        return g.u, _weak_lists(g.u, ({gi[p] for p in blk} for blk in d.blocks)), []
    return d.v, _weak_lists(d.v, d.blocks), list(g.groups)


def decide_colourable(
    d: Design,
    g: Optional[Grouping],
    c: int,
    mode: str,
    budget: Optional[SearchBudget] = None,
    least_witness: bool = True,
) -> SolveResult:
    """Exact decision of c-colourability under the given mode.

    A colourable verdict carries the lexicographically least witness (in
    point-major order), so results are reproducible run to run.  With
    `least_witness=False` no witness pass runs, and the witness is the
    search pass's solution, checked the same way.
    """
    if c < 1:
        raise DesignError("colour count must be at least 1")
    tracker = _Budget(budget or SearchBudget())
    engine = _Engine(*_build_problem(d, g, mode), c, tracker)
    try:
        solution = engine.search(most_constrained=True)
    except _Exhausted:
        return SolveResult(BUDGET_EXCEEDED, c, mode, None, tracker.nodes, 0)
    search_nodes = tracker.nodes
    if solution is None:
        return SolveResult(NOT_COLOURABLE, c, mode, None, search_nodes, 0)
    if least_witness:
        try:
            solution = engine.search(most_constrained=False)
        except _Exhausted:
            return SolveResult(
                BUDGET_EXCEEDED, c, mode, None, search_nodes, tracker.nodes - search_nodes
            )
        if solution is None:
            raise InternalConsistencyError("the witness pass found no colouring, the search pass did")
    if mode == "group-monochromatic":
        if g is None:
            raise InternalConsistencyError("group witness without a grouping")
        witness = Colouring(c, tuple(solution[gi] for gi in g.group_index))
    else:
        witness = Colouring(c, tuple(solution))
    _require(check_colouring(d, g, witness, mode), InternalConsistencyError, "solver produced an invalid witness")
    return SolveResult(
        COLOURABLE, c, mode, witness, search_nodes, tracker.nodes - search_nodes
    )


def _first_colourable(
    d: Design,
    g: Optional[Grouping],
    mode: str,
    counts: Iterable[int],
    budget: SearchBudget,
    least_witness: bool = True,
) -> tuple[Optional[SolveResult], Optional[SolveResult]]:
    """Decide the colour counts in order up to the first colourable one.

    Returns that decision, or None when every count is refuted, and the
    last refutation before it.  One budget spans the decisions: its node
    limit bounds their nodes together, and its time limit is one deadline
    for all of them.  BudgetExceededError carries the nodes spent.
    """
    deadline = time.monotonic() + budget.time_limit if budget.time_limit else None
    spent = 0
    refutation: Optional[SolveResult] = None
    for c in counts:
        # Each decision gets what is left of the budget.  Every decision
        # on a design with blocks tries at least one node, so nothing left
        # means this one would exceed.
        node_limit = budget.node_limit
        if node_limit is not None:
            node_limit -= spent
        time_limit = None if deadline is None else deadline - time.monotonic()
        if (node_limit is not None and node_limit <= 0) or (
            time_limit is not None and time_limit <= 0
        ):
            raise BudgetExceededError(
                f"budget exhausted before deciding {c}-colourability", spent
            )
        result = decide_colourable(
            d, g, c, mode, SearchBudget(node_limit, time_limit), least_witness
        )
        spent += result.nodes
        if result.status == BUDGET_EXCEEDED:
            raise BudgetExceededError(
                f"budget exhausted while deciding {c}-colourability", spent
            )
        if result.status == COLOURABLE:
            return result, refutation
        refutation = result
    return None, refutation


def _reject_block_inside_a_group(d: Design, g: Grouping) -> None:
    """A block inside one group is monochromatic under every
    group-monochromatic colouring, so no chi_M exists; name the block."""
    gi = g.group_index
    for blk in d.blocks:
        first = gi[blk[0]]
        if all(gi[p] == first for p in blk):
            raise DesignError(
                f"block {blk} lies inside one group, so no group-monochromatic colouring exists"
            )


def chromatic_number(
    d: Design,
    g: Optional[Grouping] = None,
    mode: str = "weak",
    budget: Optional[SearchBudget] = None,
) -> ChromaticResult:
    """Least c admitting a colouring in the given mode, with certificates.

    Only the weak and group-monochromatic notions have a well-defined
    minimum (equitable colourability is not monotone in c), so other modes
    are rejected.  One budget spans the whole call: its node limit bounds
    the nodes of every colour count together, and its time limit is one
    deadline for all of them.
    """
    if mode not in ("weak", "group-monochromatic"):
        raise DesignError(f"chromatic number is defined only for weak and group-monochromatic modes, not {mode!r}")
    if mode == "group-monochromatic" and g is not None:
        _reject_block_inside_a_group(d, g)
    limit = max(d.v, 1) if mode == "weak" else (g.u if g is not None else 1)
    result, refutation = _first_colourable(
        d, g, mode, range(1, limit + 2), budget or SearchBudget()
    )
    if result is None:
        raise InternalConsistencyError("search exceeded the rainbow colouring bound")
    if d.blocks and result.c == 1:
        # One colour makes any block monochromatic, so a design with
        # blocks always carries the refutation at c=1.
        raise InternalConsistencyError("a design with blocks cannot be 1-colourable")
    if result.witness is None:
        raise InternalConsistencyError("colourable result without a witness")
    return ChromaticResult(result.c, result.witness, refutation, mode)


def chromatic_lower_bound(d: Design) -> int:
    """A lower bound on the weak chromatic number that needs no search.

    It is 1 without blocks and 2 with them, as one colour leaves every
    block monochromatic.  When no pair lies in two blocks, the Turan
    certificate raises it: a block that is not monochromatic holds at
    least |B| - 1 pairs of distinct colours, and a c-colouring of v points
    has at most `pair_stats_equitable(v, c).nm` of them (Turan's theorem),
    so sum(|B| - 1) > nm refutes c colours.  Every group-monochromatic
    colouring is weak, so the bound holds for chi_M too.
    """
    if not d.blocks:
        return 1
    if _distinct_pairs(d) is None:
        return 2
    return _turan_bound(d.v, sum(len(blk) - 1 for blk in d.blocks))


def _turan_bound(v: int, need: int) -> int:
    """The least c >= 2 whose c-colourings of v points can hold `need`
    pairs of distinct colours: `chromatic_lower_bound` of a design with
    blocks and no repeated pair, need = sum(|B| - 1)."""
    c = 2
    while pair_stats_equitable(v, c).nm < need:
        c += 1
    return c


def _met_group_sets(d: Design, g: Grouping) -> set[int]:
    """The k-sets of groups that some block meets exactly, k = d.k, as
    masks: bit i stands for group i.  A block's mask has k bits when it
    meets exactly k groups."""
    bits = [1 << gi for gi in g.group_index]
    k = d.k
    met = set()
    for blk in d.blocks:
        mask = 0
        for p in blk:
            mask |= bits[p]
        if mask.bit_count() == k:
            met.add(mask)
    return met


def gdd_chromatic_numbers(
    d: Design, g: Grouping, budget: Optional[SearchBudget] = None
) -> tuple[Optional[int], Optional[int]]:
    """(chi, chi_M) of a GDD, searching only what no certificate settles.

    `chromatic_lower_bound` gives lo <= chi <= chi_M, and the checked
    `upper_bound_colouring` gives chi_M <= top.  When every one of the
    C(u, k) k-sets of groups is met by a block, the pigeonhole bound
    raises chi_M's lower bound to ceil(u / (k - 1)): fewer colours put k
    groups on one colour, and a block inside them is monochromatic.
    chi_M is the least c from that bound below top whose
    group-monochromatic decision is colourable, else top; chi is the
    least c in [lo, chi_M) whose weak decision is colourable, else chi_M,
    as every group-monochromatic colouring is weak.  No decision runs a
    witness pass.  A block inside one group raises DesignError from
    `upper_bound_colouring`: no chi_M exists.

    Each of the two searches gets the whole budget.  A value reads None
    when its search runs out; the other is kept, and a lost chi_M leaves
    the chi search bounded by top.
    """
    return _gdd_chromatic_numbers(d, g, budget, chromatic_lower_bound(d))


def _gdd_chromatic_numbers(
    d: Design,
    g: Grouping,
    budget: Optional[SearchBudget],
    lo: int,
    hi: Optional[int] = None,
) -> tuple[Optional[int], Optional[int]]:
    """`gdd_chromatic_numbers`, given lo = `chromatic_lower_bound(d)` and,
    when known, hi: the colour count of a checked weak colouring of d.
    chi is then searched below hi only, and is hi when nothing below is
    colourable; chi_M is found as without it."""
    budget = budget or SearchBudget()
    met = _met_group_sets(d, g)
    top = _upper_bound_colouring(d, g, met)
    lo_m = lo
    if d.blocks and len(met) == comb(g.u, d.k):
        lo_m = max(lo, -(-g.u // (d.k - 1)))
    if lo_m > top.c:
        raise InternalConsistencyError(f"lower bound {lo_m} exceeds the colouring with {top.c} colours")
    if hi is not None and hi < lo:
        raise InternalConsistencyError(f"lower bound {lo} exceeds the weak colouring with {hi} colours")

    def least(grouping: Optional[Grouping], mode: str, start: int, stop: int) -> Optional[int]:
        try:
            found, _ = _first_colourable(d, grouping, mode, range(start, stop), budget, False)
        except BudgetExceededError:
            return None
        return stop if found is None else found.c

    chi_m = least(g, "group-monochromatic", lo_m, top.c)
    stop = top.c if chi_m is None else chi_m
    if hi is not None:
        stop = min(stop, hi)
    chi = least(None, "weak", lo, stop)
    return chi, chi_m


def upper_bound_colouring(d: Design, g: Grouping) -> Colouring:
    """A group-monochromatic colouring, checked, certifying chi_M <= its c.

    Groups are split into runs of k_min - 1 consecutive groups and each run
    takes one colour.  When every block meets at least k_min groups, as in
    any GDD, every block meets two runs, so chi_M <= ceil(u / (k_min - 1)).
    When (k_min - 1) divides u - 1, a k_min-set of groups that no block
    meets exactly saves a colour: the lexicographically first such set
    takes colour 0 and the other groups, in ascending order, runs of
    k_min - 1 from colour 1, so chi_M <= (u - 1) / (k_min - 1).  This
    colouring is tried first.  A block with two points in one group may
    lie inside one colour; then one colour per group is returned if it
    passes, and a block inside one group, which no group-monochromatic
    colouring serves, raises DesignError.
    """
    return _upper_bound_colouring(d, g, _met_group_sets(d, g))


def _upper_bound_colouring(d: Design, g: Grouping, met: set[int]) -> Colouring:
    """`upper_bound_colouring`, given `_met_group_sets(d, g)`."""
    k_min = d.k
    if k_min < 2:
        if d.blocks:
            raise DesignError("blocks of size below 2 are not supported")
        return Colouring(1, tuple(0 for _ in range(d.v)))
    u = g.u
    chunk = k_min - 1
    candidates = [[gi // chunk for gi in range(u)], list(range(u))]
    if (u - 1) % chunk == 0 and len(met) < comb(u, k_min):
        # Of any len(met) + 1 k-sets one is unmet, so hostile input
        # scans at most b + 1 of them.
        for unmet in islice(combinations(range(u), k_min), len(met) + 1):
            if sum(1 << gi for gi in unmet) not in met:
                colours = [0] * u
                rest = [gi for gi in range(u) if gi not in unmet]
                for j, gi in enumerate(rest):
                    colours[gi] = 1 + j // chunk
                candidates.insert(0, colours)
                break
    for colours in candidates:
        col = Colouring(max(colours) + 1, tuple(colours[gi] for gi in g.group_index))
        if check_colouring(d, g, col, "group-monochromatic").passed:
            return col
    _reject_block_inside_a_group(d, g)
    raise InternalConsistencyError("one colour per group leaves a block monochromatic")
