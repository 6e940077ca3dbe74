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
("not all equal") constraint is an int mask per member, and each counted
constraint a member tuple.  An `_Engine` keeps one mask of variables per
colour, so an assignment checks a weak constraint with a few bit
operations.  A member's mask of a constraint with three or more members
holds only the other members, so an assignment passes over it with one
test while none of them has the colour, as a watched literal is passed
over until it can act (Moskewicz et al., "Chaff", DAC 2001).  The
engine's whole state is two small lists (one entry per variable, its
domain or its colour, followed by the counters of the counted
constraints; and a mask per colour), so it backtracks by restoring one
copy of them rather than by logging every change.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
from typing import Callable, Collection, Iterable, Optional

from .colouring import Colouring, _require_mode, check_colouring, pair_stats_equitable
from .core import (
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    _check_table_points,
    _distinct_pairs,
    _require,
    _require_points,
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


class _Exhausted(Exception):
    pass


def _weak_lists(n: int, weak: Iterable[Collection[int]]) -> list[list[int]]:
    """For each variable, the masks of the weak constraints holding it.

    Each member set that `weak` yields, listing its members once, puts a
    mask in each member's list in order, unless an earlier set had the
    same members.  A set of three or more puts in x's list the mask of its
    other members, so `assign` can skip it while none of them has x's
    colour; a set of one or two puts its full mask, x's bit included,
    which is never skipped."""
    var_weak: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    for members in weak:
        mask = 0
        for x in members:
            mask |= 1 << x
        if mask not in seen:
            seen.add(mask)
            drop = len(members) > 2
            for x in members:
                var_weak[x].append(mask ^ drop << x)
    return var_weak


class _Engine:
    """Backtracking colourer over 'not all equal' and counted constraints.

    Variables are points, or groups in the group-monochromatic mode.  A
    weak ("not all equal") constraint forbids its members from being
    single-coloured.  `var_weak[x]` lists a mask for each one holding x
    (`_weak_lists`): its other members when it has three or more, all of
    its members, x included, when it has one or two.  A counted
    constraint bounds every colour's count within its members by
    [floor, cap], both computed from the colour count.  Domains are
    bitmasks; an assignment strips or restricts the domains it rules
    out, and a domain left with one colour forces that colour, cascading
    until nothing changes or a constraint fails.

    The list `st` holds one entry per variable: its domain while it is
    unassigned (always positive), and ~colour (negative) once it is
    assigned.  After the n variables, counted constraint ci keeps c + 2
    entries: its count of each colour, its members left unassigned and
    its total floor deficit.  Colour classes are int masks: `cls[colour]`
    holds the variables assigned that colour.  Assigning x the colour r
    sets x's bit in `cls[r]`.  A weak mask m on x that meets no variable
    of `cls[r]` is skipped: it holds other members only, at least two of
    them lack r, and the constraint can neither fail nor force.  For the
    rest, `rest = m & ~cls[r]` is the members not coloured r.  An empty
    `rest` is a single-coloured constraint, a failure; a single bit whose
    variable is unassigned loses r from its domain.

    `search` runs one depth-first pass.  The branching variable is the
    unassigned one with the fewest colours left in its domain (lowest
    index on ties) when `most_constrained` is set, and the lowest-index
    unassigned one otherwise; colours are tried in ascending order, and a
    variable may take at most one colour above the highest used so far
    (the highest non-empty colour class), which breaks the symmetry
    between unused colours.  Propagation assigns every domain left with one colour
    before an assignment succeeds, so no unassigned domain has fewer than
    min(2, c) colours, and the scan stops at the first one with that many.

    The state is the two lists `st` and `cls`, and undo is by one copy of
    them.  A `search` frame with more than one colour to try copies them
    before its first branch and restores them before each later one; a
    failed frame leaves its last branch for its caller to undo, and the
    pass restores the initial state at the end.
    """

    def __init__(
        self,
        n: int,
        var_weak: list[list[int]],
        counted: list[tuple[int, ...]],
        c: int,
        budget: SearchBudget,
    ):
        # the budget's limits and the nodes tried: `search` tests the node
        # limit before counting a node, so a stopped search reports the
        # nodes it tried, and checks the deadline at every 256th node
        self.node_limit = budget.node_limit
        self.deadline = time.monotonic() + budget.time_limit if budget.time_limit else None
        self.nodes = 0
        self.n = n
        self.c = c
        self.st = [(1 << c) - 1] * n
        self.cls = [0] * c
        # var_ctr[x]: (first counter in st, floor, cap, members) of each
        # counted constraint holding x
        var_ctr: list[list[tuple]] = [[] for _ in range(n)]
        for members in counted:
            size = len(members)
            fl = size // c
            entry = (len(self.st), fl, -(-size // c), members)
            for x in members:
                var_ctr[x].append(entry)
            self.st += [0] * c + [size, c * fl]
        self._assign = self._propagator(var_weak, var_ctr if counted else None)

    def _propagator(
        self, var_weak: list[list[int]], var_ctr: Optional[list[list[tuple]]]
    ) -> Callable[[int, int], bool]:
        """`assign(x, colour)`: assign and propagate to a fixed point, or
        return False on a failed constraint.  A closure over the state, so
        a call loads no attributes; the forced variables wait on a flat
        stack, each with the one colour left in its domain."""
        st, cls, c = self.st, self.cls, self.c

        def restrict(y: int, mask: int, forced: list[int]) -> bool:
            old = st[y]
            new = old & mask
            if new == old:
                return True
            if not new:
                return False
            st[y] = new
            if not new & (new - 1):
                forced.append(y)
            return True

        def assign(x: int, colr: int) -> bool:
            forced: list[int] = []
            while True:
                bit = 1 << colr
                st[x] = ~colr
                same = cls[colr] | (1 << x)
                cls[colr] = same
                others = ~same
                for mask in var_weak[x]:
                    if not mask & same:
                        continue
                    rest = mask & others
                    if rest & (rest - 1):
                        continue
                    if not rest:
                        return False
                    y = rest.bit_length() - 1
                    old = st[y]
                    if old > 0 and old & bit:
                        if old == bit:
                            return False
                        st[y] = old = old ^ bit
                        if not old & (old - 1):
                            forced.append(y)
                if var_ctr is not None:
                    for base, fl, cap, members in var_ctr[x]:
                        cnt = st[base + colr] + 1
                        st[base + colr] = cnt
                        left = st[base + c] - 1
                        st[base + c] = left
                        deficit = st[base + c + 1]
                        if cnt <= fl:
                            deficit -= 1
                            st[base + c + 1] = deficit
                        if cnt > cap or deficit > left:
                            return False
                        if cnt == cap:
                            for y in members:
                                if st[y] > 0 and not restrict(y, ~bit, forced):
                                    return False
                        if deficit == left and left > 0:
                            need = 0
                            for cc in range(c):
                                if st[base + cc] < fl:
                                    need |= 1 << cc
                            for y in members:
                                if st[y] > 0 and not restrict(y, need, forced):
                                    return False
                if not forced:
                    return True
                x = forced.pop()
                colr = st[x].bit_length() - 1

        return assign

    def search(self, most_constrained: bool) -> Optional[list[int]]:
        """First solution of one depth-first pass, or None.

        The open frame (x, start, the colours still allowed, snapshot)
        lives in locals, and the frames above it that have a colour left
        wait on `stack`, so depth costs no recursion.  A frame on its last
        colour is not kept: its failure falls to the nearest frame with a
        colour left, whose snapshot undoes it.  The engine is back in its
        initial state afterwards, so it can run another pass.  Raises
        _Exhausted when the budget runs out.
        """
        st, cls, n, c = self.st, self.cls, self.n, self.c
        assign = self._assign
        limit, deadline, nodes = self.node_limit, self.deadline, self.nodes
        least = min(2, c)
        # below[t]: the colours a variable may take when t colours are used
        below = [(1 << min(t + 1, c)) - 1 for t in range(c + 1)]
        initial = (st[:], cls[:])
        stack: list[tuple] = []
        start = 0
        try:
            while True:
                while start < n and st[start] < 0:
                    start += 1
                if start == n:
                    return [~s for s in st[:n]]
                x = start
                if most_constrained:
                    fewest = st[x].bit_count()
                    if fewest > least:
                        for y in range(x + 1, n):
                            dom = st[y]
                            if dom > 0 and (size := dom.bit_count()) < fewest:
                                x, fewest = y, size
                                if fewest == least:
                                    break
                used = c
                while used and not cls[used - 1]:
                    used -= 1
                allowed = st[x] & below[used]
                snapshot = None
                while True:
                    while not allowed:
                        if not stack:
                            return None
                        x, start, allowed, snapshot = stack.pop()
                    bit = allowed & -allowed
                    allowed ^= bit
                    # a node_limit of None never equals the count
                    if nodes == limit:
                        raise _Exhausted
                    nodes += 1
                    if not nodes & 255 and deadline is not None and time.monotonic() > deadline:
                        raise _Exhausted
                    if snapshot is not None:
                        st[:], cls[:] = snapshot
                    elif allowed:
                        snapshot = (st[:], cls[:])
                    if assign(x, bit.bit_length() - 1):
                        if allowed:
                            stack.append((x, start, allowed, snapshot))
                        break
        finally:
            self.nodes = nodes
            st[:], cls[:] = initial


def _build_problem(
    d: Design, g: Optional[Grouping], mode: str
) -> tuple[int, list[list[int]], list[tuple[int, ...]], Optional[tuple[int, ...]]]:
    """Translate a design and mode into the engine's variable count, weak
    masks per variable, counted member tuples and each point's variable,
    None when the variables are the points.

    For the group-monochromatic mode the variables are groups, not points.
    """
    _check_table_points(d.v, "a colouring search")
    _require_mode(mode, g)
    if g is not None:
        _require_points(d.v, g, "grouping")
        if mode == "group-monochromatic":
            gi = g.group_index
            return g.u, _weak_lists(g.u, ({gi[p] for p in blk} for blk in d.blocks)), [], gi
        if mode == "group-equitable":
            return d.v, _weak_lists(d.v, d.blocks), list(g.groups), None
    if mode == "block-equitable":
        # blocks are sorted tuples, so equal blocks are equal tuples
        return d.v, _weak_lists(d.v, ()), list(dict.fromkeys(d.blocks)), None
    return d.v, _weak_lists(d.v, d.blocks), [], None


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
    n, var_weak, counted, var_of = _build_problem(d, g, mode)
    engine = _Engine(n, var_weak, counted, c, budget or SearchBudget())
    try:
        solution = engine.search(most_constrained=True)
    except _Exhausted:
        return SolveResult(BUDGET_EXCEEDED, c, mode, None, engine.nodes, 0)
    search_nodes = engine.nodes
    if solution is None:
        return SolveResult(NOT_COLOURABLE, c, mode, None, search_nodes, 0)
    if least_witness:
        try:
            solution = engine.search(most_constrained=False)
        except _Exhausted:
            return SolveResult(
                BUDGET_EXCEEDED, c, mode, None, search_nodes, engine.nodes - search_nodes
            )
        if solution is None:
            raise InternalConsistencyError("the witness pass found no colouring, the search pass did")
    witness = Colouring(c, tuple(solution if var_of is None else map(solution.__getitem__, var_of)))
    _require(check_colouring(d, g, witness, mode), InternalConsistencyError, "solver produced an invalid witness")
    return SolveResult(
        COLOURABLE, c, mode, witness, search_nodes, engine.nodes - search_nodes
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
    if g is not None:
        _require_points(d.v, g, "grouping")
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
    need = sum(len(blk) - 1 for blk in d.blocks)
    c = 2
    while pair_stats_equitable(d.v, c).nm < need:
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
    _require_points(d.v, g, "grouping")
    return _gdd_chromatic_numbers(d, g, budget)


def _gdd_chromatic_numbers(
    d: Design,
    g: Grouping,
    budget: Optional[SearchBudget],
    lo: Optional[int] = None,
    hi: Optional[int] = None,
) -> tuple[Optional[int], Optional[int]]:
    """`gdd_chromatic_numbers` without the grouping check.  lo is
    `chromatic_lower_bound(d)`, derived here when None; hi, when known,
    is the colour count of a checked weak colouring of d.  chi is then
    searched below hi only, and is hi when nothing below is colourable;
    chi_M is found as without it."""
    budget = budget or SearchBudget()
    if lo is None:
        lo = chromatic_lower_bound(d)
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
    _require_points(d.v, g, "grouping")
    return _upper_bound_colouring(d, g, _met_group_sets(d, g))


def _upper_bound_colouring(d: Design, g: Grouping, met: set[int]) -> Colouring:
    """`upper_bound_colouring`, given `_met_group_sets(d, g)`."""
    if not d.blocks:
        return Colouring(1, tuple(0 for _ in range(d.v)))
    k_min = d.k
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
