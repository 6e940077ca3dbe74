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
lower bound, the checked `upper_bound_colouring`, and chi <= chi_M.

A design and mode are compiled once into a `_Problem` that holds no
colour count: each weak ("not all equal") constraint is an int mask of
its members.  `chromatic_number` decides one design at several colour
counts, and each decision reuses the last problem compiled for the same
design, grouping and mode objects (`_compiled`).  Per colour count, an
`_Engine` keeps one mask of variables per colour, so an assignment checks
a weak constraint with two bit operations.  Its state is small (a domain
and a colour per variable, a mask per colour), so it backtracks by
restoring a copy of that state rather than by logging every change.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Optional

from .colouring import GROUP_MODES, MODES, Colouring, check_colouring, pair_stats_equitable
from .core import (
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    UnsupportedParameterError,
    _pair_keys,
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

    def spend(self) -> bool:
        """Account one node; False when the budget is exhausted."""
        self.nodes += 1
        if self.node_limit is not None and self.nodes > self.node_limit:
            return False
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                return False
        return True


class _Exhausted(Exception):
    pass


class _Problem:
    """A design and mode compiled into constraints, for every colour count.

    Variables are points, or groups in the group-monochromatic mode.  A
    weak ("not all equal") constraint is the int mask of its members; it
    is listed in `var_weak[x]` for each member x, in the order of the
    deduplicated member sets.  A counted constraint is a sorted member tuple,
    and `var_ctr[x]` lists the indices of those holding x.  Nothing here
    depends on the colour count, so `chromatic_number` compiles a design
    once for all the counts it decides (see `_compiled`).
    """

    __slots__ = ("n", "var_weak", "counted", "var_ctr")

    def __init__(self, n: int, weak: Iterable[Iterable[int]], counted: list[tuple[int, ...]]):
        """`weak` yields member sets, each listing its members once."""
        self.n = n
        self.counted = counted
        self.var_weak: list[list[int]] = [[] for _ in range(n)]
        seen: set[int] = set()
        for members in weak:
            mask = 0
            for x in members:
                mask |= 1 << x
            if mask not in seen:
                seen.add(mask)
                for x in members:
                    self.var_weak[x].append(mask)
        self.var_ctr: list[list[int]] = [[] for _ in range(n)]
        for ci, members in enumerate(counted):
            for x in members:
                self.var_ctr[x].append(ci)


class _Engine:
    """Backtracking colourer over 'not all equal' and counted constraints.

    Weak constraints forbid a member set from being single-coloured;
    counted constraints bound every colour's count within a member set by
    [floor, cap], both computed from the colour count.  Domains are
    bitmasks; an assignment strips or restricts the domains it rules out,
    and a domain left with one colour forces that colour, cascading until
    nothing changes or a constraint fails.

    Colour classes are int masks: `cls[colour]` holds the variables
    assigned that colour.  Assigning x the colour r sets x's bit in
    `cls[r]`; for each weak mask m on x, `rest = m & ~cls[r]` is the
    members not coloured r.  An empty `rest` is a single-coloured
    constraint, a failure; a single bit whose variable is unassigned
    loses r from its domain.  Counted constraints keep flat counters
    indexed by ci * c + colour, with the assignments and the total floor
    deficit per constraint.

    `search` runs one depth-first pass.  The branching variable is the
    unassigned one with the fewest colours left in its domain (lowest
    index on ties) when `most_constrained` is set, and the lowest-index
    unassigned one otherwise; colours are tried in ascending order, and a
    variable may take at most one colour above the highest used so far,
    which breaks the symmetry between unused colours.

    Undo is by snapshot.  A `_dfs` frame with more than one colour to try
    copies the domains, the colour classes and the assignment before its
    first branch and restores them before each later one; a failed frame
    leaves its last branch for its caller to undo, and `search` restores
    the initial state at the end.  Counters are not copied: `_restore`
    takes back the increments of each variable assigned since the copy,
    so `_assign` sets a variable's bit and applies all of its increments
    before any check can fail.  `max_used` is restored by each `_dfs` frame.
    """

    def __init__(self, problem: _Problem, c: int, budget: _Budget):
        n = problem.n
        self.n = n
        self.c = c
        self.var_weak = problem.var_weak
        self.counted = problem.counted
        self.var_ctr = problem.var_ctr
        sizes = [len(m) for m in problem.counted]
        self.caps = [-(-size // c) for size in sizes]
        self.floors = [size // c for size in sizes]
        self.budget = budget
        self.colour = [-1] * n
        self.dom = [(1 << c) - 1] * n
        self.cls = [0] * c
        self.t_cnt = [0] * (c * len(sizes))
        self.t_ass = [0] * len(sizes)
        self.deficit = [c * fl for fl in self.floors]
        self.max_used = -1
        self.most_constrained = False

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
        t_cnt, t_ass = self.t_cnt, self.t_ass
        floors, caps, deficit = self.floors, self.caps, self.deficit
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
            var_ctr = self.var_ctr[x]
            for ci in var_ctr:
                k = ci * c + colr
                if t_cnt[k] < floors[ci]:
                    deficit[ci] -= 1
                t_cnt[k] += 1
                t_ass[ci] += 1
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
                            if not self._restrict(y, strip, forced):
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
                            if not self._restrict(y, need, forced):
                                return False
        return True

    def _restore(self, snapshot: tuple[list[int], list[int], list[int]]) -> None:
        """Put back the domains, colour classes and assignment of a copy,
        and take back the counter increments made since it was taken."""
        dom, cls, colour = snapshot
        if self.counted:
            c = self.c
            t_cnt, t_ass = self.t_cnt, self.t_ass
            floors, deficit, var_ctr = self.floors, self.deficit, self.var_ctr
            for x, colr in enumerate(self.colour):
                if colr != colour[x]:
                    for ci in var_ctr[x]:
                        k = ci * c + colr
                        t_cnt[k] -= 1
                        t_ass[ci] -= 1
                        if t_cnt[k] < floors[ci]:
                            deficit[ci] += 1
        self.dom[:] = dom
        self.cls[:] = cls
        self.colour[:] = colour

    def search(self, most_constrained: bool) -> Optional[list[int]]:
        """First solution of one depth-first pass, or None.

        The engine is back in its initial state afterwards, so it can run
        another pass.  Raises _Exhausted via the budget when limits run out.
        """
        self.most_constrained = most_constrained
        initial = (self.dom[:], self.cls[:], self.colour[:])
        solution = list(self.colour) if self._dfs(0) else None
        self._restore(initial)
        self.max_used = -1
        return solution

    def _dfs(self, start: int) -> bool:
        """Extend the current assignment; variables below `start` are set.
        A failure leaves the last branch tried for the caller to restore."""
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
        snapshot = None
        colr = 0
        while allowed:
            if allowed & 1:
                if not self.budget.spend():
                    raise _Exhausted
                if snapshot is not None:
                    self._restore(snapshot)
                    self.max_used = saved
                elif allowed > 1:
                    snapshot = (dom[:], self.cls[:], colour[:])
                if self._assign(x, colr) and self._dfs(start):
                    return True
            allowed >>= 1
            colr += 1
        return False


def _build_problem(d: Design, g: Optional[Grouping], mode: str) -> _Problem:
    """Translate a design and mode into engine constraints.

    For the group-monochromatic mode the variables are groups, not points.
    """
    if mode not in MODES:
        raise DesignError(f"unknown colouring mode {mode!r}")
    if mode in GROUP_MODES and g is None:
        raise UnsupportedParameterError(f"mode {mode!r} requires a grouping")
    if mode == "weak":
        return _Problem(d.v, d.blocks, [])
    if mode == "block-equitable":
        # blocks are sorted tuples, so equal blocks are equal tuples
        return _Problem(d.v, [], list(dict.fromkeys(d.blocks)))
    if g is None:
        raise InternalConsistencyError(f"mode {mode!r} reached without a grouping")
    if mode == "group-monochromatic":
        gi = g.group_index
        return _Problem(g.u, ({gi[p] for p in blk} for blk in d.blocks), [])
    return _Problem(d.v, d.blocks, list(g.groups))


# The last problem compiled, keyed by the identity of its (frozen) design
# and grouping: chromatic_number decides one design at several colour
# counts, and each decision finds its problem here.
_last_compiled: tuple = (None, None, None, None)


def _compiled(d: Design, g: Optional[Grouping], mode: str) -> _Problem:
    global _last_compiled
    last_d, last_g, last_mode, problem = _last_compiled
    if d is last_d and g is last_g and mode == last_mode:
        return problem
    problem = _build_problem(d, g, mode)
    _last_compiled = (d, g, mode, problem)
    return problem


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
    engine = _Engine(_compiled(d, g, mode), c, tracker)
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
    report = check_colouring(d, g, witness, mode)
    if not report.passed:
        raise InternalConsistencyError(
            f"solver produced an invalid witness: {report.violations[:3]}"
        )
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
    keys = _pair_keys(d)
    if len(set(keys)) < len(keys):
        return 2
    need = sum(len(blk) - 1 for blk in d.blocks)
    c = 2
    while pair_stats_equitable(d.v, c).nm < need:
        c += 1
    return c


def gdd_chromatic_numbers(
    d: Design, g: Grouping, budget: Optional[SearchBudget] = None
) -> tuple[Optional[int], Optional[int]]:
    """(chi, chi_M) of a GDD, searching only what no certificate settles.

    `chromatic_lower_bound` gives lo <= chi <= chi_M, and the checked
    `upper_bound_colouring` gives chi_M <= top.  chi_M is the least c in
    [lo, top) whose group-monochromatic decision is colourable, else top;
    chi is the least c in [lo, chi_M) whose weak decision is colourable,
    else chi_M, as every group-monochromatic colouring is weak.  No
    decision runs a witness pass.

    Each of the two searches gets the whole budget.  A value reads None
    when its search runs out; the other is kept, and a lost chi_M leaves
    the chi search bounded by top.
    """
    budget = budget or SearchBudget()
    # First, as such a block would also fail the check of top below.
    _reject_block_inside_a_group(d, g)
    lo = chromatic_lower_bound(d)
    top = upper_bound_colouring(d, g)
    if not check_colouring(d, g, top, "group-monochromatic").passed:
        # Some block meets fewer than k groups, as no block of a GDD does;
        # one colour per group still works, as no block lies inside one.
        top = Colouring(g.u, g.group_index)
        if not check_colouring(d, g, top, "group-monochromatic").passed:
            raise InternalConsistencyError("one colour per group leaves a block monochromatic")
    if lo > top.c:
        raise InternalConsistencyError(f"lower bound {lo} exceeds the colouring with {top.c} colours")

    def least(grouping: Optional[Grouping], mode: str, stop: int) -> Optional[int]:
        try:
            found, _ = _first_colourable(
                d, grouping, mode, range(lo, stop), budget, least_witness=False
            )
        except BudgetExceededError:
            return None
        return stop if found is None else found.c

    chi_m = least(g, "group-monochromatic", top.c)
    chi = least(None, "weak", top.c if chi_m is None else chi_m)
    return chi, chi_m


def upper_bound_colouring(d: Design, g: Grouping) -> Colouring:
    """Constructive colouring certifying chi_M <= ceil(u / (k_min - 1)).

    Groups are split into sets of at most k_min - 1 groups and each set is
    coloured with one colour; every block then meets two sets because it
    meets at least k_min groups.
    """
    k_min = d.k
    if k_min < 2:
        if d.blocks:
            raise DesignError("blocks of size below 2 are not supported")
        return Colouring(1, tuple(0 for _ in range(d.v)))
    chunk = k_min - 1
    n_colours = -(-g.u // chunk)
    if d.blocks and n_colours < 2:
        # A valid GDD with u <= k_min - 1 groups cannot have blocks; kept
        # only so malformed inputs fail loudly downstream.
        n_colours = 2
    return Colouring(max(n_colours, 1), tuple(gi // chunk for gi in g.group_index))
