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

`SolveResult` reports the nodes of each pass.  The engine's trail is a
flat list of ints: a variable index for an assignment, and an old domain
mask followed by the complement of a variable index for a domain change
(see `_Engine`).
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .colouring import GROUP_MODES, MODES, Colouring, check_colouring
from .core import Design, DesignError, Grouping, InternalConsistencyError

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
        if self.node_limit is not None and self.node_limit <= 0:
            raise DesignError("node limit must be positive or None")
        if self.time_limit is not None and self.time_limit <= 0:
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
        verdict, the natural-order pass that picks the witness."""
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


class _Engine:
    """Backtracking colourer over 'not all equal' and counted constraints.

    Weak constraints forbid a member set from being single-coloured;
    counted constraints bound every colour's count within a member set by
    [floor, cap].  Domains are bitmasks; an assignment strips or restricts
    the domains it rules out, and a domain left with one colour forces
    that colour, cascading until nothing changes or a constraint fails.

    `search` runs one depth-first pass.  The branching variable is the
    unassigned one with the fewest colours left in its domain (lowest
    index on ties) when `most_constrained` is set, and the lowest-index
    unassigned one otherwise; colours are tried in ascending order, and a
    variable may take at most one colour above the highest used so far,
    which breaks the symmetry between unused colours.

    The trail holds ints.  A non-negative entry x records the assignment
    of variable x: undoing it walks x's constraint lists and decrements
    the counters of its colour, so `_assign` applies all of a variable's
    counter increments before any check can fail.  A domain change
    pushes the old mask and then ~y, which is negative.  `max_used` is
    not trailed: each `_dfs` frame restores it.  Counters are flat lists
    indexed by ci * c + colour.
    """

    def __init__(
        self,
        n: int,
        c: int,
        weak: list[tuple[int, ...]],
        counted: list[tuple[tuple[int, ...], int, int]],
        budget: _Budget,
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

    def search(self, most_constrained: bool) -> Optional[list[int]]:
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
                    raise _Exhausted
                mark = len(trail)
                if self._assign(x, colr, trail) and self._dfs(start, trail):
                    return True
                self._undo(trail, mark)
                self.max_used = saved
            allowed >>= 1
            colr += 1
        return False


def _dedupe(seqs) -> list[tuple[int, ...]]:
    seen = set()
    out = []
    for s in seqs:
        t = tuple(sorted(s))
        if t not in seen:
            seen.add(t)
            out.append(t)
    return out


def _build_problem(
    d: Design, g: Optional[Grouping], c: int, mode: str
) -> tuple[int, list, list]:
    """Translate a design and mode into engine constraints.

    Returns (n_vars, weak, counted).  For the group-monochromatic mode the
    variables are groups, not points.
    """
    if mode not in MODES:
        raise DesignError(f"unknown colouring mode {mode!r}")
    if mode in GROUP_MODES and g is None:
        raise DesignError(f"mode {mode!r} requires a grouping")
    if mode == "weak":
        return d.v, _dedupe(d.blocks), []
    if mode == "block-equitable":
        counted = [
            (blk, -(-len(blk) // c), len(blk) // c) for blk in _dedupe(d.blocks)
        ]
        return d.v, [], counted
    if g is None:
        raise InternalConsistencyError(f"mode {mode!r} reached without a grouping")
    if mode == "group-monochromatic":
        gi = g.group_index
        return g.u, _dedupe({gi[p] for p in blk} for blk in d.blocks), []
    counted = [(grp, -(-len(grp) // c), len(grp) // c) for grp in g.groups]
    return d.v, _dedupe(d.blocks), counted


def _expand_group_witness(g: Grouping, group_colours: list[int], c: int) -> Colouring:
    assignment = [0] * g.v
    for gi, grp in enumerate(g.groups):
        for p in grp:
            assignment[p] = group_colours[gi]
    return Colouring(c, tuple(assignment))


def decide_colourable(
    d: Design,
    g: Optional[Grouping],
    c: int,
    mode: str,
    budget: Optional[SearchBudget] = None,
) -> SolveResult:
    """Exact decision of c-colourability under the given mode.

    A colourable verdict carries the lexicographically least witness (in
    point-major order), so results are reproducible run to run.
    """
    if c < 1:
        raise DesignError("colour count must be at least 1")
    tracker = _Budget(budget or SearchBudget())
    n, weak, counted = _build_problem(d, g, c, mode)
    engine = _Engine(n, c, weak, counted, tracker)
    try:
        solution = engine.search(most_constrained=True)
    except _Exhausted:
        return SolveResult(BUDGET_EXCEEDED, c, mode, None, tracker.nodes, 0)
    search_nodes = tracker.nodes
    if solution is None:
        return SolveResult(NOT_COLOURABLE, c, mode, None, search_nodes, 0)
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
        witness = _expand_group_witness(g, solution, c)
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
    budget = budget or SearchBudget()
    deadline = time.monotonic() + budget.time_limit if budget.time_limit else None
    spent = 0

    def decide(c: int) -> SolveResult:
        # Each decision gets what is left of the budget.  Every decision
        # on a design with blocks tries at least one node, so nothing left
        # means this one would exceed.
        nonlocal spent
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
        result = decide_colourable(d, g, c, mode, SearchBudget(node_limit, time_limit))
        spent += result.nodes
        if result.status == BUDGET_EXCEEDED:
            raise BudgetExceededError(
                f"budget exhausted while deciding {c}-colourability", spent
            )
        return result

    c = 1 if not d.blocks else 2
    refutation: Optional[SolveResult] = None
    if d.blocks:
        # Trivial exhaustion certificate at one colour: any block is
        # monochromatic.
        refutation = decide(1)
        if refutation.status == COLOURABLE:
            raise InternalConsistencyError("a design with blocks cannot be 1-colourable")
    limit = max(d.v, 1) if mode == "weak" else (g.u if g is not None else 1)
    while True:
        result = decide(c)
        if result.status == COLOURABLE:
            if result.witness is None:
                raise InternalConsistencyError("colourable result without a witness")
            return ChromaticResult(c, result.witness, refutation, mode)
        refutation = result
        c += 1
        if c > limit + 1:
            raise InternalConsistencyError("search exceeded the rainbow colouring bound")


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
    assignment = [0] * d.v
    for gi, grp in enumerate(g.groups):
        for p in grp:
            assignment[p] = gi // chunk
    return Colouring(max(n_colours, 1), tuple(assignment))
