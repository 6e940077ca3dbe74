"""Exhaustive parallel-class enumeration and batch chromatic analysis."""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .core import Design, UnsupportedParameterError, _distinct_pairs
from .solver import (
    SearchBudget,
    _gdd_chromatic_numbers,
    _turan_bound,
    chromatic_lower_bound,
    decide_colourable,
)
from .transforms import ParallelClass, pc_to_gdd


def enumerate_parallel_classes(
    d: Design, limit: Optional[int] = None
) -> tuple[list[ParallelClass], bool]:
    """All parallel classes of a design, in ascending block-index order.

    Exact-cover backtracking (Knuth's algorithm X) over block masks:
    `through[p]` has bit i set when block i holds point p, and a node's
    `dead` mask, the union of `through` over the points covered above it,
    holds the blocks that meet a chosen block.  Each node branches on the
    least uncovered point, over its blocks outside `dead` in ascending
    index order, so output order is deterministic.
    Returns (classes, truncated); a design whose block size does not
    divide v, or with fewer than v/k blocks, simply has no classes.  A
    limit, when given, must be at least 1.
    """
    if limit is not None and limit < 1:
        raise UnsupportedParameterError(f"class limit must be at least 1, got {limit}")
    classes: list[ParallelClass] = []
    if d.v == 0 or not d.blocks or not d.uniform or d.v % d.k or d.b * d.k < d.v:
        return classes, False
    blocks = d.blocks
    full = (1 << d.v) - 1
    block_masks = [sum(1 << p for p in blk) for blk in blocks]
    # set in byte rows: or-ing 1 << bi into ints takes time quadratic in b
    through: list = [bytearray((d.b + 7) // 8) for _ in range(d.v)]
    for bi, blk in enumerate(blocks):
        for p in blk:
            through[p][bi >> 3] |= 1 << (bi & 7)
    for p, row in enumerate(through):
        # row by row, so the rows and their ints never all coexist
        through[p] = int.from_bytes(row, "little")
    # The open node's cover, the blocks meeting it and its candidates not
    # yet tried are in locals; one level per chosen block waits on `stack`.
    stack: list[tuple[int, int, int]] = []
    chosen: list[int] = []
    covered = dead = 0
    candidates = through[0]
    while True:
        while not candidates:
            if not stack:
                return classes, False
            covered, dead, candidates = stack.pop()
            chosen.pop()
        bit = candidates & -candidates
        candidates ^= bit
        bi = bit.bit_length() - 1
        meets = dead
        for p in blocks[bi]:
            meets |= through[p]
        cover = covered | block_masks[bi]
        if cover == full:
            classes.append(ParallelClass((*chosen, bi)))
            if limit is not None and len(classes) >= limit:
                return classes, True
            continue
        # least uncovered point = lowest zero bit of the cover mask
        low = ((~cover) & -(~cover)).bit_length() - 1
        below = through[low] & ~meets
        if below:
            stack.append((covered, dead, candidates))
            chosen.append(bi)
            covered, dead, candidates = cover, meets, below


@dataclass(frozen=True)
class PcRecord:
    class_index: int
    chi: Optional[int]
    chi_m: Optional[int]
    budget_exceeded: bool = False


@dataclass(frozen=True)
class PcAnalysis:
    records: tuple[PcRecord, ...]
    histogram: tuple[tuple[tuple[int, int], int], ...]

    def histogram_dict(self) -> dict[tuple[int, int], int]:
        return dict(self.histogram)

    @property
    def budget_exceeded(self) -> int:
        """The number of classes whose chi or chi_M search ran out of
        budget; the histogram leaves them out."""
        return sum(r.budget_exceeded for r in self.records)


class _DesignFacts:
    """What the class GDDs of one design share, computed once for all.

    d is uniform and k divides v, as in any design with a parallel class,
    so every class GDD keeps b - v/k of d's blocks.  When no pair of d
    lies in two blocks, no class GDD repeats a pair either, and all share
    one Turan bound on need = (b - v/k)(k - 1).

    A class GDD is d less some blocks, on the same points, so a weak
    colouring of d is one of every class GDD.  With a budget, and a
    shared bound below which no class GDD is colourable, d itself is
    searched once for a weak colouring with that many colours; its
    checked witness settles chi = bound for every class.
    """

    def __init__(self, d: Design, budget: Optional[SearchBudget] = None):
        self.d = d
        kept = d.b - d.v // d.k
        # bound: chromatic_lower_bound of every class GDD, or None when d
        # repeats a pair and each class GDD must be tested for one
        self.bound: Optional[int] = None
        if not kept:
            self.bound = 1
        elif _distinct_pairs(d) is not None:
            self.bound = _turan_bound(d.v, kept * (d.k - 1))
        # hi: the colour count of a checked weak colouring of d, and so an
        # upper bound on every class GDD's chi; None when not searched or
        # not found within the budget
        self.hi: Optional[int] = None
        if budget is not None and kept and self.bound is not None:
            found = decide_colourable(d, None, self.bound, "weak", budget, least_witness=False)
            if found.colourable:
                self.hi = self.bound

    def lower_bound(self, gdd: Design) -> int:
        """`chromatic_lower_bound(gdd)` of a class GDD of d."""
        return chromatic_lower_bound(gdd) if self.bound is None else self.bound


def _analyze_one(args) -> PcRecord:
    facts, pc, idx, budget = args
    gdd, grouping = pc_to_gdd(facts.d, pc)
    chi, chi_m = _gdd_chromatic_numbers(gdd, grouping, budget, facts.lower_bound(gdd), facts.hi)
    return PcRecord(idx, chi, chi_m, chi is None or chi_m is None)


# A pool worker's design facts, handed over once when the worker starts
# rather than pickled with every chunk of tasks.
_worker_facts: Optional[_DesignFacts] = None


def _start_worker(facts: _DesignFacts) -> None:
    global _worker_facts
    _worker_facts = facts


def _analyze_in_worker(args) -> PcRecord:
    return _analyze_one((_worker_facts, *args))


_CHUNKSIZE = 4


def _worker_count(jobs: int, tasks: int) -> int:
    """Pool size: never more workers than were asked for, than CPUs, or
    than chunks of tasks to hand out.  Below 2 the work runs serially."""
    chunks = -(-tasks // _CHUNKSIZE)
    return min(jobs, os.cpu_count() or 1, chunks)


def analyze_parallel_classes(
    d: Design, budget: Optional[SearchBudget] = None, jobs: int = 1
) -> PcAnalysis:
    """Chromatic numbers of the GDD each parallel class induces.

    For every class the blocks of the class become groups; the record holds
    the weak chromatic number and the monochromatic-group one, found by
    `gdd_chromatic_numbers`.  The histogram aggregates (chi, chi_M) pairs
    and is independent of the worker count.  What the class GDDs share is
    computed once per design (`_DesignFacts`), not once per class, before
    any worker starts.  Its search of d for a weak colouring may try at
    most one node per class, within the caller's node and time limits.
    """
    budget = budget or SearchBudget()
    classes, _ = enumerate_parallel_classes(d)
    facts = None
    if classes:
        limit = len(classes)
        if budget.node_limit is not None:
            limit = min(limit, budget.node_limit)
        facts = _DesignFacts(d, SearchBudget(limit, budget.time_limit))
    tasks = [(pc, i, budget) for i, pc in enumerate(classes)]
    workers = _worker_count(jobs, len(tasks))
    if workers > 1:
        # imported here, so that only a run that starts a pool loads
        # concurrent.futures, and with it logging, threading and
        # multiprocessing
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_start_worker, initargs=(facts,)
        ) as pool:
            records = list(pool.map(_analyze_in_worker, tasks, chunksize=_CHUNKSIZE))
    else:
        records = [_analyze_one((facts, *t)) for t in tasks]
    records.sort(key=lambda r: r.class_index)
    counter = Counter(
        (r.chi, r.chi_m) for r in records if r.chi is not None and r.chi_m is not None
    )
    histogram = tuple(sorted(counter.items()))
    return PcAnalysis(tuple(records), histogram)
