"""Exhaustive parallel-class enumeration and batch chromatic analysis."""
from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Optional

from .core import Design, UnsupportedParameterError, _distinct_pairs
from .solver import (
    SearchBudget,
    _gdd_chromatic_numbers,
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


def _class_bounds(d: Design, pc: ParallelClass, budget: SearchBudget) -> tuple[Optional[int], Optional[int]]:
    """(lo, hi): what the class GDDs of d share, computed once for all.

    d is uniform and k divides v, as in any design with a parallel class,
    so every class GDD keeps b - v/k of d's k-blocks on d's points.  When
    no pair of d lies in two blocks, no class GDD repeats a pair either,
    and `chromatic_lower_bound`, which then reads only v, k and the block
    count, is the same for each: lo is that of the class GDD of pc.  lo is
    None when d repeats a pair, and each class GDD is tested for one.

    A class GDD is d less some blocks, on the same points, so a weak
    colouring of d is one of every class GDD.  With a shared lo, d itself
    is searched once within the budget for a weak lo-colouring; hi = lo
    when its checked witness is found, settling chi = lo for every class,
    and None otherwise.
    """
    if _distinct_pairs(d) is None:
        return None, None
    lo = chromatic_lower_bound(pc_to_gdd(d, pc)[0])
    if lo == 1:
        return 1, None
    found = decide_colourable(d, None, lo, "weak", budget, least_witness=False)
    return lo, lo if found.colourable else None


def _analyze_one(
    d: Design, lo: Optional[int], hi: Optional[int], budget: SearchBudget, idx: int, pc: ParallelClass
) -> PcRecord:
    chi, chi_m = _gdd_chromatic_numbers(*pc_to_gdd(d, pc), budget, lo, hi)
    return PcRecord(idx, chi, chi_m, chi is None or chi_m is None)


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
    computed once per design (`_class_bounds`), not once per class, before
    any worker starts.  Its search of d for a weak colouring may try at
    most one node per class, within the caller's node and time limits.
    """
    budget = budget or SearchBudget()
    classes, _ = enumerate_parallel_classes(d)
    if not classes:
        return PcAnalysis((), ())
    limit = len(classes) if budget.node_limit is None else min(len(classes), budget.node_limit)
    lo, hi = _class_bounds(d, classes[0], SearchBudget(limit, budget.time_limit))
    analyze = partial(_analyze_one, d, lo, hi, budget)
    workers = _worker_count(jobs, len(classes))
    if workers > 1:
        # imported here, so that only a run that starts a pool loads
        # concurrent.futures, and with it logging, threading and
        # multiprocessing
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(analyze, range(len(classes)), classes, chunksize=_CHUNKSIZE))
    else:
        records = list(map(analyze, range(len(classes)), classes))
    counter = Counter(
        (r.chi, r.chi_m) for r in records if r.chi is not None and r.chi_m is not None
    )
    histogram = tuple(sorted(counter.items()))
    return PcAnalysis(tuple(records), histogram)
