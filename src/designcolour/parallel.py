"""Exhaustive parallel-class enumeration and batch chromatic analysis."""
from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .core import Design, UnsupportedParameterError
from .solver import SearchBudget, gdd_chromatic_numbers
from .transforms import ParallelClass, pc_to_gdd


def enumerate_parallel_classes(
    d: Design, limit: Optional[int] = None
) -> tuple[list[ParallelClass], bool]:
    """All parallel classes of a design, in ascending block-index order.

    Exact-cover backtracking: always branch on the least uncovered point,
    trying its blocks in ascending index order, so output order is
    deterministic.  Returns (classes, truncated); a design whose block
    size does not divide v simply has no classes.  A limit, when given,
    must be at least 1.
    """
    if limit is not None and limit < 1:
        raise UnsupportedParameterError(f"class limit must be at least 1, got {limit}")
    classes: list[ParallelClass] = []
    if d.v == 0 or not d.blocks or not d.uniform or d.v % d.k:
        return classes, False
    full = (1 << d.v) - 1
    block_masks = [
        sum(1 << p for p in blk) for blk in d.blocks
    ]
    by_point: list[list[int]] = [[] for _ in range(d.v)]
    for bi, blk in enumerate(d.blocks):
        for p in blk:
            by_point[p].append(bi)
    chosen: list[int] = []
    truncated = False

    def rec(covered: int) -> bool:
        """Returns False when the limit cut off the search."""
        nonlocal truncated
        if covered == full:
            classes.append(ParallelClass(tuple(chosen)))
            if limit is not None and len(classes) >= limit:
                truncated = True
                return False
            return True
        # least uncovered point = lowest zero bit of the cover mask
        low = ((~covered) & -(~covered)).bit_length() - 1
        for bi in by_point[low]:
            mask = block_masks[bi]
            if covered & mask:
                continue
            chosen.append(bi)
            alive = rec(covered | mask)
            chosen.pop()
            if not alive:
                return False
        return True

    rec(0)
    return classes, truncated


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


def _analyze_one(args) -> PcRecord:
    d, pc, idx, budget = args
    chi, chi_m = gdd_chromatic_numbers(*pc_to_gdd(d, pc), budget)
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
    and is independent of the worker count.
    """
    budget = budget or SearchBudget()
    classes, _ = enumerate_parallel_classes(d)
    tasks = [(d, pc, i, budget) for i, pc in enumerate(classes)]
    workers = _worker_count(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_analyze_one, tasks, chunksize=_CHUNKSIZE))
    else:
        records = [_analyze_one(t) for t in tasks]
    records.sort(key=lambda r: r.class_index)
    counter = Counter(
        (r.chi, r.chi_m) for r in records if r.chi is not None and r.chi_m is not None
    )
    histogram = tuple(sorted(counter.items()))
    return PcAnalysis(tuple(records), histogram)
