"""Point colourings of designs and exact monochrome-pair counting.

All proportions are exact rationals: several downstream arguments hinge on
exact equalities between proportions, so floating point is never used.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from math import comb, log2
from typing import Optional

from .core import (
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    ValidationReport,
    Violation,
    _require_points,
)

# The colouring modes; the group modes also constrain each group of a GDD.
GROUP_MODES = ("group-monochromatic", "group-equitable")
MODES = ("weak", "block-equitable") + GROUP_MODES


class InstanceTooLargeError(DesignError):
    """An exhaustive enumeration would exceed the configured guard."""


@dataclass(frozen=True)
class Colouring:
    """A total assignment of one of c colours to every point.

    Colour indices lie in [0, c); the palette may be larger than the set of
    colours actually used.
    """

    c: int
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.c < 1:
            raise DesignError("colour count must be at least 1")
        for p, col in enumerate(self.assignment):
            if not isinstance(col, int):
                raise DesignError(f"point {p} has colour {col!r}, which is not an integer")
            if not 0 <= col < self.c:
                raise DesignError(f"point {p} has colour {col} outside [0, {self.c})")
        object.__setattr__(self, "assignment", tuple(self.assignment))

    @property
    def v(self) -> int:
        return len(self.assignment)

    def class_sizes(self) -> list[int]:
        sizes = [0] * self.c
        for col in self.assignment:
            sizes[col] += 1
        return sizes


@dataclass(frozen=True)
class PairStats:
    """Monochrome / non-monochrome pair counts with the exact proportion."""

    nm: int
    m: int
    pm: Fraction

    @property
    def total(self) -> int:
        return self.nm + self.m


def pair_stats_equitable(mu: int, c: int) -> PairStats:
    """Pair statistics of a point-equitable c-colouring of a mu-element set.

    With mu = alpha*c + beta (0 <= beta < c), beta colour classes have
    alpha+1 elements and the rest have alpha.  The monochrome count is the
    minimum over all c-colourings of the set.
    """
    if mu < 2:
        raise DesignError("set size must be at least 2")
    if c < 2:
        raise DesignError("colour count must be at least 2")
    alpha, beta = divmod(mu, c)
    nm2 = alpha * (alpha * c + 2 * beta) * (c - 1) + beta * (beta - 1)
    m2 = alpha * (alpha - 1) * c + 2 * alpha * beta
    if nm2 % 2 or m2 % 2:
        raise InternalConsistencyError("pair counts must be integers")
    nm, m = nm2 // 2, m2 // 2
    if nm + m != comb(mu, 2):
        raise InternalConsistencyError("pair counts must sum to C(mu, 2)")
    return PairStats(nm, m, Fraction(2 * m, mu * (mu - 1)))


def check_weak(d: Design, col: Colouring) -> ValidationReport:
    """Pass iff no block is contained in a single colour class."""
    _require_points(d.v, col, "colouring")
    a = col.assignment
    # a block whose first and last points differ in colour passes without
    # building its colour set
    violations = [
        Violation("monochromatic-block", (bi, blk))
        for bi, blk in enumerate(d.blocks)
        if a[blk[0]] == a[blk[-1]] and len(set(map(a.__getitem__, blk))) == 1
    ]
    return ValidationReport(tuple(violations), {"mode": "weak", "c": col.c})


# The most colour-count sums `_equitable_violations` keeps decoded.
_DECODED_SUMS = 256
# Above this many bits of point codes and decoded sums, each at most t*c
# bits, every set is counted one by one.
_MAX_CODE_BITS = 1 << 26


def _unbalanced_sums(t: int, c: int):
    """A cached test of whether a sum of codes 1 << (t*colour) has, in its
    t-bit digits, a colour count outside [floor(s/c), ceil(s/c)], s being
    the digit sum; only the nonzero digits are visited."""
    mask = (1 << t) - 1

    def unbalanced(total: int) -> bool:
        counts = []
        while total:
            shift = (total & -total).bit_length() - 1
            shift -= shift % t
            n = total >> shift & mask
            counts.append(n)
            total ^= n << shift
        s = sum(counts)
        lo, hi = s // c, -(-s // c)
        # a colour missing from the digits counts 0
        return not all(lo <= n <= hi for n in counts) or 0 < lo and len(counts) < c

    return lru_cache(_DECODED_SUMS)(unbalanced)


def _equitable_violations(kind: str, sets, a, c: int) -> list[Violation]:
    """Violations of every colour whose count in a member set of size s
    lies outside [floor(s/c), ceil(s/c)], set by set, colour by colour.

    Point p gets the code 1 << (t*a[p]), 2**t above every set size, so a
    set's code sum holds its colour counts as t-bit digits; the sums are
    taken in C and only the sets whose sum fails are counted one by one.
    Sets of four are unpacked into four codes, and their sums tested
    against at most `_DECODED_SUMS` sums already decoded as balanced.
    """
    sizes = set(map(len, sets))
    t = max(sizes, default=0).bit_length() or 1
    suspects = range(len(sets))
    if t * c * (len(a) + _DECODED_SUMS) <= _MAX_CODE_BITS:
        code = [1 << t * colr for colr in a]
        unbalanced = _unbalanced_sums(t, c)
        if sizes == {4}:
            suspects = []
            balanced: set[int] = set()
            i = 0
            for w, x, y, z in sets:
                total = code[w] + code[x] + code[y] + code[z]
                if total not in balanced:
                    if unbalanced(total):
                        suspects.append(i)
                    elif len(balanced) < _DECODED_SUMS:
                        balanced.add(total)
                i += 1
        else:
            sums = map(sum, map(map, repeat(code.__getitem__), sets))
            suspects = compress(suspects, map(unbalanced, sums))
    violations = []
    for i in suspects:
        members = sets[i]
        s = len(members)
        lo, hi = s // c, -(-s // c)
        counts = [0] * c
        for p in members:
            counts[a[p]] += 1
        for colr, n in enumerate(counts):
            if not lo <= n <= hi:
                violations.append(Violation(kind, (i, members, colr, n)))
    return violations


def check_block_equitable(d: Design, col: Colouring) -> ValidationReport:
    """Pass iff every block has floor(k/c) or ceil(k/c) points of every colour.

    The bound is quantified over the whole palette, so a colour that never
    appears still fails a block when floor(k/c) >= 1.
    """
    _require_points(d.v, col, "colouring")
    violations = _equitable_violations("block-colour-count", d.blocks, col.assignment, col.c)
    return ValidationReport(tuple(violations), {"mode": "block-equitable", "c": col.c})


def check_group_colouring(
    d: Design, g: Grouping, col: Colouring, mode: str
) -> ValidationReport:
    """Weak colouring check plus a per-group condition.

    mode "group-monochromatic": every group single-coloured.
    mode "group-equitable": every group of size s has floor(s/c) or
    ceil(s/c) points of each colour.
    """
    if mode not in GROUP_MODES:
        raise DesignError(f"unknown group colouring mode {mode!r}")
    _require_points(d.v, col, "colouring")
    _require_points(d.v, g, "grouping")
    a = col.assignment
    violations = list(check_weak(d, col).violations)
    if mode == "group-monochromatic":
        violations += [
            Violation("group-not-monochromatic", (gi, grp))
            for gi, grp in enumerate(g.groups)
            if len({a[p] for p in grp}) > 1
        ]
    else:
        violations += _equitable_violations("group-colour-count", g.groups, a, col.c)
    return ValidationReport(tuple(violations), {"mode": mode, "c": col.c})


def check_colouring(
    d: Design, g: Optional[Grouping], col: Colouring, mode: str
) -> ValidationReport:
    """Check a colouring in one of the `MODES`; the group modes need `g`."""
    if mode == "weak":
        return check_weak(d, col)
    if mode == "block-equitable":
        return check_block_equitable(d, col)
    if mode not in GROUP_MODES:
        raise DesignError(f"unknown colouring mode {mode!r}")
    if g is None:
        raise DesignError(f"mode {mode!r} requires a grouping")
    return check_group_colouring(d, g, col, mode)


def count_monochrome_cross_pairs(
    d: Design, col: Colouring, g: Optional[Grouping] = None
) -> PairStats:
    """Exact monochrome-pair counts over the points of a design.

    With a grouping, only pairs of points from distinct groups are counted;
    otherwise all pairs.  Only the design's point count is read, not its
    blocks.  Counted from colour-class sizes in O(v): the pairs within a
    class, less those within a group.
    """
    v = d.v
    _require_points(v, col, "colouring")
    a = col.assignment
    mono = sum(comb(n, 2) for n in Counter(a).values())
    total = comb(v, 2)
    if g is not None:
        _require_points(v, g, "grouping")
        for grp in g.groups:
            total -= comb(len(grp), 2)
            mono -= sum(comb(n, 2) for n in Counter(a[p] for p in grp).values())
    pm = Fraction(mono, total) if total else Fraction(0)
    return PairStats(total - mono, mono, pm)


def brute_min_monochrome(
    d: Design, g: Grouping, c: int, limit_bits: float = 24.0
) -> tuple[int, Colouring]:
    """Exact minimum of cross-group monochrome pairs over all c-colourings.

    Exhaustive, with colour symmetry broken by forcing the first occurrence
    of each colour into ascending order.  Returns the minimum together with
    the lexicographically least colouring attaining it.  Guarded so that
    v*log2(c) stays within limit_bits.
    """
    if c < 1:
        raise DesignError("colour count must be at least 1")
    v = d.v
    _require_points(v, g, "grouping")
    if c == 1:
        # one colouring, all zeros: every cross-group pair is monochrome
        return comb(v, 2) - sum(comb(len(grp), 2) for grp in g.groups), Colouring(1, (0,) * v)
    if v * log2(c) > limit_bits:
        raise InstanceTooLargeError(
            f"enumerating {c}^{v} colourings exceeds the {limit_bits}-bit guard"
        )
    gi = g.group_index
    u = g.u
    # colour_totals[colr] and per-group counts give the monochrome delta of
    # an assignment in O(1).
    colour_totals = [0] * c
    group_counts = [[0] * c for _ in range(u)]
    assignment = [0] * v
    best = comb(v, 2) + 1
    best_assignment: Optional[tuple[int, ...]] = None

    def rec(p: int, used: int, mono: int) -> None:
        nonlocal best, best_assignment
        # Counts only grow, so a partial count at the current best can no
        # longer improve on it; the first colouring reaching each new best
        # in enumeration order is the lexicographically least one.
        if mono >= best:
            return
        if p == v:
            best = mono
            best_assignment = tuple(assignment)
            return
        grp = gi[p]
        for colr in range(min(used + 1, c)):
            delta = colour_totals[colr] - group_counts[grp][colr]
            if mono + delta >= best:
                continue
            assignment[p] = colr
            colour_totals[colr] += 1
            group_counts[grp][colr] += 1
            rec(p + 1, max(used, colr + 1), mono + delta)
            colour_totals[colr] -= 1
            group_counts[grp][colr] -= 1
        assignment[p] = 0

    rec(0, 0, 0)
    if best_assignment is None:
        raise InternalConsistencyError("the enumeration found no colouring")
    return best, Colouring(c, best_assignment)
