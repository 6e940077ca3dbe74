"""Block designs, groupings and packings, with exact structural validation.

Points are always the integers 0..v-1.  A design together with a grouping
(a partition of the points) forms a group divisible design; a design alone
is validated either as a balanced incomplete block design (every pair
covered exactly lambda times) or as a packing (every pair covered at most
lambda times).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import InitVar, dataclass, field
from functools import cached_property
from itertools import combinations, groupby, repeat
from math import comb
from typing import Optional, Sequence

Block = tuple[int, ...]
Pair = tuple[int, int]


class DesignError(ValueError):
    """A design, grouping or colouring is structurally malformed."""


class UnsupportedParameterError(DesignError):
    """The requested parameters are outside the supported range."""


class InternalConsistencyError(AssertionError):
    """An invariant failed: a bug, never a property of the input.

    Raised explicitly, so the checks survive `python -O`; it subclasses
    AssertionError so callers that caught the old asserts still do.
    """


# A colouring search and a singleton grouping build a table entry per
# point; above this many points they refuse before allocating one, so a
# hostile v fails cleanly.
_MAX_TABLE_POINTS = 1 << 20


def _check_table_points(v: int, what: str) -> None:
    """Raise UnsupportedParameterError when v exceeds `_MAX_TABLE_POINTS`."""
    if v > _MAX_TABLE_POINTS:
        raise UnsupportedParameterError(
            f"{what} on {v} points exceeds the {_MAX_TABLE_POINTS}-point limit"
        )


# A construction builds a tuple per block; above this many blocks, 16
# times the 2**18 that every construction in the tests fits under and
# about 68 times the benchmark's largest packing (61,504 blocks at
# v = 992), it refuses before building one, so a hostile parameter fails
# cleanly.
_MAX_BLOCKS = 1 << 22


def _check_block_count(blocks: int, what: str) -> None:
    """Raise UnsupportedParameterError when `blocks`, the block count of a
    construction read from its parameters, exceeds `_MAX_BLOCKS`."""
    if blocks > _MAX_BLOCKS:
        raise UnsupportedParameterError(
            f"{what} has {blocks} blocks, above the {_MAX_BLOCKS}-block limit"
        )


def _ascending_fours(blocks: Sequence[Block], v: int) -> bool:
    """Whether every sorted block has four points, all distinct and in
    0..v-1: one chained test per block, the fast path of `Design`."""
    try:
        for a, b, c, e in blocks:
            if not 0 <= a < b < c < e < v:
                return False
    except ValueError:  # a block of another size
        return False
    return True


def _size_profile(blocks: Sequence[Block]) -> dict[int, int]:
    """The number of blocks of each size: one set of the sizes when they
    are all equal, a count by size otherwise."""
    sizes = set(map(len, blocks))
    if len(sizes) == 1:
        return {sizes.pop(): len(blocks)}
    return Counter(map(len, blocks))


@dataclass(frozen=True)
class Design:
    """A block design on points 0..v-1.

    Blocks are stored sorted internally and in lexicographic order overall,
    so equal designs compare equal and serialize identically.  ``k`` is the
    common block size; mixed block sizes are tolerated (``uniform`` is then
    False and ``k`` reports the minimum size).
    """

    v: int
    blocks: tuple[Block, ...]
    lambda_: int = 1
    # set only by `_from_canonical`, for blocks already proved canonical
    _canonical: InitVar[bool] = field(default=False, kw_only=True)
    # the number of blocks of each size
    _sizes: dict[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self, _canonical: bool) -> None:
        if self.v < 0:
            raise DesignError("point count must be non-negative")
        if self.lambda_ < 1:
            raise DesignError("pair multiplicity index must be a positive integer")
        if _canonical:
            canon, fours = self.blocks, False
        else:
            raws = tuple(self.blocks)
            try:
                canon = list(map(tuple, map(sorted, raws)))
                fours = _ascending_fours(canon, self.v)
            except TypeError:
                # an unorderable block: sorted again one block at a time
                # below, so it raises only after any earlier block's error
                canon, fours = map(tuple, map(sorted, raws)), False
            if not fours:
                checked = []
                for raw, blk in zip(raws, canon):
                    if len(blk) < 2:
                        raise DesignError(f"block {tuple(raw)!r} has fewer than two points")
                    if len(set(blk)) != len(blk):
                        raise DesignError(f"block {tuple(raw)!r} has a repeated point")
                    if blk[0] < 0 or blk[-1] >= self.v:
                        raise DesignError(f"block {tuple(raw)!r} out of range for v={self.v}")
                    checked.append(blk)
                canon = checked
        sizes = {4: len(canon)} if fours and canon else _size_profile(canon)
        if min(sizes, default=2) < 2:
            # only blocks from `_from_canonical` reach here unchecked
            short = next(blk for blk in canon if len(blk) < 2)
            raise DesignError(f"block {short!r} has fewer than two points")
        object.__setattr__(self, "blocks", tuple(sorted(canon)))
        object.__setattr__(self, "_sizes", sizes)

    @classmethod
    def _from_canonical(cls, v: int, blocks: Sequence[Block], lambda_: int) -> "Design":
        """A design from tuples already known to be ascending, distinct and
        in range, as `parse_design` proves them line by line and as the
        blocks of a `Design` are, which `pc_to_gdd` passes on in order.

        Only the point count, lambda and the block sizes are checked, with
        the messages and precedence of the constructor, and the block
        counts by size that the check reads are kept; the block list is
        still sorted, which is linear when it is sorted already.
        """
        return cls(v, blocks, lambda_, _canonical=True)

    @property
    def k(self) -> int:
        """Common (minimum, if mixed) block size; 0 for an empty block list."""
        return min(self._sizes, default=0)

    @property
    def uniform(self) -> bool:
        return len(self._sizes) <= 1

    @property
    def b(self) -> int:
        return len(self.blocks)

    def pair_multiplicities(self) -> dict[Pair, int]:
        """Coverage count for every pair that occurs in at least one block."""
        return {divmod(key, self.v): n for key, n in _pair_counts(self).items()}

    def point_degrees(self) -> list[int]:
        deg = [0] * self.v
        for blk in self.blocks:
            for p in blk:
                deg[p] += 1
        return deg


@dataclass(frozen=True)
class Grouping:
    """A partition of the points 0..v-1 into groups.

    Groups are stored sorted internally and ordered by their least point.
    """

    v: int
    groups: tuple[tuple[int, ...], ...]
    group_index: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        canon = sorted(tuple(sorted(g)) for g in self.groups)
        # Nothing of size v is allocated until the groups are known to
        # partition 0..v-1, so a hostile v fails cleanly.
        seen: set[int] = set()
        for grp in canon:
            if not grp:
                raise DesignError("empty group")
            for p in grp:
                if p < 0 or p >= self.v:
                    raise DesignError(f"group point {p} out of range for v={self.v}")
                if p in seen:
                    raise DesignError(f"point {p} occurs in two groups")
                seen.add(p)
        total = len(seen)
        if total != self.v:
            # at most `total` of the first total+5 points are covered
            missing = [p for p in range(min(self.v, total + 5)) if p not in seen]
            raise DesignError(f"groups do not cover points {missing[:5]}")
        index = [0] * self.v
        for gi, grp in enumerate(canon):
            for p in grp:
                index[p] = gi
        object.__setattr__(self, "groups", tuple(canon))
        object.__setattr__(self, "group_index", tuple(index))

    @property
    def u(self) -> int:
        return len(self.groups)

    @property
    def group_sizes(self) -> tuple[int, ...]:
        return tuple(len(g) for g in self.groups)

    @property
    def uniform_size(self) -> Optional[int]:
        """The common group size, or None if groups have mixed sizes."""
        sizes = set(self.group_sizes)
        return sizes.pop() if len(sizes) == 1 else None

    @classmethod
    def singletons(cls, v: int) -> "Grouping":
        """The trivial grouping with one point per group."""
        _check_table_points(v, "a singleton grouping")
        return cls(v, tuple((p,) for p in range(v)))


@dataclass(frozen=True)
class LeaveGraph:
    """The graph of pairs left uncovered by a packing with lambda = 1.

    It holds the packing and the number of pairs it leaves uncovered; the
    edge set is derived from the blocks on first access.
    """

    design: Design = field(repr=False)
    edge_count: int

    @property
    def v(self) -> int:
        return self.design.v

    @cached_property
    def edges(self) -> frozenset[Pair]:
        v = self.v
        # every pair is a cross pair of the singleton grouping
        missing = _missing_cross_pairs(v, range(v), _pair_counts(self.design))
        return frozenset(map(divmod, missing, repeat(v)))


@dataclass(frozen=True)
class Violation:
    kind: str
    witness: tuple

    def __str__(self) -> str:
        return f"{self.kind}: {self.witness}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]
    details: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def __bool__(self) -> bool:
        return self.passed


def _require(report, error: type[Exception], what: str) -> None:
    """Raise `error`, naming what failed and the first three violations,
    unless the report passed; only its `passed` and `violations` are read."""
    if not report.passed:
        raise error(f"{what}: {report.violations[:3]}")


def _require_points(v: int, other, what: str) -> None:
    """Raise DesignError unless `other`, a colouring or grouping, is over
    v points."""
    if other.v != v:
        raise DesignError(f"{what} is over a different point count")


def admissible(v_or_u: int, g: int, k: int, lambda_: int) -> bool:
    """Divisibility conditions necessary for a design to exist.

    These are the two conditions for a uniform k-GDD with u groups of
    size g; with g=1 they are the two classical conditions for a
    BIBD(v, k, lambda).
    """
    if v_or_u <= 0 or g <= 0 or k < 2 or lambda_ < 1:
        raise DesignError("arguments must be positive and k >= 2")
    u = v_or_u
    return (lambda_ * g * (u - 1)) % (k - 1) == 0 and (
        lambda_ * u * (u - 1) * g * g
    ) % (k * (k - 1)) == 0


def _pair_counts(d: Design) -> Counter:
    """How many blocks hold each pair p < q, keyed by ``p*v + q``.

    The table serves lambda > 1, sparse designs and failure listings;
    `_neighbour_masks` settles the lambda = 1 structure without it.
    Blocks are sorted, so p < q within a block; the keys are built column
    by column over the blocks of each size.
    """
    v = d.v
    by_size: dict[int, list[Block]] = {}
    for blk in d.blocks:
        by_size.setdefault(len(blk), []).append(blk)
    counts: Counter = Counter()
    for k, blocks in by_size.items():
        for i, j in combinations(range(k), 2):
            counts.update([blk[i] * v + blk[j] for blk in blocks])
    return counts


def _missing_cross_pairs(v: int, gi: Sequence[int], counts: Counter) -> list[int]:
    """The keys ``p*v + q``, ascending, of the pairs p < q in distinct
    groups (``gi[p] != gi[q]``) that no block holds.  Points are visited
    group by group, each checked only against the points of later groups:
    O(v log v) plus one test per cross pair."""
    missing: list[int] = []
    later: list[int] = []
    groups = [list(grp) for _, grp in groupby(sorted(range(v), key=gi.__getitem__), gi.__getitem__)]
    for grp in reversed(groups):
        for p in grp:
            missing += [key for q in later if (key := p * v + q if p < q else q * v + p) not in counts]
        later += grp
    missing.sort()
    return missing


# A lower neighbour mask holds a bit for each lesser point, so all of them
# hold at most v * v / 2 bits; a pair key costs over 288 bits (a 28-byte
# int and its entry in the pair-count table).  The kernel runs while v * v
# bits stay within this many per pair cover they replace.
_MASK_BITS_PER_COVER = 256

# A failed BIBD or GDD check lists at most this many pairs; a larger
# listing, and the walk over the cross pairs that would make it, are refused.
_MAX_LISTED_PAIRS = 1 << 20


def _pair_covers(d: Design) -> int:
    """The sum of C(|B|, 2) over the blocks: pair covers, repeats included,
    read from the block counts by size (b * C(k, 2) when uniform)."""
    return sum(n * comb(k, 2) for k, n in d._sizes.items())


def _neighbour_masks(d: Design) -> Optional[list[int]]:
    """The lambda = 1 pair kernel: for each point q, the lower mask of the
    points p < q that share a block with q (0 when there are none).

    Blocks are sorted, so it walks each block once, ORing the bits of the
    points before q in the block into q's mask; a design of blocks of four
    unpacks each into four points, at five ORs on ints no wider than the
    block's top point.  Each covered pair is one bit, so the blocks cover
    sum(popcount) distinct pairs (`_mask_pairs`).  Returns None for a
    sparse design, whose v * v mask bits would outweigh the pair keys they
    replace, so a huge v with few blocks allocates nothing of size v.
    """
    v = d.v
    if v * v > _MASK_BITS_PER_COVER * _pair_covers(d):
        return None
    bit = [1 << p for p in range(v)]
    low = [0] * v
    if d.uniform and d.k == 4:
        for a, b, c, e in d.blocks:
            m = bit[a]
            low[b] |= m
            m |= bit[b]
            low[c] |= m
            low[e] |= m | bit[c]
        return low
    for blk in d.blocks:
        m = 0
        for p in blk:
            low[p] |= m
            m |= bit[p]
    return low


def _mask_pairs(low: list[int]) -> int:
    """The number of distinct pairs that lower neighbour masks cover: one
    bit each."""
    return sum(map(int.bit_count, low))


def _distinct_pairs(d: Design) -> Optional[int]:
    """The number of pairs the blocks of d cover when no pair lies in two
    blocks, and None when some pair does."""
    masks = _neighbour_masks(d)
    distinct = len(_pair_counts(d)) if masks is None else _mask_pairs(masks)
    return distinct if distinct == _pair_covers(d) else None


def _covers_exactly(d: Design, pairs: int) -> bool:
    """Whether the blocks cover `pairs` distinct pairs, each lambda_ times."""
    if d.lambda_ == 1:
        return _distinct_pairs(d) == pairs
    counts = _pair_counts(d)
    return len(counts) == pairs and not set(counts.values()) - {d.lambda_}


def _cross_pair_violations(
    kind: str, d: Design, gi: Sequence[int], cross: int
) -> list[Violation]:
    """Every pair of points in distinct groups (``gi[p] != gi[q]``, `cross`
    of them) whose count is not lambda_, in lexicographic order.  It walks
    the cross pairs, so it runs only once a check has failed, and raises
    UnsupportedParameterError rather than list more than
    `_MAX_LISTED_PAIRS` pairs."""
    v, lambda_ = d.v, d.lambda_
    counts = _pair_counts(d)
    covered = [key for key in counts if gi[key // v] != gi[key % v]]
    wrong = [key for key in covered if counts[key] != lambda_]
    failing = cross - len(covered) + len(wrong)
    if failing > _MAX_LISTED_PAIRS:
        raise UnsupportedParameterError(
            f"{failing} pairs fail, more than the {_MAX_LISTED_PAIRS} a report lists"
        )
    return [
        Violation(kind, (divmod(key, v), counts[key]))
        for key in sorted(_missing_cross_pairs(v, gi, counts) + wrong)
    ]


def _repeated_pair_violations(d: Design, low: list[int]) -> list[Violation]:
    """The pairs of a lambda = 1 design that lie in two or more blocks,
    with their counts, in lexicographic order.  A block puts i of its
    members below the member q at index i; q's lower mask `low[q]` has
    fewer bits than the sum of those indices over q's blocks exactly when
    some pair p < q repeats, and only the pairs p < q of the points so
    flagged are counted.  It runs only once a check has failed."""
    v = d.v
    under = [0] * v
    for blk in d.blocks:
        for i, q in enumerate(blk):
            under[q] += i
    flagged = {q for q, m in enumerate(low) if m.bit_count() < under[q]}
    through: Counter = Counter()
    for blk in d.blocks:
        if not flagged.isdisjoint(blk):
            for i, q in enumerate(blk):
                if q in flagged:
                    through.update(p * v + q for p in blk[:i])
    return [
        Violation("pair-multiplicity", (divmod(key, v), n))
        for key, n in sorted(through.items())
        if n > 1
    ]


def _design_details(d: Design) -> dict:
    """The report details every validator gives: the design's parameters."""
    return {"v": d.v, "k": d.k, "lambda": d.lambda_, "blocks": d.b}


def validate_bibd(d: Design) -> ValidationReport:
    """Check that every unordered pair of points occurs in exactly lambda_ blocks."""
    violations: list[Violation] = []
    if not d.uniform:
        violations.append(Violation("nonuniform-blocks", tuple(sorted(d._sizes))))
    pairs = comb(d.v, 2)
    if not _covers_exactly(d, pairs):
        # every pair is a cross pair of the singleton grouping
        violations += _cross_pair_violations("pair-multiplicity", d, range(d.v), pairs)
    details = {
        **_design_details(d),
        "admissible": admissible(d.v, 1, d.k, d.lambda_) if d.v >= 2 and d.k >= 2 else False,
    }
    return ValidationReport(tuple(violations), details)


def _is_gdd(d: Design, g: Grouping) -> bool:
    """Whether `validate_gdd` passes, without listing what fails."""
    group_of = g.group_index.__getitem__
    if any(len(set(map(group_of, blk))) < len(blk) for blk in d.blocks):
        return False
    # With no within-group pair every pair a block covers is a cross
    # pair, so the cross pairs are all covered iff as many are covered.
    return _covers_exactly(d, comb(d.v, 2) - sum(comb(len(grp), 2) for grp in g.groups))


def validate_gdd(d: Design, g: Grouping) -> ValidationReport:
    """Check the group divisible design axioms.

    Every pair of points from distinct groups must occur in exactly lambda_
    blocks, and no block may contain two points of one group.
    """
    _require_points(d.v, g, "grouping")
    violations: list[Violation] = []
    if not _is_gdd(d, g):
        gi = g.group_index
        group_of = gi.__getitem__
        for bi, blk in enumerate(d.blocks):
            if len(set(map(group_of, blk))) == len(blk):
                continue
            used = {}
            for p in blk:
                grp = gi[p]
                if grp in used:
                    violations.append(Violation("within-group-pair-in-block", (bi, blk, (used[grp], p))))
                else:
                    used[grp] = p
        cross = comb(d.v, 2) - sum(comb(len(grp), 2) for grp in g.groups)
        violations += _cross_pair_violations("cross-pair-multiplicity", d, gi, cross)
    uniform = g.uniform_size is not None
    details = {**_design_details(d), "u": g.u, "uniform-groups": uniform}
    if uniform and d.k >= 2:
        details["admissible"] = admissible(g.u, g.uniform_size, d.k, d.lambda_)
    return ValidationReport(tuple(violations), details)


def validate_packing(d: Design) -> tuple[ValidationReport, Optional[LeaveGraph]]:
    """Check that no pair exceeds multiplicity lambda_; return the leave for lambda_=1.

    With lambda_ = 1 the neighbour-mask kernel decides; lambda_ > 1 and
    sparse designs read the pair-count table.
    """
    violations: list[Violation] = []
    if not d.uniform:
        violations.append(Violation("nonuniform-blocks", tuple(sorted(d._sizes))))
    masks = _neighbour_masks(d) if d.lambda_ == 1 else None
    if masks is not None:
        covered = _mask_pairs(masks)
        if covered < _pair_covers(d):
            violations += _repeated_pair_violations(d, masks)
    else:
        counts = _pair_counts(d)
        violations += [
            Violation("pair-multiplicity", (divmod(key, d.v), counts[key]))
            for key in sorted(key for key, n in counts.items() if n > d.lambda_)
        ]
        covered = len(counts)
    leave = LeaveGraph(d, comb(d.v, 2) - covered) if d.lambda_ == 1 else None
    details = {**_design_details(d), "size": d.b}
    return ValidationReport(tuple(violations), details), leave


def is_transversal(d: Design, g: Grouping) -> bool:
    """True when the GDD has k groups and every block meets every group once."""
    _require_points(d.v, g, "grouping")
    k = d.k
    if not d.uniform or g.u != k or k == 0:
        return False
    gi = g.group_index
    for blk in d.blocks:
        if len({gi[p] for p in blk}) != k:
            return False
    return True
