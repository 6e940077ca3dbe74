"""Transforms between designs, GDDs and packings, and the constructive
colourings that come with them."""
from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .colouring import Colouring, check_group_colouring
from .core import (
    Design,
    DesignError,
    Grouping,
    InternalConsistencyError,
    UnsupportedParameterError,
    _covers_exactly,
    _is_gdd,
    _require,
    _require_points,
    is_transversal,
)
from .td import td_symbol_rows


@dataclass(frozen=True)
class BlowUp:
    """Result of expanding every point into w copies.

    ``lift`` transfers any colouring of the source design to the expanded
    one by colouring all copies of a point alike, which preserves weak
    validity because every expanded block projects onto a source block.
    """

    design: Design
    grouping: Grouping
    w: int

    def lift(self, col: Colouring) -> Colouring:
        _require_points(self.design.v // self.w, col, "colouring")
        assignment = tuple(col.assignment[p // self.w] for p in range(self.design.v))
        return Colouring(col.c, assignment)


def _expand(d: Design, g: Grouping, w: int, rows: list[tuple[int, ...]]) -> tuple[Design, Grouping]:
    """Wilson's fundamental construction with a TD(k, w) given as rows.

    Point x becomes x*w..x*w+w-1 and each group the copies of its points;
    block B and row r give the block of copies B[i]*w + r[i].
    """
    blocks = tuple(
        tuple(p * w + s for p, s in zip(blk, row)) for blk in d.blocks for row in rows
    )
    groups = tuple(tuple(p * w + a for p in grp for a in range(w)) for grp in g.groups)
    return Design(d.v * w, blocks, d.lambda_), Grouping(d.v * w, groups)


def blow_up(d: Design, g: Grouping, w: int) -> BlowUp:
    """Expand a k-GDD of type g^u into one of type (wg)^u.

    Point x becomes x*w..x*w+w-1; every block carries a copy of a TD(k, w)
    across its points' copy columns.  The TD's first row is all zeros, so
    the all-zero copies of a block form a block again: the source design
    embeds, and a lifted colouring is weak whenever the original is.
    Raises InternalConsistencyError if a GDD yields no GDD.
    """
    if w < 1:
        raise UnsupportedParameterError("expansion factor must be positive")
    rows = td_symbol_rows(d.k, w) if d.blocks else []
    if not d.uniform:
        raise UnsupportedParameterError("blow-up needs a uniform block size")
    design, grouping = _expand(d, g, w, rows)
    # a source that is no GDD, such as a packing, yields none either
    if not _is_gdd(design, grouping) and _is_gdd(d, g):
        raise InternalConsistencyError(f"the blow-up of a GDD by {w} is not a GDD")
    return BlowUp(design, grouping, w)


@dataclass(frozen=True)
class ParallelClass:
    """Indices of pairwise-disjoint blocks that partition the point set."""

    block_indices: tuple[int, ...]


def is_parallel_class(d: Design, pc: ParallelClass) -> bool:
    seen: set[int] = set()
    for bi in pc.block_indices:
        if not 0 <= bi < d.b:
            return False
        blk = d.blocks[bi]
        if seen.intersection(blk):
            return False
        seen.update(blk)
    return len(seen) == d.v


def pc_to_gdd(d: Design, pc: ParallelClass) -> tuple[Design, Grouping]:
    """Turn a parallel class into the groups of a GDD on the same points."""
    if not is_parallel_class(d, pc):
        raise DesignError("block indices do not form a parallel class")
    chosen = set(pc.block_indices)
    blocks = tuple(blk for bi, blk in enumerate(d.blocks) if bi not in chosen)
    groups = tuple(d.blocks[bi] for bi in pc.block_indices)
    return Design._from_canonical(d.v, blocks, d.lambda_), Grouping(d.v, groups)


def delete_point(d: Design, y: int) -> tuple[Design, Grouping]:
    """Delete a point of a BIBD with lambda=1; the blocks through it become
    groups.  Points above y shift down by one to stay contiguous.  Raises
    DesignError, naming the source's points, when two blocks through y
    share another point or some point shares no block with y, and
    InternalConsistencyError if a BIBD yields no GDD."""
    if not 0 <= y < d.v:
        raise UnsupportedParameterError(f"point {y} out of range")
    if d.lambda_ != 1:
        raise UnsupportedParameterError("point deletion needs lambda = 1")

    def relabel(p: int) -> int:
        return p if p < y else p - 1

    groups = []
    blocks = []
    met = {y}
    for blk in d.blocks:
        if y in blk:
            group = [p for p in blk if p != y]
            twice = met.intersection(group)
            if twice:
                raise DesignError(f"pair {{{y}, {min(twice)}}} lies in two blocks")
            met.update(group)
            groups.append(tuple(map(relabel, group)))
        else:
            blocks.append(tuple(relabel(p) for p in blk))
    if len(met) < d.v:
        lone = [p for p in range(d.v) if p not in met]
        raise DesignError(f"point {y} shares no block with {len(lone)} points: {lone[:5]}")
    design, grouping = Design(d.v - 1, tuple(blocks), 1), Grouping(d.v - 1, tuple(groups))
    # a source that holds every pair once, uniform or not, leaves a GDD
    if not _is_gdd(design, grouping) and _covers_exactly(d, comb(d.v, 2)):
        raise InternalConsistencyError(f"deleting point {y} of a BIBD left no GDD")
    return design, grouping


def remove_blocks(d: Design, beta) -> Design:
    """The packing left after removing the blocks with the given indices."""
    chosen = set(beta)
    for bi in chosen:
        if not 0 <= bi < d.b:
            raise DesignError(f"block index {bi} out of range")
    return Design(d.v, tuple(blk for bi, blk in enumerate(d.blocks) if bi not in chosen), d.lambda_)


NONEXISTENT = "nonexistent"


def equitable_gdd_colouring(d: Design, g: Grouping, c: int):
    """A block-equitable c-colouring of a uniform k-GDD, or NONEXISTENT.

    Exactly one of three shapes works: disjoint per-group palettes when
    u <= c <= ug (blocks become rainbow), monochromatic groups when k = u,
    and u/c all-same-coloured groups when k = u-1 with c dividing u.  When
    none applies no block-equitable c-colouring exists at all.
    """
    if c < 2:
        raise DesignError("colour count must be at least 2")
    size = g.uniform_size
    if size is None:
        raise UnsupportedParameterError("uniform group sizes required")
    k, u = d.k, g.u
    if not d.uniform or not 3 <= k <= u:
        raise UnsupportedParameterError("requires uniform block size with 3 <= k <= u")
    if u <= c <= u * size:
        # Palettes of floor/ceil(c/u) colours per group, points coloured
        # round-robin inside their group's palette.
        base, extra = divmod(c, u)
        assignment = [0] * d.v
        start = 0
        for gi, grp in enumerate(g.groups):
            width = base + (1 if gi < extra else 0)
            for off, p in enumerate(sorted(grp)):
                assignment[p] = start + off % width
            start += width
        return Colouring(c, tuple(assignment))
    if k == u:
        return Colouring(c, tuple(gi % c if c >= u else gi * c // u for gi in g.group_index))
    if k == u - 1 and u % c == 0:
        per = u // c
        return Colouring(c, tuple(gi // per for gi in g.group_index))
    return NONEXISTENT


def td_group_equitable_colouring(d: Design, g: Grouping) -> Colouring:
    """A group-equitable 2-colouring of a TD(k+2, g) with g >= 4, k > ceil(g/2).

    After relabelling so the blocks through the first point of the first
    group run straight across the other groups, the first floor(g/2)
    symbols of every group but the last are coloured 0 and the last group
    is coloured the other way round.  A point's symbol is its position in
    its group, so any point labelling works.
    """
    size = g.uniform_size
    if size is None or not is_transversal(d, g):
        raise UnsupportedParameterError("input must be a transversal design")
    gsize = size
    big_k = g.u
    if gsize < 4 or (big_k - 2) <= -(-gsize // 2):
        raise UnsupportedParameterError(
            f"needs group size >= 4 and k + 2 groups with k > ceil(g/2); got g={gsize}, k={big_k - 2}"
        )
    # Relabel symbols in groups 1.. so that the s-th block through the
    # anchor meets every later group in its s-th symbol.
    anchor = g.groups[0][0]
    anchor_blocks = sorted(blk for blk in d.blocks if anchor in blk)
    if len(anchor_blocks) != gsize:
        raise InternalConsistencyError("the anchor point must lie on one block per symbol")
    symbol = [0] * d.v
    for grp in g.groups:
        for x, p in enumerate(grp):
            symbol[p] = x
    gi = g.group_index
    for s, blk in enumerate(anchor_blocks):
        for p in blk:
            if gi[p] > 0:
                symbol[p] = s
    half = gsize // 2
    # Colour 1: the high symbols of every group but the last, and the low
    # symbols of the last.
    col = Colouring(
        2, tuple(int((symbol[p] < half) == (gi[p] == big_k - 1)) for p in range(d.v))
    )
    report = check_group_colouring(d, g, col, "group-equitable")
    _require(report, InternalConsistencyError, "constructed colouring invalid")
    return col


def group_equitable_blowup(
    d: Design,
    g: Grouping,
    td_design: Design,
    td_grouping: Grouping,
    td_colouring: Colouring,
) -> tuple[Design, Grouping, Colouring]:
    """Expand a k-GDD of type h^u by a 2-coloured TD(k, g) into a
    group-equitably 2-coloured k-GDD of type (gh)^u.

    The TD colouring must be group-equitable with the same colour holding
    exactly floor(g/2) points of every group; each point of the GDD blows
    up into g copies coloured floor(g/2) and ceil(g/2), and the TD copy
    placed on each block is aligned with those copy colours.
    """
    k = d.k
    if not d.uniform:
        raise UnsupportedParameterError("uniform block size required")
    gsize = td_grouping.uniform_size
    if gsize is None or not is_transversal(td_design, td_grouping) or td_grouping.u != k:
        raise UnsupportedParameterError(f"second argument must be a TD({k}, g)")
    if td_colouring.c != 2:
        raise UnsupportedParameterError("the TD colouring must use two colours")
    tdrep = check_group_colouring(td_design, td_grouping, td_colouring, "group-equitable")
    if not tdrep.passed:
        raise DesignError("the TD colouring is not a group-equitable weak 2-colouring")
    half = gsize // 2
    if half == 0:
        raise UnsupportedParameterError("group size 1 admits no balanced split")
    # The colour with exactly floor(g/2) points in every TD group.
    low_colour = None
    for colr in (0, 1):
        if all(
            sum(1 for p in grp if td_colouring.assignment[p] == colr) == half
            for grp in td_grouping.groups
        ):
            low_colour = colr
            break
    if low_colour is None:
        raise DesignError(
            "the TD colouring must give the same colour exactly floor(g/2) points of every group"
        )
    # Within TD group i: its low-coloured symbols map to copy slots
    # 0..half-1, the rest to half..g-1, in ascending point order.
    slot_of: dict[int, int] = {}
    for grp in td_grouping.groups:
        low = [p for p in grp if td_colouring.assignment[p] == low_colour]
        high = [p for p in grp if td_colouring.assignment[p] != low_colour]
        for slot, p in enumerate(low + high):
            slot_of[p] = slot
    gi = td_grouping.group_index
    rows = [
        tuple(slot_of[p] for p in sorted(td_blk, key=gi.__getitem__))
        for td_blk in td_design.blocks
    ]
    design, grouping = _expand(d, g, gsize, rows)
    colouring = Colouring(
        2, tuple(low_colour if p % gsize < half else 1 - low_colour for p in range(design.v))
    )
    report = check_group_colouring(design, grouping, colouring, "group-equitable")
    _require(report, InternalConsistencyError, "expanded colouring invalid")
    return design, grouping, colouring
