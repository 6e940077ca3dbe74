"""Maximum block-equitably colourable packings with block size 4, and the
size bounds they meet.

The point layouts are fixed so every construction serializes reproducibly:

* transversal-design packings inherit the TD layout (point x of group i is
  i*g + x);
* the two-row cyclic constructions (rotation families and difference
  pairs) put row 1 at 0..len-1 and row 2 right after it, with any
  points at infinity last;
* the four-row construction for v = 4n+2 (n odd) lays rows 1..4 out
  consecutively;
* isolated points are appended at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd
from typing import Optional, Union

from . import td
from .catalog import _BUILDERS
from .colouring import Colouring, check_block_equitable, pair_stats_equitable
from .core import (
    Design,
    DesignError,
    InternalConsistencyError,
    UnsupportedParameterError,
    ValidationReport,
    Violation,
    _check_block_count,
    _require,
    validate_packing,
)
from .td import UnsupportedOrderError


@dataclass(frozen=True)
class ColouredPacking:
    """A validated packing with a block-equitable colouring attached.

    Every public constructor below builds its output unchecked and wraps
    it here once, so each output is validated exactly once.
    """

    design: Design
    colouring: Colouring
    bound_met: bool

    def __post_init__(self) -> None:
        report, _ = validate_packing(self.design)
        _require(report, InternalConsistencyError, "constructed packing invalid")
        colrep = check_block_equitable(self.design, self.colouring)
        _require(colrep, InternalConsistencyError, "constructed colouring not block-equitable")

    @property
    def size(self) -> int:
        return self.design.b


@dataclass(frozen=True)
class Unachievable:
    """Marker for orders whose bound value is provably not attainable."""

    v: int
    k: int
    c: int
    bound: int
    reason: str = "pigeonhole-exception"


@dataclass(frozen=True)
class BoundInfo:
    value: int
    tight: bool
    achievable: Optional[bool]


def bound_general(v: int, k: int, c: int) -> tuple[Fraction, int]:
    """Upper bound on the size of a block-equitably c-coloured packing.

    Counting non-monochrome pairs: the point set supplies at most nm_c(v)
    of them and every block consumes exactly nm_c(k), so the size is at
    most their ratio.  Returned exactly, together with its floor.
    """
    if k < 3 or c < 2:
        raise UnsupportedParameterError("requires k >= 3 and c >= 2")
    if v < k:
        raise UnsupportedParameterError("requires v >= k")
    exact = Fraction(pair_stats_equitable(v, c).nm, pair_stats_equitable(k, c).nm)
    return exact, int(exact)


def bound_max_equitable(v: int, k: int = 4, c: int = 2) -> BoundInfo:
    """The known-achievable maximum packing size, where it is known exactly.

    For (k, c) = (3, 2) the bound floor(v^2/8) is tight for every v except
    4 and 5.  For (k, c) = (4, 2) the bound is n^2 for v = 4n, 4n+1 and
    n^2 + n for v = 4n+2, 4n+3, achieved except for v in {6, 8, 9, 10}.
    Other parameters fall back to the general bound with tight=False.
    """
    if v < 0:
        raise UnsupportedParameterError("v must be non-negative")
    if (k, c) == (3, 2):
        value = (v * v) // 8 if v >= 3 else 0
        return BoundInfo(value, True, v not in (4, 5))
    if (k, c) == (4, 2):
        n, r = divmod(v, 4)
        value = n * n if r in (0, 1) else n * n + n
        return BoundInfo(value, True, v not in (6, 8, 9, 10))
    if v < k:
        return BoundInfo(0, False, None)
    _, floor = bound_general(v, k, c)
    return BoundInfo(floor, False, None)


def _packing(design: Design, colouring: Colouring) -> ColouredPacking:
    """A coloured PD(v, 4, 1), marked by whether it meets `bound_max_equitable`."""
    return ColouredPacking(design, colouring, design.b == bound_max_equitable(design.v, 4, 2).value)


def _td_packing(k: int, g: int, c: int) -> tuple[Design, Colouring]:
    """The blocks of a TD(k, g), coloured in k/c-group bands, unchecked.

    The caller's packing check is their certificate: a slip in the TD
    that repeats a cross pair fails it, and one that only leaves a cross
    pair uncovered still gives a valid packing of g^2 blocks.
    """
    if c < 2:
        raise DesignError("colour count must be at least 2")
    if k % c:
        raise UnsupportedParameterError(f"colour count {c} must divide block size {k}")
    design, grouping = td._td_from_rows(k, g, td.td_symbol_rows(k, g))
    band = k // c
    return design, Colouring(c, tuple(gi // band for gi in grouping.group_index))


def td_packing_coloured(k: int, g: int, c: int) -> ColouredPacking:
    """A TD(k, g) viewed as a packing on kg points, coloured in k/c-group
    bands; its g^2 blocks meet the general bound exactly when c divides k."""
    design, colouring = _td_packing(k, g, c)
    _, floor = bound_general(k * g, k, c)
    return ColouredPacking(design, colouring, design.b == floor)


# ---------------------------------------------------------------------------
# v = 4n and 4n+1


def _circ(x: int, modulus: int) -> int:
    x %= modulus
    return min(x, modulus - x)


# Block-orbit generators for a PD(4n, 4, 1) on two rows of Z_2n, for
# n = 10, 14, ..., 90.  Each family (x, y, z) yields the orbit
# {(i,1), (i+x,1), (i+y,2), (i+z,2)} for i in Z_2n.  The n/2 families use
# distinct circular differences x, distinct differences z - y, and their
# translated pair positions {y, z, y-x, z-x} partition Z_2n.  They were
# found by a seeded backtracking search; the packing check of every
# output is their certificate.  No TD(4, 10) or TD(4, 14) is known to
# this package; the orders 18..90 have one, but keep this layout so their
# output stays the same.
_ROTATION_FAMILIES: dict[int, tuple[tuple[int, int, int], ...]] = {
    10: ((1, 11, 18), (3, 5, 6), (5, 13, 19), (8, 0, 9), (9, 4, 16)),
    14: ((1, 13, 21), (2, 2, 1), (3, 6, 8), (5, 15, 24), (7, 18, 23), (11, 9, 25), (13, 17, 7)),
    18: ((1, 6, 10), (3, 3, 1), (4, 25, 35), (6, 22, 30), (9, 20, 32), (11, 18, 19), (12, 26, 29),
        (13, 15, 4), (15, 12, 28)),
    22: ((1, 19, 27), (2, 15, 38), (4, 24, 41), (9, 7, 17), (10, 35, 39), (11, 0, 12), (12, 22, 11),
        (15, 2, 3), (17, 21, 23), (20, 34, 16), (21, 5, 30)),
    26: ((1, 30, 41), (2, 10, 13), (4, 16, 18), (6, 26, 33), (8, 32, 50), (10, 2, 3), (14, 35, 51),
        (15, 15, 1), (20, 4, 25), (21, 43, 49), (22, 9, 17), (24, 6, 31), (25, 19, 48)),
    30: ((1, 19, 48), (3, 32, 53), (4, 0, 5), (6, 34, 58), (10, 33, 45), (14, 31, 41), (15, 14, 30),
        (17, 42, 55), (18, 22, 24), (19, 26, 8), (22, 13, 16), (23, 2, 3), (24, 44, 21),
        (25, 11, 37), (26, 9, 36)),
    34: ((2, 36, 65), (3, 18, 25), (4, 42, 48), (5, 37, 54), (7, 35, 66), (8, 0, 1), (9, 20, 23),
        (11, 58, 67), (12, 43, 51), (14, 30, 40), (15, 21, 9), (20, 24, 5), (23, 10, 12),
        (25, 27, 3), (26, 33, 8), (28, 41, 45), (33, 52, 29)),
    38: ((1, 0, 2), (2, 64, 70), (6, 43, 55), (7, 40, 65), (9, 48, 66), (11, 35, 42), (13, 51, 72),
        (14, 12, 27), (17, 26, 10), (20, 45, 54), (21, 36, 16), (22, 7, 30), (24, 21, 47),
        (25, 28, 29), (26, 17, 44), (28, 50, 60), (32, 19, 52), (34, 11, 14), (35, 5, 41)),
    42: ((1, 0, 2), (2, 48, 73), (4, 62, 81), (6, 51, 74), (8, 44, 50), (9, 3, 13), (10, 19, 22),
        (11, 60, 76), (13, 72, 80), (14, 28, 37), (15, 30, 35), (17, 43, 57), (23, 47, 54),
        (26, 33, 34), (27, 32, 6), (28, 55, 66), (30, 69, 82), (31, 41, 11), (32, 18, 53),
        (34, 25, 29), (40, 56, 17)),
    46: ((1, 15, 17), (2, 10, 13), (3, 51, 88), (4, 26, 35), (5, 61, 80), (7, 66, 91), (9, 32, 38),
        (12, 67, 83), (13, 33, 37), (15, 64, 78), (16, 70, 81), (17, 74, 89), (19, 21, 3),
        (20, 50, 60), (22, 28, 7), (23, 18, 42), (25, 34, 12), (26, 62, 69), (29, 68, 73),
        (31, 25, 58), (37, 82, 90), (40, 0, 41), (42, 46, 47)),
    50: ((1, 5, 7), (2, 55, 99), (3, 19, 23), (4, 71, 82), (6, 38, 41), (7, 51, 94), (8, 47, 96),
        (11, 48, 60), (12, 62, 84), (13, 69, 92), (16, 24, 9), (17, 12, 31), (18, 81, 98),
        (21, 73, 86), (24, 58, 66), (26, 26, 1), (27, 29, 30), (28, 68, 74), (32, 45, 15),
        (33, 54, 22), (34, 70, 77), (36, 61, 27), (42, 59, 18), (43, 28, 33), (47, 57, 11)),
    54: ((2, 23, 26), (4, 52, 86), (5, 81, 103), (6, 14, 16), (7, 79, 100), (8, 68, 104),
        (10, 4, 15), (13, 47, 57), (17, 50, 59), (18, 101, 105), (19, 41, 46), (22, 67, 75),
        (24, 30, 7), (26, 89, 106), (27, 39, 13), (29, 66, 78), (32, 61, 31), (33, 65, 71),
        (34, 77, 90), (36, 25, 64), (37, 2, 40), (38, 55, 18), (39, 0, 1), (41, 92, 99),
        (43, 62, 20), (45, 54, 11), (49, 84, 36)),
    58: ((1, 64, 82), (3, 86, 110), (4, 73, 115), (6, 52, 68), (9, 76, 89), (13, 74, 97),
        (17, 50, 55), (18, 2, 3), (19, 48, 56), (20, 24, 26), (22, 22, 1), (23, 53, 59),
        (24, 58, 65), (25, 96, 113), (27, 35, 9), (28, 16, 45), (30, 72, 87), (31, 78, 108),
        (32, 25, 28), (33, 10, 44), (36, 54, 19), (37, 23, 27), (38, 12, 51), (42, 5, 49),
        (45, 43, 105), (46, 66, 21), (53, 92, 40), (54, 85, 32), (56, 70, 15)),
    62: ((1, 83, 115), (2, 58, 123), (4, 40, 47), (5, 76, 118), (6, 112, 122), (7, 2, 10),
        (8, 80, 99), (9, 33, 39), (10, 6, 17), (14, 45, 49), (15, 74, 92), (16, 79, 117),
        (17, 86, 110), (20, 61, 70), (22, 26, 5), (26, 51, 53), (29, 37, 9), (32, 78, 100),
        (34, 54, 21), (40, 11, 52), (41, 89, 103), (42, 84, 97), (45, 102, 105), (47, 32, 81),
        (49, 15, 65), (50, 13, 64), (52, 22, 75), (54, 38, 98), (55, 73, 19), (56, 28, 85),
        (58, 0, 1)),
    66: ((1, 87, 111), (2, 95, 122), (3, 49, 58), (5, 34, 42), (7, 105, 131), (8, 89, 127),
        (9, 21, 23), (11, 17, 7), (12, 40, 47), (13, 65, 79), (14, 67, 83), (20, 4, 25),
        (21, 10, 32), (24, 54, 60), (29, 113, 130), (37, 94, 117), (39, 77, 90), (40, 85, 115),
        (42, 19, 62), (44, 100, 112), (45, 108, 123), (48, 41, 92), (49, 13, 16), (50, 24, 76),
        (51, 82, 33), (52, 8, 61), (54, 48, 104), (56, 15, 74), (57, 22, 27), (59, 118, 129),
        (61, 0, 1), (62, 64, 3), (64, 103, 107)),
    70: ((1, 24, 29), (3, 115, 138), (4, 91, 127), (5, 35, 52), (7, 43, 51), (9, 79, 117),
        (10, 110, 131), (11, 57, 71), (12, 111, 137), (13, 81, 96), (14, 94, 136), (15, 34, 37),
        (16, 54, 64), (19, 31, 13), (20, 41, 45), (22, 97, 128), (23, 16, 40), (29, 2, 32),
        (31, 39, 10), (34, 126, 139), (35, 101, 120), (36, 69, 78), (41, 102, 114), (45, 98, 104),
        (52, 0, 1), (54, 109, 116), (55, 118, 129), (56, 65, 11), (58, 107, 50), (60, 6, 67),
        (61, 14, 76), (63, 26, 90), (64, 82, 84), (67, 4, 72), (68, 124, 58)),
    74: ((1, 0, 2), (4, 56, 76), (6, 65, 91), (7, 99, 117), (8, 40, 45), (9, 134, 142),
        (12, 113, 144), (13, 43, 46), (15, 95, 111), (16, 124, 146), (17, 68, 75), (18, 123, 136),
        (20, 3, 24), (23, 104, 121), (25, 78, 89), (27, 129, 141), (29, 44, 16), (30, 84, 93),
        (31, 69, 73), (33, 88, 103), (35, 26, 62), (39, 48, 10), (40, 19, 20), (44, 79, 36),
        (45, 50, 6), (46, 13, 60), (49, 106, 120), (50, 67, 18), (51, 90, 100), (52, 41, 47),
        (53, 31, 87), (55, 83, 29), (58, 7, 66), (61, 82, 25), (63, 22, 86), (64, 61, 138),
        (65, 11, 77)),
    78: ((1, 71, 83), (2, 94, 148), (4, 58, 73), (7, 102, 135), (8, 125, 144), (9, 23, 26),
        (10, 132, 141), (14, 21, 8), (15, 87, 101), (16, 100, 143), (17, 47, 49), (18, 109, 155),
        (19, 2, 3), (20, 60, 66), (23, 38, 16), (24, 68, 76), (29, 20, 51), (32, 121, 142),
        (34, 96, 113), (35, 80, 85), (38, 42, 5), (39, 129, 153), (40, 81, 88), (41, 75, 36),
        (44, 108, 118), (46, 10, 57), (49, 67, 19), (52, 0, 53), (57, 134, 154), (59, 65, 9),
        (61, 43, 116), (62, 99, 39), (63, 59, 124), (65, 12, 78), (67, 56, 130), (68, 24, 93),
        (69, 28, 98), (70, 33, 105), (76, 27, 31)),
    82: ((1, 45, 49), (2, 27, 30), (3, 132, 161), (8, 78, 100), (10, 122, 157), (11, 121, 159),
        (15, 86, 98), (17, 21, 5), (18, 133, 160), (19, 126, 143), (22, 136, 149), (27, 79, 87),
        (29, 67, 72), (30, 131, 141), (32, 18, 51), (33, 6, 40), (34, 81, 90), (36, 36, 37),
        (38, 84, 91), (39, 102, 113), (40, 66, 29), (41, 109, 140), (43, 125, 151), (45, 59, 15),
        (48, 50, 3), (49, 23, 73), (52, 85, 34), (54, 89, 95), (59, 116, 58), (61, 77, 17),
        (64, 118, 55), (65, 130, 145), (67, 75, 9), (68, 144, 162), (72, 31, 104), (74, 135, 64),
        (75, 39, 117), (77, 139, 69), (78, 88, 11), (80, 12, 93), (81, 20, 22)),
    86: ((4, 122, 150), (5, 11, 13), (6, 110, 166), (7, 135, 165), (9, 9, 10), (10, 32, 35),
        (12, 68, 79), (13, 107, 121), (14, 153, 170), (15, 116, 167), (16, 119, 142),
        (18, 132, 151), (19, 81, 97), (22, 127, 171), (23, 59, 63), (24, 50, 57), (25, 83, 96),
        (26, 115, 137), (31, 140, 169), (32, 76, 85), (33, 47, 15), (34, 41, 46), (35, 31, 69),
        (36, 54, 19), (37, 64, 28), (38, 87, 93), (39, 112, 130), (41, 84, 92), (42, 124, 144),
        (43, 113, 123), (45, 131, 143), (46, 66, 21), (50, 52, 3), (57, 95, 42), (61, 90, 30),
        (63, 100, 39), (71, 75, 5), (72, 88, 17), (73, 60, 134), (76, 99, 24), (80, 145, 72),
        (81, 45, 129), (84, 74, 161)),
    90: ((1, 116, 154), (3, 45, 52), (4, 111, 179), (6, 151, 162), (9, 122, 176), (10, 20, 22),
        (12, 28, 33), (13, 30, 36), (14, 118, 166), (15, 73, 87), (16, 14, 31), (17, 101, 119),
        (19, 124, 155), (22, 96, 108), (23, 25, 3), (24, 134, 173), (25, 106, 125), (27, 70, 78),
        (29, 82, 92), (32, 88, 91), (36, 60, 26), (37, 69, 34), (41, 130, 150), (43, 146, 172),
        (44, 121, 137), (45, 4, 50), (47, 114, 123), (48, 11, 61), (52, 37, 90), (54, 0, 1),
        (56, 62, 7), (57, 40, 98), (60, 135, 159), (63, 142, 157), (68, 95, 29), (69, 57, 133),
        (70, 117, 48), (74, 128, 55), (75, 35, 39), (76, 8, 85), (77, 68, 148), (79, 97, 19),
        (81, 65, 147), (86, 44, 132), (89, 169, 83)),
}


def _pack_4n_rotation(n: int) -> tuple[Design, Colouring]:
    period = 2 * n
    # each row is listed twice, so the column of i + c for i = 0..period-1
    # is the slice from c
    row1 = list(range(period)) * 2
    row2 = list(range(period, 2 * period)) * 2
    blocks = []
    for x, y, z in _ROTATION_FAMILIES[n]:
        blocks += zip(range(period), row1[x:], row2[y:], row2[z:])
    return Design(4 * n, tuple(blocks)), Colouring(2, (0,) * period + (1,) * period)


def _pack_4n(n: int) -> tuple[Design, Colouring]:
    if n < 1:
        raise DesignError("n must be positive")
    if n in (2, 6):
        raise UnsupportedOrderError(f"no PD({4 * n},4,1) of size n^2: order {n} unsupported")
    if n in _ROTATION_FAMILIES:
        return _pack_4n_rotation(n)
    return _td_packing(4, n, 2)


def pack_4n(n: int) -> ColouredPacking:
    """A PD(4n, 4, 1) of size n^2 with a balanced block-equitable 2-colouring.

    Orders n = 10, 14, ..., 90 use the two-row rotation construction over
    the stored families; every other n except 2 and 6 uses a transversal
    design of order n (two groups per colour), which for n = 2 (mod 4)
    comes from Wilson's construction.
    """
    return _packing(*_pack_4n(n))


def _with_isolated_point(design: Design, colouring: Colouring) -> tuple[Design, Colouring]:
    """Append one isolated point, assigning it to the smaller colour class."""
    sizes = colouring.class_sizes()
    target = sizes.index(min(sizes))
    # a Design's blocks are canonical, and stay so with one more point
    extended = Design._from_canonical(design.v + 1, design.blocks, design.lambda_)
    return extended, Colouring(colouring.c, colouring.assignment + (target,))


# ---------------------------------------------------------------------------
# v = 4n+2, n odd


def _pack_4n2_odd(n: int) -> tuple[Design, Colouring]:
    if n < 3 or n % 2 == 0:
        raise UnsupportedParameterError("this construction needs odd n >= 3")
    _check_block_count(n * n + n, f"the packing of order {4 * n + 2}")
    s = (n - 1) // 2
    m = 2 * s + 2
    # row r holds points 2s + (r-2)m + (x mod m); each is listed twice, so
    # the column of x + c for x = 0..m-1 is the slice from c mod m
    row2, row3, row4 = (list(range(2 * s + r * m, 2 * s + (r + 1) * m)) * 2 for r in range(3))
    blocks = []
    for i in range(2 * s):
        shift = s + 2 * i + 5 + (1 if i >= s else 0)
        blocks += zip(repeat(i), row2[:m], row3[(i + 3) % m:], row4[shift % m:])
    blocks += zip(row2[:m], row2[m - 1:], row3[1:], row4[(s + 2) % m:])
    v = 8 * s + 6
    split = 2 * s + m
    return Design(v, tuple(blocks)), Colouring(2, (0,) * split + (1,) * (v - split))


def pack_4n2_odd(n: int) -> ColouredPacking:
    """A PD(4n+2, 4, 1) of size n^2 + n for odd n >= 3.

    Four rows: row 1 holds 2s points and rows 2-4 hold 2s+2 points each
    (n = 2s+1); rows 1-2 form one colour class and rows 3-4 the other.
    Indices within rows 2-4 are taken modulo 2s+2.
    """
    return _packing(*_pack_4n2_odd(n))


# ---------------------------------------------------------------------------
# v = 8s+2 from difference pairs


@dataclass(frozen=True)
class PairsProfile:
    """Difference data driving the two-row construction of a PD(8s+2, 4, 1).

    ``pairs`` holds the s-1 ordered pairs (a_j, b_j) over Z_4s and ``t``
    the extra translation parameter; ``d`` is the circular doubling of t.
    """

    s: int
    t: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def d(self) -> int:
        return min(2 * self.t, 4 * self.s - 2 * self.t)


def verify_pairs_profile(p: PairsProfile) -> ValidationReport:
    """Check the five conditions that make a profile usable.

    Violations name the failed condition and a witness value.
    """
    s, t = p.s, p.t
    m = 4 * s
    violations = []
    if s < 2:
        violations.append(Violation("domain", ("s", s)))
    if not (1 <= t <= 2 * s - 1) or t == s:
        violations.append(Violation("domain", ("t", t)))
    if len(p.pairs) != s - 1:
        violations.append(Violation("domain", ("pair-count", len(p.pairs))))
    for a, b in p.pairs:
        if not (1 <= a <= m - 1) or a == 2 * s:
            violations.append(Violation("domain", ("a", a)))
        if not (1 <= b <= m - 1) or b == 2 * s:
            violations.append(Violation("domain", ("b", b)))
        if not a < b:
            violations.append(Violation("pair-order", (a, b)))
    if violations:
        return ValidationReport(tuple(violations))

    cross = [_circ(a, m) for a, _ in p.pairs] + [_circ(b, m) for _, b in p.pairs] + [t]
    if len(set(cross)) != len(cross) or set(cross) != set(range(1, 2 * s)):
        violations.append(Violation("cross-difference-set", tuple(sorted(cross))))
    within2 = [_circ(b - a, m) for a, b in p.pairs] + [2 * s, p.d]
    if len(set(within2)) != len(within2):
        violations.append(Violation("row2-difference-set", tuple(sorted(within2))))
    within1 = [_circ(a + b, m) for a, b in p.pairs] + [2 * s]
    if len(set(within1)) != len(within1):
        violations.append(Violation("row1-difference-set", tuple(sorted(within1))))
    if (m // gcd(p.d, m)) % 2:
        violations.append(Violation("parity", (p.d, m)))
    return ValidationReport(tuple(violations))


# General profile rows keyed by s mod 12.  Each row gives t, three ranged
# families producing (a, b) for i = 1..count, and fixed extra pairs, all as
# expressions in s evaluated exactly (any non-integer value is a bug).
def _profile_row(s: int) -> tuple[Fraction, list]:
    f = Fraction
    r = s % 12
    if r in (2, 10):
        return f(s - 1), [
            (f(s, 2), (), lambda i: (f(i), f(3 * s, 2) + 1 - 2 * i)),
            (f(s - 6, 4), (), lambda i: (f(s - 1 - 2 * i), f(3 * s, 2) + i)),
            (f(s + 2, 4), (), lambda i: (f(s - 1 + 2 * i), f(2 * s - i))),
        ]
    if r in (0, 8):
        return f(s - 3), [
            (f(s, 2), (), lambda i: (f(i), f(3 * s, 2) + 2 - 2 * i)),
            (f(s, 4), (2,), lambda i: (f(s + 1 - 2 * i), f(3 * s, 2) - 2 + i)),
            (f(s, 4) - 1, (), lambda i: (f(s - 1 + 2 * i), f(2 * s - i))),
            (f(1), (), lambda i: (2 * s - 1 - f(s, 4), 2 * s - f(s, 4))),
        ]
    if r == 4:
        return f(s - 1), [
            (f(s, 2), (), lambda i: (f(i), f(3 * s, 2) + 2 - 2 * i)),
            (f(s, 4) - 4, (), lambda i: (f(s - 3 - 2 * i), f(3 * s, 2) + 2 + i)),
            (f(s, 4), (), lambda i: (f(s + 1 + 2 * i), f(2 * s - i))),
            (f(1), (), lambda i: (f(s - 3), f(s + 1))),
            (f(1), (), lambda i: (f(s, 2) + 1, f(7 * s, 4) - 1)),
            (f(1), (), lambda i: (f(s, 2) + 3, f(3 * s, 2) + 2)),
        ]
    if r == 6:
        return f(s + 1), [
            (f(s - 2, 2), (), lambda i: (f(i), f(3 * s, 2) - 1 - 2 * i)),
            (f(s + 2, 4), (), lambda i: (f(s + 1 - 2 * i), f(3 * s, 2) - 2 + i)),
            (f(s - 6, 4), (), lambda i: (f(s + 1 + 2 * i), f(2 * s - 1 - i))),
            (f(1), (), lambda i: (f(7 * s, 4) - f(1, 2), f(2 * s - 1))),
        ]
    if r in (1, 9):
        return f(s - 4), [
            (f(s - 1, 2), (), lambda i: (f(i), f(3 * (s - 1), 2) + 2 - 2 * i)),
            (f(s - 5, 4), (2,), lambda i: (f(s - 2 * i), f(3 * (s - 1), 2) + 1 + i)),
            (f(s + 3, 4), (), lambda i: (f(s + 2 * i), f(2 * s - i))),
            (f(1), (), lambda i: (f(s - 1, 2) + 1, f(s))),
        ]
    if r in (3, 11):
        return f(s + 6), [
            (f(s - 1, 2), (), lambda i: (f(i), f(3 * (s - 1), 2) + 1 - 2 * i)),
            (f(s + 1, 4), (), lambda i: (f(s + 2 - 2 * i), f(3 * (s - 1), 2) + 1 + i)),
            (f(s - 3, 4), (3,), lambda i: (f(s + 2 * i), f(2 * s - i))),
            (f(1), (), lambda i: (f(3 * (s - 1), 2) + 1, f(2 * s - 3))),
        ]
    if r == 5:
        return f(3 * (s - 1), 2) + 1, [
            (f(s - 1, 2), (), lambda i: (f(i), f(3 * (s - 1), 2) + 1 - 2 * i)),
            (f(s - 1, 4), (2,), lambda i: (f(s + 1 - 2 * i), f(3 * (s - 1), 2) + 2 + i)),
            (f(s - 5, 4), (), lambda i: (f(s + 5 + 2 * i), f(2 * s - i))),
            (f(1), (), lambda i: (f(s - 3), f(s + 5))),
            (f(1), (), lambda i: (f(s + 1), f(s + 3))),
        ]
    # r == 7
    return f(3 * (s - 1), 2) + 2, [
        (f(s - 1, 2), (), lambda i: (f(i), f(3 * (s - 1), 2) + 2 - 2 * i)),
        (f(s + 1, 4), (2,), lambda i: (f(s + 1 - 2 * i), f(3 * (s - 1), 2) + i)),
        (f(s - 7, 4), (), lambda i: (f(s + 1 + 2 * i), f(2 * s - i))),
        (f(1), (), lambda i: (f(s - 3), f(s + 1))),
        (f(1), (), lambda i: (f(7 * s, 4) - f(1, 4), f(7 * s, 4) + f(3, 4))),
    ]


_SMALL_PROFILES: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {
    2: (1, ((2, 3),)),
    3: (5, ((1, 4), (2, 9))),
    4: (7, ((1, 5), (2, 12), (3, 6))),
    5: (9, ((1, 5), (2, 14), (3, 8), (4, 13))),
    6: (1, ((2, 6), (3, 11), (4, 7), (5, 10), (8, 9))),
    7: (1, ((2, 3), (4, 9), (5, 11), (6, 13), (7, 10), (8, 12))),
    9: (7, ((2, 3), (4, 9), (1, 5), (6, 14), (8, 17), (10, 16), (11, 13), (12, 15))),
    11: (13, ((2, 3), (4, 9), (1, 10), (5, 15), (6, 17), (7, 19), (8, 11), (12, 18), (14, 21), (16, 20))),
}

_GENERAL_MINIMUM = {0: 8, 1: 13, 2: 10, 3: 15, 4: 16, 5: 17, 6: 18, 7: 19, 8: 8, 9: 13, 10: 10, 11: 15}


def _as_int(x: Fraction, what: str, s: int) -> int:
    if x.denominator != 1:
        raise InternalConsistencyError(f"non-integral {what} {x} in profile row for s={s}")
    return int(x)


def pairs_for_s(s: int) -> PairsProfile:
    """A verified difference profile for every s >= 2.

    Small s come from a stored table; the rest are materialized from the
    residue-class rows.  The verifier runs on every output, so a bad table
    entry surfaces as an error instead of a bad packing.
    """
    if s < 2:
        raise UnsupportedParameterError("s must be at least 2")
    _check_block_count(4 * s * s + 2 * s, f"the packing of order {8 * s + 2}")
    if s in _SMALL_PROFILES:
        t, pairs = _SMALL_PROFILES[s]
        profile = PairsProfile(s, t, pairs)
    else:
        if s < _GENERAL_MINIMUM[s % 12]:
            raise InternalConsistencyError(f"no profile row covers s={s}")
        t_expr, families = _profile_row(s)
        t = _as_int(t_expr, "t", s)
        pairs = []
        for count_expr, omit, formula in families:
            count = _as_int(count_expr, "range bound", s)
            for i in range(1, count + 1):
                if i in omit:
                    continue
                a_expr, b_expr = formula(i)
                pairs.append((_as_int(a_expr, "a", s), _as_int(b_expr, "b", s)))
        profile = PairsProfile(s, t, tuple(sorted(pairs)))
    _require(verify_pairs_profile(profile), InternalConsistencyError, f"profile for s={s} fails verification")
    return profile


def _pack_from_pairs(p: PairsProfile) -> tuple[Design, Colouring]:
    _require(verify_pairs_profile(p), DesignError, "pairs profile fails verification")
    s, t = p.s, p.t
    m = 4 * s

    # x takes the point at infinity 2m + (parity of x's step along the
    # cycles of +d), so x and x + d never share one
    g = gcd(p.d, m)
    cycle = m // g
    inv = pow(p.d // g, -1, cycle)
    infinity = [2 * m + (x // g * inv) % cycle % 2 for x in range(m)]
    if any(infinity[x] == infinity[(x + p.d) % m] for x in range(m)):
        raise InternalConsistencyError("parity labelling fails to alternate")

    # each row is listed twice, so the column of x + c for x = 0..m-1 is
    # the slice from c mod m
    row1 = list(range(m)) * 2
    row2 = list(range(m, 2 * m)) * 2
    blocks = []
    for a, b in p.pairs:
        blocks += zip(range(m), row1[(a + b) % m:], row2[a:], row2[b:])
    blocks += zip(range(2 * s), row1[2 * s:], row2, row2[2 * s:])
    blocks += zip(infinity, range(m), row2[m - t:], row2[t:])
    v = 8 * s + 2
    return Design(v, tuple(blocks)), Colouring(2, (0,) * m + (1,) * m + (0, 0))


def pack_from_pairs(p: PairsProfile) -> ColouredPacking:
    """A PD(8s+2, 4, 1) of size 4s^2 + 2s built from a difference profile.

    Points: row 1 at 0..4s-1, row 2 at 4s..8s-1, then the two points at
    infinity.  Row 1 plus the infinity points form one colour class.
    """
    return _packing(*_pack_from_pairs(p))


# ---------------------------------------------------------------------------
# sporadic orders


# the orders of the packings stored in the catalog as pack7 ... pack25
_STORED_ORDERS = (7, 11, 24, 25)


def _stored(v: int) -> tuple[Design, Colouring]:
    if v not in _STORED_ORDERS:
        raise UnsupportedParameterError(f"no stored packing for v={v}")
    # built unchecked, as every builder here is: its caller checks it once
    entry = _BUILDERS[f"pack{v}"]()
    if entry.colouring is None:
        raise InternalConsistencyError(f"stored packing pack{v} has no colouring")
    return entry.design, entry.colouring


def pack_small(v: int) -> ColouredPacking:
    """The stored maximum coloured packings for v in {7, 11, 24, 25}."""
    return _packing(*_stored(v))


def _max_unchecked(v: int) -> tuple[Design, Colouring]:
    """The maximum packing of an achievable order v, before its check."""
    if v < 4:
        return Design(v, ()), Colouring(2, tuple(p % 2 for p in range(v)))
    if v in _STORED_ORDERS:
        return _stored(v)
    n, r = divmod(v, 4)
    if r < 2:
        even = _pack_4n(n)
    elif n % 2:
        even = _pack_4n2_odd(n)
    else:
        even = _pack_from_pairs(pairs_for_s(n // 2))
    # an odd order is the even order below it plus an isolated point
    return _with_isolated_point(*even) if r % 2 else even


def max_equitable_packing(v: int) -> Union[ColouredPacking, Unachievable]:
    """Maximum block-equitably 2-colourable PD(v, 4, 1) for v >= 0.

    Dispatcher over the residue of v mod 4; the four orders whose bound
    value cannot be met return an Unachievable marker instead, and every
    other order is built (v = 4n and 4n + 1 through `pack_4n`, which
    covers every n but 2 and 6).  The packing is validated once, as the
    packing it is, after any isolated point is appended.
    """
    if v < 0:
        raise UnsupportedParameterError("v must be non-negative")
    bound = bound_max_equitable(v, 4, 2)
    _check_block_count(bound.value, f"the packing of order {v}")
    if not bound.achievable:
        return Unachievable(v, 4, 2, bound.value)
    return _packing(*_max_unchecked(v))
