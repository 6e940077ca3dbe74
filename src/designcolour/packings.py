"""Maximum block-equitably colourable packings with block size 4, and the
size bounds they meet.

The point layouts are fixed so every construction serializes reproducibly:

* transversal-design packings inherit the TD layout (point x of group i is
  i*g + x);
* the two-row cyclic constructions put row 1 at 0..len-1 and row 2 right
  after it, with any points at infinity last;
* the four-row construction for v = 4n+2 (n odd) lays rows 1..4 out
  consecutively;
* isolated points are appended at the end.
"""
from __future__ import annotations

import random
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
        if not report.passed:
            raise InternalConsistencyError(
                f"constructed packing invalid: {report.violations[:3]}"
            )
        colrep = check_block_equitable(self.design, self.colouring)
        if not colrep.passed:
            raise InternalConsistencyError(
                f"constructed colouring not block-equitable: {colrep.violations[:3]}"
            )

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


def _rotation_families(n: int) -> list[tuple[int, int, int]]:
    """Block-orbit generators for a PD(4n, 4, 1) on two rows of Z_2n.

    Each family (x, y, z) yields the orbit {(i,1), (i+x,1), (i+y,2),
    (i+z,2)} for i in Z_2n.  The n/2 families must use distinct circular
    differences x, distinct differences z - y, and their translated pair
    positions {y, z, y-x, z-x} must partition Z_2n.  Found by a seeded
    backtracking search (deterministic).  `pack_4n` sends every
    n = 2 (mod 4) with n >= 10 here, and the search is not known to
    succeed at all of them: on a 2-vCPU host it found families for
    n = 70, 78 and 90 in 27.5 s, 65.2 s and 1.9 s, and raised
    UnsupportedOrderError for n = 94 and 98 after 337.5 s and 361.0 s.
    """
    if n % 2 or n < 4:
        raise UnsupportedParameterError("rotation families exist for even n >= 4 only")
    period = 2 * n
    half = n
    n_fam = n // 2

    for seed in range(200):
        rng = random.Random(seed)
        covered = [False] * period
        plus_ends: dict[int, list[int]] = {}
        used_dw: set[int] = set()
        nodes = 0

        def rec() -> bool:
            nonlocal nodes
            nodes += 1
            if nodes > 40_000:
                raise TimeoutError
            r = None
            for i in range(period):
                if not covered[i]:
                    r = i
                    break
            if r is None:
                return all(len(v) == 2 for v in plus_ends.values())
            open_gaps = sum(1 for v in plus_ends.values() if len(v) == 1)
            if 2 * open_gaps > covered.count(False):
                return False
            ds = [d for d in plus_ends if len(plus_ends[d]) == 1]
            rng.shuffle(ds)
            if len(plus_ends) < n_fam:
                fresh = [d for d in range(1, half) if d not in plus_ends]
                rng.shuffle(fresh)
                ds += fresh
            for d in ds:
                lst = plus_ends.get(d)
                options = [((r - d) % period, r), ((r + d) % period, (r + d) % period)]
                rng.shuffle(options)
                for partner, plus in options:
                    if partner == r or covered[partner]:
                        continue
                    dw = None
                    if lst:
                        dw = _circ(plus - lst[0], period)
                        if dw == 0 or dw == half or dw in used_dw:
                            continue
                    covered[r] = covered[partner] = True
                    if lst is None:
                        plus_ends[d] = [plus]
                    else:
                        lst.append(plus)
                        used_dw.add(dw)
                    if rec():
                        return True
                    covered[r] = covered[partner] = False
                    if lst is None:
                        del plus_ends[d]
                    else:
                        lst.pop()
                        used_dw.discard(dw)
            return False

        try:
            if rec():
                return sorted((d, ends[0], ends[1]) for d, ends in plus_ends.items())
        except TimeoutError:
            continue
    raise UnsupportedOrderError(f"no rotation family system found for n={n}")


def _pack_4n_rotation(n: int) -> tuple[Design, Colouring]:
    period = 2 * n
    # each row is listed twice, so the column of i + c for i = 0..period-1
    # is the slice from c
    row1 = list(range(period)) * 2
    row2 = list(range(period, 2 * period)) * 2
    blocks = []
    for x, y, z in _rotation_families(n):
        blocks += zip(range(period), row1[x:], row2[y:], row2[z:])
    return Design(4 * n, tuple(blocks)), Colouring(2, (0,) * period + (1,) * period)


def _pack_4n(n: int) -> tuple[Design, Colouring]:
    if n < 1:
        raise DesignError("n must be positive")
    if n in (2, 6):
        raise UnsupportedOrderError(f"no PD({4 * n},4,1) of size n^2: order {n} unsupported")
    try:
        return _td_packing(4, n, 2)
    except UnsupportedOrderError:
        return _pack_4n_rotation(n)


def pack_4n(n: int) -> ColouredPacking:
    """A PD(4n, 4, 1) of size n^2 with a balanced block-equitable 2-colouring.

    Uses a transversal design of order n where one exists (two groups per
    colour); orders n = 2 (mod 4) beyond the reach of the prime-power
    product fall back to the two-row rotation construction.
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
    report = verify_pairs_profile(profile)
    if not report.passed:
        raise InternalConsistencyError(
            f"profile for s={s} fails verification: {report.violations[:3]}"
        )
    return profile


def _pack_from_pairs(p: PairsProfile) -> tuple[Design, Colouring]:
    report = verify_pairs_profile(p)
    if not report.passed:
        raise DesignError(f"pairs profile fails verification: {report.violations[:3]}")
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


def _stored(v: int) -> tuple[Design, Colouring]:
    if v not in (7, 11, 24, 25):
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
    if v in (7, 11, 24, 25):
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
    value cannot be met return an Unachievable marker instead.  Orders
    v = 4n and 4n + 1 with n = 2 (mod 4), n >= 10, rest on the rotation
    search of `_rotation_families`, which raises UnsupportedOrderError at
    n = 94 and 98 after about 6 minutes each.  The packing is validated
    once, as the packing it is, after any isolated point is appended.
    """
    if v < 0:
        raise UnsupportedParameterError("v must be non-negative")
    bound = bound_max_equitable(v, 4, 2)
    if not bound.achievable:
        return Unachievable(v, 4, 2, bound.value)
    return _packing(*_max_unchecked(v))
