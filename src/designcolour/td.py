"""Transversal designs from finite fields, product composition and
Wilson's construction.

A TD(k, g) is built directly over GF(g) when g is a prime power with
k <= g + 1, and otherwise by composing the prime-power factors of g
(possible when k <= min(q_i) + 1).  Where that fails, one step of
Wilson's construction (R. M. Wilson, Discrete Math. 9, 1974) inflates a
truncated TD(k + 1, t) by product-built TDs; with k = 4 it reaches every
g <= 2000 except 2, 6, 10 and 14.  Orders outside both, such as g = 6
with k = 4, are rejected.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from operator import add

from .core import (
    Design,
    Grouping,
    InternalConsistencyError,
    UnsupportedParameterError,
    _check_block_count,
    _require,
    validate_gdd,
)


class UnsupportedOrderError(UnsupportedParameterError):
    """No supported transversal design construction for these parameters."""


def _factor_prime_powers(n: int) -> list[tuple[int, int]]:
    """Prime-power factorization as (p, e) pairs, ascending p."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class FieldTable:
    """Addition and multiplication tables of GF(q), elements 0..q-1.

    For q = p^e the element i stands for the polynomial whose coefficients
    of x^0..x^(e-1) are the base-p digits of i, and products are reduced
    modulo the irreducible x^e + f with the least f, where f is read as
    the integer whose base-p digits are its coefficients of x^0..x^(e-1).
    """

    q: int
    p: int
    e: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def field_table(q: int) -> FieldTable:
    """GF(q) tables for a prime power q.

    Sums add base-p digits: the low digit in GF(p), the rest from the
    table of order q/p.  Product row a is row a - s plus row s, where s
    is the place value of a's lowest nonzero digit; row x^j = p^j is row
    x^(j-1) shifted up one digit, an overflow t*x^e becoming -t*f.  The
    first f whose table has no zero product of nonzero elements is taken.
    """
    factors = _factor_prime_powers(q)
    if len(factors) != 1:
        raise UnsupportedOrderError(f"{q} is not a prime power")
    p, e = factors[0]
    # shared entries: a new int per sum above 256 makes big tables slow
    elems = list(range(q))
    digit = [tuple(elems[i:p] + elems[:i]) for i in range(p)]
    add = digit
    while len(add) < q:
        split = [divmod(j, p) for j in range(len(add) * p)]
        rows = [(add[h], digit[l]) for h, l in split]
        add = [tuple([elems[p * high[h] + low[l]] for h, l in split]) for high, low in rows]
    top = q // p
    for f in range(q):
        minus_f = add[f].index(0)
        overflow = [0]  # overflow[t] = -t*f, which stands for t*x^e
        for _ in range(p - 1):
            overflow.append(add[overflow[-1]][minus_f])
        mul = [(0,) * q, tuple(elems)]
        for a in range(2, q):
            s = 1
            while a // s % p == 0:
                s *= p
            if s == a:
                row = tuple([add[y % top * p][overflow[y // top]] for y in mul[a // p]])
            else:
                # row s is mostly row 1, so add's rows are read in order
                row = tuple([add[z][y] for y, z in zip(mul[a - s], mul[s])])
            if row.count(0) > 1:
                break
            mul.append(row)
        else:
            return FieldTable(q, p, e, tuple(add), tuple(mul))
    raise InternalConsistencyError(f"no irreducible polynomial of degree {e} over GF({p})")


def _td_prime_power(k: int, q: int) -> list[tuple[int, ...]]:
    """Blocks of a TD(k, q) with k <= q + 1, as symbol tuples per group.

    Group i is associated with the field element i (or with a point at
    infinity when i = q); block (a, b) takes symbol a*m_i + b in group i,
    and symbol a in the infinity group.
    """
    gf = field_table(q)
    blocks = []
    for a in range(q):
        # column i lists symbol a*m_i + b for b = 0..q-1
        columns = [gf.add[m] for m in gf.mul[a][:k]]
        columns += [(a,) * q] * (k - q)  # the infinity group when k = q + 1
        blocks += zip(*columns)
    return blocks


def _td_product(
    rows1: list[tuple[int, ...]], rows2: list[tuple[int, ...]], g2: int
) -> list[tuple[int, ...]]:
    """Composition of symbol-tuple TDs: the row of r1 and r2 takes symbol
    r1[i]*g2 + r2[i] in group i, ordered by r1, then by r2."""
    n2 = len(rows2)
    columns = [
        map(add, chain.from_iterable(repeat(s1 * g2, n2) for s1 in col1), col2 * len(rows1))
        for col1, col2 in zip(zip(*rows1), zip(*rows2))
    ]
    return list(zip(*columns))


def _product_admits(k: int, g: int) -> bool:
    """Whether the product of GF(q) designs gives a TD(k, g): every
    prime-power factor q of g has k <= q + 1."""
    return all(k <= p**e + 1 for p, e in _factor_prime_powers(g))


def _td_by_product(k: int, g: int) -> list[tuple[int, ...]]:
    """TD(k, g) rows from the prime-power factors of g, which must admit k."""
    qs = [p**e for p, e in _factor_prime_powers(g)]
    if not qs:
        return [(0,) * k]
    rows = _td_prime_power(k, qs[0])
    for q in qs[1:]:
        rows = _td_product(rows, _td_prime_power(k, q), q)
    return rows


def _td_wilson(k: int, t: int, m: int, u: int) -> list[tuple[int, ...]]:
    """TD(k, mt + u) rows by Wilson's construction from a TD(k + 1, t)
    whose last group is truncated to symbols 0..u-1, 1 <= u <= t.

    Group i takes the u extra points 0..u-1, then m copies u + b*m + s
    of each symbol b of the TD(k + 1, t).  A row that misses the kept
    symbols carries a TD(k, m) over the copies of its symbols; a row
    with kept symbol y carries a TD(k, m + 1), symbol 0 standing for the
    extra point y, less its all-zero row; and a TD(k, u) joins the extra
    points.  The TD(k, u) comes first, so row 0 is its all-zero row.
    """
    small = list(zip(*_td_by_product(k, m)))
    large = list(zip(*_td_by_product(k, m + 1)[1:]))
    rows = _td_by_product(k, u)
    for *head, y in _td_prime_power(k + 1, t):
        # each column of the inner TD is read through its group's labels
        copies = [range(u + b * m, u + b * m + m) for b in head]
        if y < u:
            rows += zip(*(map([y, *c].__getitem__, col) for c, col in zip(copies, large)))
        else:
            rows += zip(*(map(c.__getitem__, col) for c, col in zip(copies, small)))
    return rows


def td_symbol_rows(k: int, g: int) -> list[tuple[int, ...]]:
    """TD(k, g) as rows of per-group symbols, one symbol per group.

    The product of GF(q) designs is used when every prime-power factor q
    of g has k <= q + 1.  Otherwise one Wilson step is tried, with the
    least prime power t >= k for which g = mt + u, 1 <= u <= t, and the
    product gives TD(k, m), TD(k, m + 1) and TD(k, u); any other order
    raises UnsupportedOrderError.

    The first row is all zeros: row (a, b) = (0, 0) of every prime-power
    factor takes symbol 0 in every group, the infinity group included, and
    the product keeps it at 0; a Wilson step starts with its TD(k, u).
    `transforms.blow_up` relies on this to embed its source design.
    """
    if k < 2:
        raise UnsupportedOrderError("transversal designs need k >= 2")
    if g < 1:
        raise UnsupportedOrderError("group size must be positive")
    _check_block_count(g * g, f"TD({k},{g})")
    if _product_admits(k, g):
        return _td_by_product(k, g)
    for t in range(k, g):
        m = (g - 1) // t
        u = g - m * t
        if len(_factor_prime_powers(t)) == 1 and all(_product_admits(k, x) for x in (m, m + 1, u)):
            return _td_wilson(k, t, m, u)
    q = min(p**e for p, e in _factor_prime_powers(g))
    raise UnsupportedOrderError(f"no supported TD({k},{g}): prime-power factor {q} admits at most {q + 1} groups")


def _td_from_rows(k: int, g: int, rows: Sequence[tuple[int, ...]]) -> tuple[Design, Grouping]:
    """The TD(k, g) with the given symbol rows; point x of group i is i*g + x."""
    blocks = tuple(zip(*(map(add, repeat(i * g), col) for i, col in enumerate(zip(*rows)))))
    groups = tuple(tuple(range(i * g, (i + 1) * g)) for i in range(k))
    return Design(k * g, blocks), Grouping(k * g, groups)


def build_td(k: int, g: int) -> tuple[Design, Grouping]:
    """A validated TD(k, g): kg points, groups of size g, g^2 blocks.

    Point x of group i has index i*g + x.  Raises UnsupportedOrderError
    when no construction is available (for example TD(4, 6)).
    """
    design, grouping = _td_from_rows(k, g, td_symbol_rows(k, g))
    _require(validate_gdd(design, grouping), InternalConsistencyError, f"TD({k},{g}) invalid")
    return design, grouping
