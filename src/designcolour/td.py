"""Transversal designs from finite fields and product composition.

A TD(k, g) is built directly over GF(g) when g is a prime power with
k <= g + 1, and otherwise by composing the prime-power factors of g
(possible when k <= min(q_i) + 1).  Orders outside that range, such as
g = 6 with k = 4, are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import Design, Grouping, InternalConsistencyError, UnsupportedParameterError


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


def _poly_mul_mod(a: tuple, b: tuple, mod: tuple, p: int) -> tuple:
    """Multiply coefficient tuples modulo a monic polynomial over GF(p)."""
    e = len(mod)
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    # reduce: x^e = -mod
    for i in range(len(res) - 1, e - 1, -1):
        coeff = res[i]
        if coeff:
            res[i] = 0
            for j in range(e):
                res[i - e + j] = (res[i - e + j] - coeff * mod[j]) % p
    res = res[:e] + [0] * (e - len(res))
    return tuple(res[:e])


def _is_irreducible(poly: tuple, p: int) -> bool:
    """Trial division of the monic polynomial x^e + poly by smaller monics."""
    e = len(poly)

    def divides(divisor: tuple) -> bool:
        # long division of x^e + poly by x^d + divisor
        d = len(divisor)
        rem = list(poly) + [1]
        for i in range(e, d - 1, -1):
            coeff = rem[i]
            if coeff:
                rem[i] = 0
                for j in range(d):
                    rem[i - d + j] = (rem[i - d + j] - coeff * divisor[j]) % p
        return not any(rem[:d])

    for d in range(1, e // 2 + 1):
        for idx in range(p**d):
            divisor = tuple((idx // p**j) % p for j in range(d))
            if divides(divisor):
                return False
    return True


@dataclass(frozen=True)
class FieldTable:
    """Addition and multiplication tables of GF(q), elements 0..q-1.

    For q = p^e the element i stands for the polynomial with base-p digits
    of i as coefficients, reduced modulo the lexicographically least monic
    irreducible polynomial of degree e.
    """

    q: int
    p: int
    e: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def field_table(q: int) -> FieldTable:
    """GF(q) tables for a prime power q."""
    factors = _factor_prime_powers(q)
    if len(factors) != 1:
        raise UnsupportedOrderError(f"{q} is not a prime power")
    p, e = factors[0]
    if e == 1:
        add = tuple(tuple((i + j) % p for j in range(p)) for i in range(p))
        mul = tuple(tuple((i * j) % p for j in range(p)) for i in range(p))
        return FieldTable(q, p, e, add, mul)
    mod = None
    for idx in range(p**e):
        cand = tuple((idx // p**j) % p for j in range(e))
        if _is_irreducible(cand, p):
            mod = cand
            break
    if mod is None:
        raise InternalConsistencyError(f"no irreducible polynomial of degree {e} over GF({p})")

    def to_vec(i: int) -> tuple:
        return tuple((i // p**j) % p for j in range(e))

    def to_int(vec: tuple) -> int:
        return sum(c * p**j for j, c in enumerate(vec))

    vecs = [to_vec(i) for i in range(q)]
    add = tuple(
        tuple(to_int(tuple((a + b) % p for a, b in zip(vecs[i], vecs[j]))) for j in range(q))
        for i in range(q)
    )
    mul = tuple(
        tuple(to_int(_poly_mul_mod(vecs[i], vecs[j], mod, p)) for j in range(q))
        for i in range(q)
    )
    return FieldTable(q, p, e, add, mul)


def _td_prime_power(k: int, q: int) -> list[tuple[int, ...]]:
    """Blocks of a TD(k, q) with k <= q + 1, as symbol tuples per group.

    Group i is associated with the field element i (or with a point at
    infinity when i = q); block (a, b) takes symbol a*m_i + b in group i,
    and symbol a in the infinity group.
    """
    gf = field_table(q)
    blocks = []
    for a in range(q):
        for b in range(q):
            row = []
            for i in range(k):
                if i < q:
                    row.append(gf.add[gf.mul[a][i]][b])
                else:
                    row.append(a)
            blocks.append(tuple(row))
    return blocks


def _td_product(
    rows1: list[tuple[int, ...]], g1: int, rows2: list[tuple[int, ...]], g2: int, k: int
) -> list[tuple[int, ...]]:
    """Composition of symbol-tuple TDs: symbols pair up componentwise."""
    return [
        tuple(r1[i] * g2 + r2[i] for i in range(k))
        for r1 in rows1
        for r2 in rows2
    ]


def td_symbol_rows(k: int, g: int) -> list[tuple[int, ...]]:
    """TD(k, g) as rows of per-group symbols, one symbol per group."""
    if k < 2:
        raise UnsupportedOrderError("transversal designs need k >= 2")
    if g < 1:
        raise UnsupportedOrderError("group size must be positive")
    if g == 1:
        return [tuple(0 for _ in range(k))]
    factors = _factor_prime_powers(g)
    qs = [p**e for p, e in factors]
    if any(k > q + 1 for q in qs):
        raise UnsupportedOrderError(
            f"no supported TD({k},{g}): prime-power factor {min(qs)} admits at most {min(qs) + 1} groups"
        )
    rows = _td_prime_power(k, qs[0])
    size = qs[0]
    for q in qs[1:]:
        rows = _td_product(rows, size, _td_prime_power(k, q), q, k)
        size *= q
    return rows


def build_td(k: int, g: int) -> tuple[Design, Grouping]:
    """A validated TD(k, g): kg points, groups of size g, g^2 blocks.

    Point x of group i has index i*g + x.  Raises UnsupportedOrderError
    when no construction is available (for example TD(4, 6)).
    """
    rows = td_symbol_rows(k, g)
    blocks = tuple(tuple(i * g + s for i, s in enumerate(row)) for row in rows)
    design = Design(k * g, blocks)
    grouping = Grouping(k * g, tuple(tuple(range(i * g, (i + 1) * g)) for i in range(k)))
    return design, grouping


def td_align_first_block(rows: list[tuple[int, ...]], k: int) -> list[tuple[int, ...]]:
    """Relabel symbols per group so the first row becomes all zeros."""
    if not rows:
        return rows
    perms = []
    for i in range(k):
        anchor = rows[0][i]
        symbols = sorted({r[i] for r in rows})
        rest = [s for s in symbols if s != anchor]
        mapping = {anchor: 0}
        for new, s in enumerate(rest, start=1):
            mapping[s] = new
        perms.append(mapping)
    return [tuple(perms[i][r[i]] for i in range(k)) for r in rows]
