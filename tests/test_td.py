"""Finite fields and transversal design constructions."""
import pytest

from designcolour import (
    InternalConsistencyError,
    UnsupportedOrderError,
    build_td,
    field_table,
    is_transversal,
    validate_gdd,
)
from designcolour import td
from designcolour.td import td_symbol_rows


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32])
def test_field_axioms_exhaustively(q):
    gf = field_table(q)
    elems = range(q)
    for a in elems:
        assert gf.add[a][0] == a and gf.mul[a][1] == a
        assert gf.mul[a][0] == 0
        for b in elems:
            assert gf.add[a][b] == gf.add[b][a]
            assert gf.mul[a][b] == gf.mul[b][a]
    for a in elems:
        for b in elems:
            for c in elems:
                assert gf.add[gf.add[a][b]][c] == gf.add[a][gf.add[b][c]]
                assert gf.mul[gf.mul[a][b]][c] == gf.mul[a][gf.mul[b][c]]
                assert gf.mul[a][gf.add[b][c]] == gf.add[gf.mul[a][b]][gf.mul[a][c]]
    # additive and multiplicative inverses exist
    for a in elems:
        assert 0 in gf.add[a]
        if a:
            assert 1 in gf.mul[a]


def _prime_powers(limit):
    """(q, p, e) for every prime power q <= limit, found by trial division."""
    primes = [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]
    return [(p**e, p, e) for p in primes for e in range(1, limit.bit_length()) if p**e <= limit]


def _digits(n, p, width):
    return [n // p**j % p for j in range(width)]


def _has_monic_factor(poly, p):
    """Whether the monic poly (coefficients of x^0..x^e) has a monic
    factor of degree 1..e/2, by long division over GF(p)."""
    e = len(poly) - 1
    for d in range(1, e // 2 + 1):
        for n in range(p**d):
            divisor = _digits(n, p, d) + [1]
            rem = list(poly)
            for i in range(e, d - 1, -1):
                c = rem[i]
                for j in range(d + 1):
                    rem[i - d + j] = (rem[i - d + j] - c * divisor[j]) % p
            if not any(rem[:d]):
                return True
    return False


def _poly_times_mod(a, b, modulus, p):
    """a*b modulo the monic modulus, all as coefficient lists over GF(p)."""
    e = len(modulus) - 1
    prod = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, e - 1, -1):
        c = prod[i]
        for j in range(e + 1):
            prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
    return prod[:e]


@pytest.mark.parametrize("p", [p for q, p, e in _prime_powers(256) if e == 1])
def test_prime_field_is_integers_mod_p(p):
    gf = field_table(p)
    assert (gf.q, gf.p, gf.e) == (p, p, 1)
    assert gf.add == tuple(tuple((i + j) % p for j in range(p)) for i in range(p))
    assert gf.mul == tuple(tuple((i * j) % p for j in range(p)) for i in range(p))


@pytest.mark.parametrize("q,p,e", [t for t in _prime_powers(256) if t[2] > 1])
def test_extension_field_labelling(q, p, e):
    # Element i is the polynomial whose coefficients are i's base-p
    # digits, and the modulus x^e + f has the least f read as a base-p
    # integer.  The element p is x, and x^e = x * x^(e-1) = -f.
    gf = field_table(q)
    assert (gf.q, gf.p, gf.e) == (q, p, e)
    f = [-c % p for c in _digits(gf.mul[p][q // p], p, e)]
    assert not _has_monic_factor(f + [1], p)
    f_value = sum(c * p**j for j, c in enumerate(f))
    assert all(_has_monic_factor(_digits(smaller, p, e) + [1], p) for smaller in range(f_value))
    digits = [_digits(i, p, e) for i in range(q)]
    for i in range(q):
        assert [_digits(s, p, e) for s in gf.add[i]] == [
            [(a + b) % p for a, b in zip(digits[i], digits[j])] for j in range(q)
        ]
    # rows x and q - 1 (every digit p - 1) against polynomial products
    # modulo x^e + f
    for i in (p, q - 1):
        assert [_digits(m, p, e) for m in gf.mul[i]] == [
            _poly_times_mod(digits[i], digits[j], f + [1], p) for j in range(q)
        ]


def test_non_prime_power_rejected():
    with pytest.raises(UnsupportedOrderError):
        field_table(12)


@pytest.mark.parametrize(
    "k,g",
    [(3, 3), (4, 3), (4, 4), (4, 5), (5, 4), (4, 8), (4, 9), (5, 5), (7, 7), (3, 2)],
)
def test_prime_power_td_validates(k, g):
    d, grouping = build_td(k, g)
    assert d.b == g * g
    assert validate_gdd(d, grouping).passed
    assert is_transversal(d, grouping)


@pytest.mark.parametrize("k,g", [(4, 12), (4, 15), (3, 6), (4, 63), (5, 36)])
def test_composite_orders_via_product(k, g):
    d, grouping = build_td(k, g)
    assert d.b == g * g
    assert validate_gdd(d, grouping).passed
    assert is_transversal(d, grouping)


def test_trivial_order_one():
    d, grouping = build_td(6, 1)
    assert d.b == 1 and grouping.u == 6


def test_corrupted_symbol_row_raises(monkeypatch):
    # build_td validates what it builds: one symbol moved in one row puts
    # a cross pair in two blocks and leaves another uncovered.
    rows = td_symbol_rows(4, 5)

    def corrupted(k, g):
        bad = list(rows)
        bad[7] = (bad[7][0], bad[7][1], (bad[7][2] + 1) % g, bad[7][3])
        return bad

    monkeypatch.setattr(td, "td_symbol_rows", corrupted)
    with pytest.raises(InternalConsistencyError, match=r"TD\(4,5\) invalid"):
        build_td(4, 5)


@pytest.mark.parametrize("k,g", [(4, 6), (4, 10), (4, 14), (4, 2), (5, 3), (6, 4), (5, 12)])
def test_unsupported_orders_rejected(k, g):
    with pytest.raises(UnsupportedOrderError):
        build_td(k, g)


def test_first_row_is_all_zeros():
    # `blow_up` embeds its source through this row.
    checked = 0
    for k in range(2, 12):
        for g in range(1, 61):
            try:
                rows = td_symbol_rows(k, g)
            except UnsupportedOrderError:
                continue
            assert rows[0] == (0,) * k, (k, g)
            checked += 1
    assert checked > 300


def _rows_by_product_oracle(k, g):
    """TD(k, g) rows built one row at a time: the rows of GF(q) are
    (a*m_i + b)_i, plus symbol a for an infinity group, and a product
    row is r1[i]*q + r2[i] for every row r1 of the factors so far, then
    every row r2 of GF(q)."""
    rows = [(0,) * k]
    for p in range(2, g + 1):
        if g % p or any(p % d == 0 for d in range(2, p)):
            continue
        q = p
        while g % (q * p) == 0:
            q *= p
        gf = field_table(q)
        factor = [
            tuple(gf.add[gf.mul[a][i]][b] for i in range(min(k, q))) + (a,) * (k - q)
            for a in range(q)
            for b in range(q)
        ]
        rows = [tuple(r1[i] * q + r2[i] for i in range(k)) for r1 in rows for r2 in factor]
    return rows


def test_symbol_rows_match_a_per_row_product():
    # the orders the product construction takes: every prime-power factor
    # of g at least k - 1
    checked = composites = 0
    for g in range(2, 65):
        qs = [p**e for p, e in td._factor_prime_powers(g)]
        for k in (3, 4, 5):
            if min(qs) < k - 1:
                continue
            assert td_symbol_rows(k, g) == _rows_by_product_oracle(k, g), (k, g)
            checked += 1
            composites += len(qs) > 1
    # (k, g) with g composite and every prime-power factor of g at least k - 1
    assert (checked, composites) == (146, 68)


@pytest.mark.parametrize("n", [18, 22, 26, 30, 94, 98])
def test_wilson_orders_validate(n):
    # n = 2 (mod 4) has the factor 2, too small for a TD(4, n) by the
    # product; one Wilson step from a truncated TD(5, t) builds it
    assert not td._product_admits(4, n)
    d, grouping = build_td(4, n)
    assert d.b == n * n
    assert validate_gdd(d, grouping).passed
    assert is_transversal(d, grouping)
    assert td_symbol_rows(4, n)[0] == (0, 0, 0, 0)
