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


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
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


@pytest.mark.parametrize("k,g", [(4, 6), (4, 10), (4, 2), (5, 3), (6, 4), (5, 12)])
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
