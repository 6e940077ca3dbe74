"""Designs whose blocks all have four points, against per-block oracles.

`Design`, the neighbour-mask kernel of `validate_packing` and the
equitable check unpack blocks of four into four points; every other block
size takes their generic loops.  Blocks of four drawn here hold up to 60
blocks, so those paths see many blocks, with the edits that make each of
them fall back or fail."""
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import designcolour.colouring as colouring_module
from designcolour import Colouring, Design, DesignError, check_block_equitable, validate_packing
from designcolour.core import _neighbour_masks
from designcolour.packings import max_equitable_packing
from test_colouring import equitable_violations_by_counting
from test_random_instances import oracle_masks, oracle_packing

EDITS = ("none", "repeated-pair", "duplicate-point", "out-of-range", "other-size", "flipped-colours")


@lru_cache(maxsize=None)
def packing(v):
    return max_equitable_packing(v)


@st.composite
def four_point_cases(draw):
    """5-60 blocks of four points on 11-40 points, each point list in a
    random order: the blocks of a maximum equitable packing, relabelled,
    topped up with random blocks (which may repeat pairs), with at most
    one edit; and the packing's 2-colouring, relabelled alike."""
    rng = draw(st.randoms(use_true_random=False))
    v = draw(st.integers(11, 40))
    count = draw(st.integers(5, 60))
    edit = draw(st.sampled_from(EDITS))
    base = packing(v)
    label = rng.sample(range(v), v)
    blocks = [[label[p] for p in blk] for blk in base.design.blocks]
    rng.shuffle(blocks)
    del blocks[count:]
    while len(blocks) < count:
        blocks.append(rng.sample(range(v), 4))
    for blk in blocks:
        rng.shuffle(blk)
    at = draw(st.integers(0, count - 1))
    blk = blocks[at]
    if edit == "repeated-pair":
        pair = rng.sample(blocks[draw(st.integers(0, count - 1))], 2)
        blocks[at] = pair + rng.sample([p for p in range(v) if p not in pair], 2)
    elif edit == "duplicate-point":
        i = draw(st.integers(1, 3))
        blk[i] = blk[draw(st.integers(0, i - 1))]
    elif edit == "out-of-range":
        blk[draw(st.integers(0, 3))] = draw(st.sampled_from([-1, v, v + 9]))
    elif edit == "other-size":
        blocks[at] = rng.sample(range(v), draw(st.sampled_from([1, 2, 3, 5, 6])))
    a = [0] * v
    for p, colr in enumerate(base.colouring.assignment):
        a[label[p]] = colr
    if edit == "flipped-colours":
        for p in rng.sample(range(v), rng.randint(1, 3)):
            a[p] ^= 1
    return v, tuple(map(tuple, blocks)), a


def oracle_design(v, raws):
    """The canonical blocks, or the first error message, from the checks
    of `Design` run block by block."""
    canon = []
    for raw in raws:
        blk = tuple(sorted(raw))
        if len(blk) < 2:
            return f"block {raw!r} has fewer than two points"
        if len(set(blk)) != len(blk):
            return f"block {raw!r} has a repeated point"
        if blk[0] < 0 or blk[-1] >= v:
            return f"block {raw!r} out of range for v={v}"
        canon.append(blk)
    return tuple(sorted(canon))


def colourings(v, a, c, rng):
    """The drawn 2-colouring for c = 2, and for any c a colouring round
    robin over a random part of the palette and a random one."""
    found = [a] if c == 2 else []
    palette = rng.sample(range(c), rng.randint(1, c))
    found.append([palette[p % len(palette)] for p in rng.sample(range(v), v)])
    found.append([rng.randrange(c) for _ in range(v)])
    return found


@settings(max_examples=120, deadline=None)
@given(case=four_point_cases(), rng=st.randoms(use_true_random=False))
def test_blocks_of_four_match_per_block_oracles(case, rng):
    v, raws, a = case
    expected = oracle_design(v, raws)
    if isinstance(expected, str):
        with pytest.raises(DesignError) as info:
            Design(v, raws)
        assert str(info.value) == expected
        return
    d = Design(v, raws)
    assert d.blocks == expected
    assert _neighbour_masks(d) == oracle_masks(d)
    report, leave = validate_packing(d)
    violations, details, edges = oracle_packing(d)
    assert (report.violations, report.details, leave.edges) == (tuple(violations), details, edges)
    saved = colouring_module._MAX_CODE_BITS
    try:
        for c in (1, 2, 3, 4, 50):
            for assignment in colourings(v, a, c, rng):
                col = Colouring(c, tuple(assignment))
                expected = tuple(
                    equitable_violations_by_counting("block-colour-count", d.blocks, col.assignment, c)
                )
                # the code sums on, and off as for a huge palette
                for max_code_bits in (saved, -1):
                    colouring_module._MAX_CODE_BITS = max_code_bits
                    assert check_block_equitable(d, col).violations == expected, (c, max_code_bits)
    finally:
        colouring_module._MAX_CODE_BITS = saved


def test_balanced_sums_kept_are_bounded(monkeypatch):
    # Three balanced sums recur: with room for two of them, the third is
    # decoded at each of its blocks.
    decoded = []
    decoder = colouring_module._unbalanced_sums

    def counted(t, c):
        unbalanced = decoder(t, c)
        return lambda total: decoded.append(total) or unbalanced(total)

    monkeypatch.setattr(colouring_module, "_DECODED_SUMS", 2)
    monkeypatch.setattr(colouring_module, "_unbalanced_sums", counted)
    kinds = [(0, 1, 2, 3), (0, 2, 4, 6), (4, 5, 6, 7)]
    d = Design(8, tuple(kinds[i % 3] for i in range(12)))
    assert check_block_equitable(d, Colouring(50, tuple(range(8)))).violations == ()
    # the blocks are sorted, so each sum's four blocks are consecutive
    assert len(decoded) == 2 + 4 and len(set(decoded)) == 3
