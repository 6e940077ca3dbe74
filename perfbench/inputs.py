"""Seeded inputs for the benchmark, made without the program under test.

Everything here is derived from the seed alone, so two checkouts given the
same seed write byte-identical files.  The benchmark keeps its own copy of
the stored STS(21) and its own pair counter, and checks every system it
generates before use.
"""
from __future__ import annotations

import hashlib
import random
from itertools import combinations

# The 4-chromatic STS(21) stored in the program's catalog, copied so that
# the inputs do not depend on the code being measured.
STS21 = (
    (0, 3, 9), (1, 12, 16), (2, 8, 19), (4, 17, 18), (5, 6, 14), (7, 11, 15),
    (10, 13, 20), (0, 1, 2), (1, 3, 10), (2, 3, 11), (1, 5, 9), (1, 4, 11),
    (2, 5, 10), (0, 5, 11), (2, 4, 9), (0, 4, 10), (3, 4, 5), (3, 6, 12),
    (4, 6, 13), (4, 8, 12), (4, 7, 14), (5, 8, 13), (3, 8, 14), (5, 7, 12),
    (3, 7, 13), (6, 7, 8), (6, 9, 15), (7, 9, 16), (8, 9, 17), (7, 10, 17),
    (8, 11, 16), (6, 11, 17), (8, 10, 15), (6, 10, 16), (9, 10, 11),
    (9, 12, 18), (10, 12, 19), (11, 12, 20), (10, 14, 18), (11, 14, 19),
    (9, 14, 20), (11, 13, 18), (9, 13, 19), (12, 13, 14), (0, 12, 15),
    (2, 12, 17), (1, 14, 15), (1, 13, 17), (2, 14, 16), (0, 14, 17),
    (2, 13, 15), (0, 13, 16), (15, 16, 17), (3, 15, 18), (4, 15, 19),
    (5, 15, 20), (4, 16, 20), (5, 17, 19), (3, 17, 20), (5, 16, 18),
    (3, 16, 19), (18, 19, 20), (0, 6, 18), (1, 6, 19), (2, 6, 20),
    (1, 8, 18), (1, 7, 20), (0, 8, 20), (2, 7, 18), (0, 7, 19),
)

# The (chi, chi_M) histogram the program computes for the stored STS(21);
# the published table differs (a known, documented discrepancy).
STS21_HISTOGRAM = {(3, 3): 22, (3, 4): 108}

# Order buckets for the `construct` workload, one per construction path of
# `max_equitable_packing`: (residues of v mod 16 allowed, low, high).  Each
# path sits in a fixed bucket so that the batch's total work, which grows
# as v^2, moves little from seed to seed.  Orders v = 4n and 4n+1 with
# n = 2 (mod 4) are left out: no TD(4, n) is built for them, and the
# fallback rotation search does not finish in minutes for n > 62.
CONSTRUCT_BUCKETS = (
    ((2, 10), 976, 992),              # v = 4n+2, n even: difference profile
    ((0, 4, 12), 560, 600),           # v = 4n: transversal design
    ((6, 14), 420, 460),              # v = 4n+2, n odd: four-row packing
    ((1, 5, 13), 300, 340),           # v = 4n+1: 4n packing plus a point
    ((3, 7, 11, 15), 200, 240),       # v = 4n+3: 4n+2 packing plus a point
)

N_RELABELLINGS = 30
# About a third of the switched systems have 78-130 parallel classes (the
# stored one has 130); the rest have 28-76.  Switched systems in that band
# are added until they hold CLASS_TOTAL classes together (about 20
# systems), so the `classes` batch's work moves little from seed to seed.
CLASS_BAND = (78, 130)
CLASS_TOTAL = 1600
N_CORRUPT_BLOCKS = 3
N_CORRUPT_COLOURS = 3


def canonical(blocks) -> list[tuple[int, ...]]:
    """Blocks sorted inside and overall, the order the program indexes them in."""
    return sorted(tuple(sorted(b)) for b in blocks)


def pair_counts(v: int, blocks) -> bytearray:
    """The benchmark's own pair counter: the count of pair p < q is at
    p * v + q.  A flat byte array keeps the benchmark's memory well below
    the program's, so `peak_rss_mib` measures the program."""
    counts = bytearray(v * v)
    for blk in blocks:
        for p, q in combinations(sorted(blk), 2):
            counts[p * v + q] += 1
    return counts


def is_sts(v: int, blocks) -> bool:
    """Every block a triple and every pair of 0..v-1 covered exactly once."""
    if any(len(set(b)) != 3 or min(b) < 0 or max(b) >= v for b in blocks):
        return False
    counts = pair_counts(v, blocks)
    return max(counts) == 1 and len(counts) - counts.count(0) == v * (v - 1) // 2


def relabel(blocks, rng: random.Random, v: int) -> list[tuple[int, ...]]:
    perm = list(range(v))
    rng.shuffle(perm)
    return canonical(tuple(perm[p] for p in b) for b in blocks)


def pasch_configurations(blocks) -> list[tuple[tuple[int, ...], ...]]:
    """All Pasch configurations {abc, ade, bdf, cef}, in a fixed order."""
    block_set = set(blocks)
    by_pair = {}
    for blk in blocks:
        for p, q in combinations(blk, 2):
            by_pair[(p, q)] = blk
    found = set()
    for b1, b2 in combinations(blocks, 2):
        common = set(b1) & set(b2)
        if len(common) != 1:
            continue
        (a,) = common
        b, c = (x for x in b1 if x != a)
        d, e = (x for x in b2 if x != a)
        for (x, y), (z, w) in (((b, c), (d, e)), ((c, b), (d, e))):
            blk3 = by_pair[tuple(sorted((x, z)))]
            (f,) = set(blk3) - {x, z}
            blk4 = tuple(sorted((y, w, f)))
            if f not in (a, y, w) and blk4 in block_set:
                found.add(tuple(sorted((b1, b2, blk3, blk4))))
    return sorted(found)


def pasch_switch(blocks, config) -> list[tuple[int, ...]]:
    """Replace the four triples of a Pasch configuration by the other four
    triples on the same six points that cover the same pairs."""
    points = sorted({p for blk in config for p in blk})
    old = set(config)
    covered = {pair for blk in config for pair in combinations(blk, 2)}
    replacement = [
        t for t in combinations(points, 3)
        if t not in old and all(pair in covered for pair in combinations(t, 2))
    ]
    if len(replacement) != 4:
        raise AssertionError(f"not a Pasch configuration: {config}")
    return canonical([b for b in blocks if b not in old] + replacement)


def switched_sts21(rng: random.Random) -> list[tuple[int, ...]]:
    """The stored STS(21) after 1-3 random Pasch switches, then relabelled,
    drawn again until it has a parallel-class count in CLASS_BAND."""
    while True:
        blocks = canonical(STS21)
        for _ in range(rng.randint(1, 3)):
            blocks = pasch_switch(blocks, rng.choice(pasch_configurations(blocks)))
        blocks = relabel(blocks, rng, 21)
        if CLASS_BAND[0] <= len(parallel_classes(blocks)) <= CLASS_BAND[1]:
            return blocks


def parallel_classes(blocks):
    """All parallel classes of an STS(21), counted with a plain exact cover."""
    by_point = {p: [i for i, b in enumerate(blocks) if p in b] for p in range(21)}
    found = []

    def rec(covered: set, chosen: list) -> None:
        if len(covered) == 21:
            found.append(tuple(sorted(chosen)))
            return
        low = min(p for p in range(21) if p not in covered)
        for bi in by_point[low]:
            if covered.isdisjoint(blocks[bi]):
                rec(covered | set(blocks[bi]), chosen + [bi])

    rec(set(), [])
    return sorted(found)


def construct_orders(rng: random.Random) -> list[int]:
    orders = []
    for residues, low, high in CONSTRUCT_BUCKETS:
        orders.append(rng.choice([v for v in range(low, high + 1) if v % 16 in residues]))
    return orders


def design_text(v: int, blocks, colours=None) -> str:
    """A design file in the program's documented format."""
    k = min(len(b) for b in blocks)
    lines = [f"design v={v} k={k} lambda=1"]
    lines += ["block: " + " ".join(map(str, b)) for b in blocks]
    if colours is not None:
        lines.append(f"colouring c={max(colours) + 1}")
        lines += [f"colour: {p} {col}" for p, col in enumerate(colours)]
    return "\n".join(lines) + "\n"


def parse_design_text(text: str):
    """(v, blocks, colours or None) from a design file the program wrote."""
    v = None
    blocks = []
    colours = []
    for line in text.splitlines():
        if line.startswith("design "):
            v = int(line.split()[1].split("=")[1])
        elif line.startswith("block: "):
            blocks.append(tuple(int(x) for x in line[7:].split()))
        elif line.startswith("colour: "):
            p, col = (int(x) for x in line[8:].split())
            if p != len(colours):
                raise ValueError(f"colour lines out of order at point {p}")
            colours.append(col)
        elif not line.startswith("colouring c="):
            raise ValueError(f"unexpected line {line!r}")
    if v is None:
        raise ValueError("missing design header")
    return v, blocks, (colours or None)


def corrupt(v: int, blocks, colours, rng: random.Random):
    """A copy with one point swapped in a few blocks and a few colours flipped.

    Only points that lie in some block are flipped, so every flip breaks at
    least one block's colour balance and the copy always fails validation.
    """
    blocks = [list(b) for b in blocks]
    for bi in rng.sample(range(len(blocks)), N_CORRUPT_BLOCKS):
        blk = blocks[bi]
        pos = rng.randrange(len(blk))
        blk[pos] = rng.choice([p for p in range(v) if p not in blk])
    colours = list(colours)
    covered = sorted({p for b in blocks for p in b})
    for p in rng.sample(covered, N_CORRUPT_COLOURS):
        colours[p] = 1 - colours[p]
    return canonical(blocks), colours


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode() if isinstance(item, str) else item)
        h.update(b"\0")
    return h.hexdigest()[:16]
