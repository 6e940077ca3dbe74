"""Independent checks of the program's outputs.

Each check takes the exit code and stdout of one step and returns a list of
problems (empty when the output is right).  The checks use only the
benchmark's own parsing and counting, never the program's validators, and
run outside the timed region.
"""
from __future__ import annotations

from collections import Counter
from math import comb

from inputs import STS21_HISTOGRAM, pair_counts, parse_design_text


def _expect_exit(rc, want: int) -> list[str]:
    return [] if rc == want else [f"exit code {rc}, expected {want}"]


def chromatic(blocks):
    """`chromatic` on a relabelled 4-chromatic STS(21)."""

    def check(rc, out: str) -> list[str]:
        problems = _expect_exit(rc, 0)
        lines = out.splitlines()
        if lines[:1] != ["chi: 4"]:
            problems.append(f"first line {lines[:1]}, expected chi: 4")
        if len(lines) < 2 or not lines[1].startswith("refuted-at: 3 nodes: "):
            problems.append("missing refuted-at: 3")
        if lines[2:3] != ["colouring c=4"]:
            return problems + ["missing witness header colouring c=4"]
        witness = {}
        for line in lines[3:]:
            p, col = (int(x) for x in line.split())
            witness[p] = col
        if sorted(witness) != list(range(21)) or not all(0 <= c < 4 for c in witness.values()):
            return problems + ["witness is not a 4-colouring of 21 points"]
        mono = [b for b in blocks if len({witness[p] for p in b}) == 1]
        if mono:
            problems.append(f"witness leaves blocks monochromatic: {mono[:3]}")
        return problems

    return check


def pclasses_list(blocks, classes):
    """`pclasses` lists exactly the parallel classes, each a partition."""

    def check(rc, out: str) -> list[str]:
        problems = _expect_exit(rc, 0)
        lines = out.splitlines()
        if lines[:1] != [f"classes: {len(classes)}"]:
            problems.append(f"first line {lines[:1]}, expected {len(classes)} classes")
        listed = []
        for i, line in enumerate(lines[1:]):
            head, _, rest = line.partition(": ")
            if head != f"class {i}":
                return problems + [f"line {line!r} out of order"]
            idx = tuple(int(x) for x in rest.split())
            points = sorted(p for bi in idx for p in blocks[bi])
            if points != list(range(21)):
                problems.append(f"class {i} does not partition the points")
            listed.append(tuple(sorted(idx)))
        if sorted(listed) != classes:
            problems.append("listed classes differ from the exact-cover count")
        return problems

    return check


def pclasses_analyze(n_classes: int, stored: bool):
    """`pclasses --analyze --csv`: one row per class and a matching histogram."""

    def check(rc, out: str) -> list[str]:
        problems = _expect_exit(rc, 0)
        lines = out.splitlines()
        if lines[:1] != ["class_index,chi,chi_M"]:
            return problems + ["missing CSV header"]
        try:
            split = lines.index("histogram: chi,chi_M,count")
        except ValueError:
            return problems + ["missing histogram"]
        rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:split]]
        if [r[0] for r in rows] != list(range(n_classes)):
            problems.append(f"{len(rows)} class rows, expected {n_classes}")
        if any(not 2 <= chi <= chi_m for _, chi, chi_m in rows):
            problems.append("a row has chi < 2 or chi_M < chi")
        hist = {}
        for line in lines[split + 1:]:
            chi, chi_m, count = (int(x) for x in line.split(","))
            hist[(chi, chi_m)] = count
        if hist != dict(Counter((chi, chi_m) for _, chi, chi_m in rows)):
            problems.append("histogram does not match the class rows")
        if sum(hist.values()) != n_classes:
            problems.append("histogram does not sum to the class count")
        if stored and hist != STS21_HISTOGRAM:
            problems.append(f"stored STS(21) histogram {hist}, expected {STS21_HISTOGRAM}")
        return problems

    return check


def packing_bound(v: int) -> int:
    n, r = divmod(v, 4)
    return n * n if r in (0, 1) else n * n + n


def pack_max(v: int):
    """`construct pack-max v`: a maximum, block-equitably 2-coloured packing."""

    def check(rc, out: str) -> list[str]:
        problems = _expect_exit(rc, 0)
        got_v, blocks, colours = parse_design_text(out)
        if got_v != v or colours is None or len(colours) != v:
            return problems + ["wrong order or missing colouring"]
        if len(blocks) != packing_bound(v):
            problems.append(f"{len(blocks)} blocks, bound is {packing_bound(v)}")
        if any(len(set(b)) != 4 or min(b) < 0 or max(b) >= v for b in blocks):
            return problems + ["a block is not four distinct points of the order"]
        if max(pair_counts(v, blocks), default=0) > 1:
            problems.append("a pair is covered twice")
        if set(colours) - {0, 1} or any(sum(colours[p] for p in b) != 2 for b in blocks):
            problems.append("a block is not two points of each colour")
        return problems

    return check


def verify_report(v: int, blocks, colours) -> tuple[int, str]:
    """The exit code and stdout `verify --as packing --mode block-eq` must give,
    computed with the benchmark's own counter."""
    counts = pair_counts(v, blocks)
    pair_lines = [
        f"violation: pair-multiplicity: ({divmod(i, v)}, {n})"
        for i, n in enumerate(counts) if n > 1
    ]
    colour_lines = []
    for bi, blk in enumerate(blocks):
        ones = sum(colours[p] for p in blk)
        if ones != 2:
            for colr, n in ((0, len(blk) - ones), (1, ones)):
                if n != 2:
                    colour_lines.append(
                        f"colouring-violation: block-colour-count: ({bi}, {blk}, {colr}, {n})"
                    )
    passed = not pair_lines
    lines = [
        f"leave-edges: {comb(v, 2) - (len(counts) - counts.count(0))}",
        f"verdict: {'pass' if passed else 'fail'}",
        f"blocks: {len(blocks)}",
        "k: 4",
        "lambda: 1",
        f"size: {len(blocks)}",
        f"v: {v}",
        f"violations: {len(pair_lines)}",
        *pair_lines,
        f"colouring-block-eq: {'fail' if colour_lines else 'pass'}",
        *colour_lines,
    ]
    rc = 0 if passed and not colour_lines else 2
    return rc, "\n".join(lines) + "\n"


def verify(want_rc: int, want_out: str):
    """`verify --as packing --mode block-eq` gives exactly the expected
    verdicts and violations, as computed by `verify_report`."""

    def check(rc, out: str) -> list[str]:
        problems = _expect_exit(rc, want_rc)
        if out != want_out:
            got, want = out.splitlines(), want_out.splitlines()
            diff = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            problems.append(f"verify output differs at line {diff}: {got[diff:diff + 1]} vs {want[diff:diff + 1]}")
        return problems

    return check


def mono_pairs(v: int, colours):
    """`count_monochrome_cross_pairs(design, colouring)` over all pairs."""
    mono = sum(comb(n, 2) for n in Counter(colours).values())
    want = f"{comb(v, 2) - mono} {mono}"

    def check(rc, out: str) -> list[str]:
        return [] if (rc, out) == (0, want) else [f"pair counts {out!r}, expected {want!r}"]

    return check
