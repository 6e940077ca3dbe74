"""Catalog integrity and the design file format round-trips."""
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from operator import lt
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designcolour import (
    Colouring,
    Design,
    DesignError,
    Grouping,
    ParseError,
    catalog_get,
    catalog_names,
    check_group_colouring,
    parse_colouring,
    parse_design,
    render_colouring,
    render_design,
    validate_bibd,
)
import designcolour
import designcolour.fileio as fileio
from designcolour.catalog import UnknownEntryError
from designcolour.fileio import (
    _COLOURING_RE,
    _DESIGN_RE,
    _check_block,
    _colouring_from_lines,
    _ints,
    _strip,
)


class TestCatalog:
    def test_all_entries_load_validated(self):
        names = catalog_names()
        assert set(names) >= {
            "sts7", "sts9", "sts13", "sts21", "bibd13_4",
            "td44", "pack7", "pack11", "pack24", "pack25",
        }
        for name in names:
            catalog_get(name)

    def test_unknown_name(self):
        with pytest.raises(UnknownEntryError):
            catalog_get("sts99")

    def test_sts21_shape(self):
        entry = catalog_get("sts21")
        assert entry.design.v == 21 and entry.design.b == 70
        assert validate_bibd(entry.design).passed

    def test_td44_colouring_balances_groups(self):
        entry = catalog_get("td44")
        report = check_group_colouring(
            entry.design, entry.grouping, entry.colouring, "group-equitable"
        )
        assert report.passed

    def test_provenance_text_present(self):
        for name in catalog_names():
            assert catalog_get(name).provenance


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["sts7", "sts21", "td44", "pack24"])
    def test_parse_render_identity(self, name):
        entry = catalog_get(name)
        text = render_design(entry.design, entry.grouping, entry.colouring)
        design, grouping, colouring = parse_design(text)
        assert design == entry.design
        assert grouping == entry.grouping
        assert colouring == entry.colouring
        assert render_design(design, grouping, colouring) == text

    def test_canonical_file_stable(self):
        text = "design v=4 k=3 lambda=1\nblock: 0 1 2\nblock: 0 1 3\n"
        design, grouping, colouring = parse_design(text)
        assert render_design(design) == text

    def test_colouring_round_trip(self):
        col = Colouring(3, (0, 1, 2, 1))
        assert parse_colouring(render_colouring(col)) == col


HEADER = "design v=4 k=3 lambda=1\n"

# Malformed files with the exact message and line number each one raises.
# Where a line breaks several rules, the first of duplicate, range and
# order wins; every line is checked before the design as a whole.
PARSE_ERRORS = [
    (HEADER + "block: 0 1 1\n", 2, "duplicate point in block"),
    ("design v=3 k=3 lambda=1\nblock: 0 1 5\n", 2, "point out of range [0, 3)"),
    ("design v=3 k=3 lambda=1\nblock: -1 1 2\n", 2, "point out of range [0, 3)"),
    (HEADER + "block: 1 2 4\n", 2, "point out of range [0, 4)"),
    ("design v=0 k=2 lambda=1\nblock: 0 1\n", 2, "point out of range [0, 0)"),
    (HEADER + "block: 2 1 0\n", 2, "block points must be ascending"),
    (HEADER + "block: 1 0\n", 2, "block points must be ascending"),
    ("design v=3 k=3 lambda=1\nblock: 5 1 1\n", 2, "duplicate point in block"),
    ("design v=3 k=3 lambda=1\nblock: 5 1 0\n", 2, "point out of range [0, 3)"),
    ("design v=3 k=3 lambda=1\nblock: 2 1 1\n", 2, "duplicate point in block"),
    (HEADER + "block: 3 3 -1\n", 2, "duplicate point in block"),
    (HEADER + "block: 0 1 2\nblock: 2 3 3 3\n", 3, "duplicate point in block"),
    (HEADER + "block: 0 1 2\nblock: 1 2 9 # far\n", 3, "point out of range [0, 4)"),
    (HEADER + "block: 0 1 x\n", 2, "expected integers, got ' 0 1 x'"),
    (HEADER + "block: 0 1 x   \n", 2, "expected integers, got ' 0 1 x'"),
    (HEADER + "block: 0 1 x # note\n", 2, "expected integers, got ' 0 1 x'"),
    (HEADER + "block: 0 1 2.0\n", 2, "expected integers, got ' 0 1 2.0'"),
    (HEADER + "block:\n", 1, "block () has fewer than two points"),
    (HEADER + "block:   # nothing\n", 1, "block () has fewer than two points"),
    ("design v=4 k=1 lambda=1\nblock: 2\n", 1, "block (2,) has fewer than two points"),
    (HEADER + "block: 0 1 2\nblock: 3\nblock: 1\n", 1, "block (3,) has fewer than two points"),
    ("design v=4 k=3 lambda=0\nblock: 0 1 2\n", 1,
     "pair multiplicity index must be a positive integer"),
    ("design v=4 k=3 lambda=0\nblock: 2\n", 1,
     "pair multiplicity index must be a positive integer"),
    ("design v=4 k=3 lambda=0\nblock: 0 1 1\n", 2, "duplicate point in block"),
    ("design v=4 k=4 lambda=1\nblock: 0 1 2\n", 1, "header k=4 but the least block size is 3"),
    (HEADER + "block: 0 1 2 3\nblock: 0 1\n", 1, "header k=3 but the least block size is 2"),
    ("block: 0 1 2\n", 1, "block before design header"),
    (HEADER + "block: 0 1 2\n" + HEADER, 3, "duplicate design header"),
    (HEADER + "block: 0 1 2\ngroup: 0 1 5\n", 3, "point out of range [0, 4)"),
]


@st.composite
def design_files(draw):
    """A random design, sometimes with a grouping and a colouring."""
    v = draw(st.integers(2, 12))
    blocks = draw(st.lists(
        st.sets(st.integers(0, v - 1), min_size=2, max_size=min(v, 5)).map(tuple),
        max_size=20,
    ))
    design = Design(v, tuple(blocks), draw(st.integers(1, 3)))
    grouping = colouring = None
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 3), min_size=v, max_size=v))
        grouping = Grouping(v, tuple(
            tuple(p for p in range(v) if labels[p] == label) for label in set(labels)
        ))
    if draw(st.booleans()):
        c = draw(st.integers(1, 11))
        colouring = Colouring(c, tuple(draw(st.lists(st.integers(0, c - 1), min_size=v, max_size=v))))
    return design, grouping, colouring


@settings(max_examples=150, deadline=None)
@given(design_files(), st.randoms(use_true_random=False))
def test_shuffled_block_lines_parse_to_the_same_design(parts, rng):
    text = render_design(*parts)
    assert parse_design(text) == parts
    assert render_design(*parse_design(text)) == text
    lines = text.splitlines(keepends=True)
    blocks = [i for i, line in enumerate(lines) if line.startswith("block:")]
    shuffled = [lines[i] for i in blocks]
    rng.shuffle(shuffled)
    for i, line in zip(blocks, shuffled):
        lines[i] = line
    assert parse_design("".join(lines)) == parts


class TestParseErrors:
    @pytest.mark.parametrize("text, line_no, msg", PARSE_ERRORS)
    def test_message_and_line(self, text, line_no, msg):
        with pytest.raises(ParseError) as err:
            parse_design(text)
        assert err.value.line_no == line_no
        assert str(err.value) == f"line {line_no}: {msg}"

    def test_tokens_int_accepts(self):
        # a sign, Unicode digits, tabs and no space after the tag parse as before
        text = HEADER + "block: +0 1 \uff13\nblock:0\t1  2\n  block: 1 2 3\n"
        design, _, _ = parse_design(text)
        assert design.blocks == ((0, 1, 2), (0, 1, 3), (1, 2, 3))
        # tokens that are no canonical point name take the int() path
        text = "design v=12 k=3 lambda=1\nblock: 01 +2 1_0\nblock: \uff10 \uff11 \uff11\uff11\n"
        design, _, _ = parse_design(text)
        assert design.blocks == ((0, 1, 11), (1, 2, 10))

    def test_points_share_one_int(self):
        text = "design v=999 k=2 lambda=1\n" + "".join(f"block: {p} 500\n" for p in range(100))
        design, _, _ = parse_design(text)
        assert len({id(blk[1]) for blk in design.blocks}) == 1

    def test_duplicate_point_names_line(self):
        text = "design v=4 k=3 lambda=1\nblock: 0 1 1\n"
        with pytest.raises(ParseError) as err:
            parse_design(text)
        assert err.value.line_no == 2

    def test_out_of_range_point(self):
        with pytest.raises(ParseError):
            parse_design("design v=3 k=3 lambda=1\nblock: 0 1 5\n")

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_design("block: 0 1 2\n")

    def test_bad_k_header(self):
        with pytest.raises(ParseError):
            parse_design("design v=4 k=4 lambda=1\nblock: 0 1 2\n")

    def test_unsorted_block(self):
        with pytest.raises(ParseError):
            parse_design("design v=4 k=3 lambda=1\nblock: 2 1 0\n")

    def test_colouring_needs_every_point(self):
        text = "design v=3 k=2 lambda=1\nblock: 0 1\ncolouring c=2\ncolour: 0 1\n"
        with pytest.raises(ParseError):
            parse_design(text)

    def test_colour_lines_out_of_order(self):
        text = "design v=3 k=2 lambda=1\nblock: 0 1\ncolouring c=2\ncolour: 0 1\ncolour: 2 0\ncolour: 1 1\n"
        with pytest.raises(ParseError, match="every point once, ascending"):
            parse_design(text)

    def test_huge_header_order_with_colour_lines(self):
        # The colour lines are compared one by one, so nothing of size v
        # is allocated before the file is rejected.
        text = f"design v={2**62} k=2 lambda=1\ncolouring c=2\ncolour: 0 1\n"
        with pytest.raises(ParseError, match="every point once, ascending"):
            parse_design(text)

    def test_huge_header_order_with_block_lines(self):
        # The point-name table has min(v, len(text)) entries, so a huge v
        # costs memory in proportion to the text only.
        text = f"design v={2**62} k=3 lambda=1\n" + "".join(
            f"block: {i} {i + 1} {i + 2}\n" for i in range(0, 3000, 3)
        )
        tracemalloc.start()
        try:
            design, _, _ = parse_design(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert design.v == 2**62 and design.b == 1000
        assert peak < 200 * len(text)

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\ndesign v=3 k=3 lambda=1\nblock: 0 1 2  # the only block\n"
        design, _, _ = parse_design(text)
        assert design.b == 1


def parse_design_line_by_line(text: str):
    """Oracle: the parser that checks each line on its own, one at a time."""
    header = None
    blocks: list[tuple[int, ...]] = []
    groups: list[tuple[int, ...]] = []
    colour_c: Optional[int] = None
    colour_lines: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw) if "#" in raw else raw.strip()
        if not line:
            continue
        if line.startswith("block:"):
            if header is None:
                raise ParseError(line_no, "block before design header")
            try:
                pts = tuple(map(point, line[len("block:"):].split()))
            except KeyError:
                pts = _ints(line_no, line[len("block:"):])
            if not (pts and pts[0] >= 0 and pts[-1] < header[0] and all(map(lt, pts, pts[1:]))):
                _check_block(line_no, pts, header[0])
            blocks.append(pts)
        elif line.startswith("design "):
            if header is not None:
                raise ParseError(line_no, "duplicate design header")
            m = _DESIGN_RE.match(line)
            if not m:
                raise ParseError(line_no, "malformed design header")
            header = tuple(int(x) for x in m.groups())
            point = {str(p): p for p in range(min(header[0], len(text)))}.__getitem__
        elif line.startswith("group:"):
            if header is None:
                raise ParseError(line_no, "group before design header")
            pts = _ints(line_no, line[len("group:"):])
            if any(p < 0 or p >= header[0] for p in pts):
                raise ParseError(line_no, f"point out of range [0, {header[0]})")
            groups.append(pts)
        elif _COLOURING_RE.match(line):
            if colour_c is not None:
                raise ParseError(line_no, "duplicate colouring header")
            colour_c = int(_COLOURING_RE.match(line).group(1))
        elif line.startswith("colour:"):
            if colour_c is None:
                raise ParseError(line_no, "colour line before colouring header")
            vals = _ints(line_no, line[len("colour:"):])
            if len(vals) != 2:
                raise ParseError(line_no, "colour line needs point and colour")
            colour_lines.append(vals)
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    if header is None:
        raise ParseError(1, "missing design header")
    v, k, lam = header
    try:
        design = Design._from_canonical(v, blocks, lam)
    except DesignError as exc:
        raise ParseError(1, str(exc)) from None
    if design.blocks and design.k != k:
        raise ParseError(1, f"header k={k} but the least block size is {design.k}")
    grouping = None
    if groups:
        try:
            grouping = Grouping(v, tuple(groups))
        except DesignError as exc:
            raise ParseError(1, str(exc)) from None
    colouring = None
    if colour_c is not None:
        colouring = _colouring_from_lines(v, colour_c, colour_lines)
    return design, grouping, colouring


def parse_outcome(parse, text):
    """The parsed triple, or the (line_no, message) of the ParseError."""
    try:
        return parse(text)
    except ParseError as exc:
        return exc.line_no, str(exc)


_FULLWIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19")


def _point_token(rng, p: int) -> str:
    """p as a canonical name, or now and then as another spelling int() reads."""
    name = str(p)
    spelling = rng.randrange(12)
    if spelling == 0:
        return "0" + name
    if spelling == 1:
        return "+" + name
    if spelling == 2 and p >= 10:
        return name[0] + "_" + name[1:]
    if spelling == 3:
        return name.translate(_FULLWIDTH)
    return name


def _block_line(rng, pts, plain: bool) -> str:
    if plain:
        return "block: " + " ".join(map(str, pts))
    line = ("block:" + rng.choice(["", " ", "\t"])) + " ".join(_point_token(rng, p) for p in pts)
    return rng.choice(["", " ", "\t "]) + line + rng.choice(["", "  ", "\t", " # note"])


def _mutated_block(rng, pts, v: int) -> list:
    """pts with a duplicate, out-of-range, descending or non-integer
    point, or no points at all."""
    pts = list(pts)
    fault = rng.randrange(5)
    if fault == 4:
        return []
    if fault == 0:
        pts.insert(rng.randrange(len(pts)), rng.choice(pts))
        pts.sort()
    elif fault == 1:
        pts[rng.choice([0, -1])] = rng.choice([-1, v, v + 7])
    elif fault == 2:
        i = rng.randrange(len(pts) - 1)
        pts[i], pts[i + 1] = pts[i + 1], pts[i]
    else:
        pts[rng.randrange(len(pts))] = rng.choice(["x", "2.0", "1e3", "--1"])
    return pts


def random_design_text(rng) -> str:
    """Runs of block lines, mostly canonical, some longer than a bulk
    chunk and some of mixed block sizes, among comments, blank lines,
    group lines and a colouring; sometimes with one faulty line."""
    v = rng.choice([rng.randint(6, 40), 10**6])
    sizes = rng.choice([[3], [4], [3, 4], [2, 3, 5]])
    lines = rng.choice([[], ["# a design"], ["", "  # a design", "\t"]])
    lines.append(rng.choice(["", "  "]) + f"design v={v} k={min(sizes)} lambda={rng.randint(1, 2)}")
    block_lines = []
    for _ in range(rng.randint(1, 3)):
        mixed = rng.random() < 0.3
        size = rng.choice(sizes)
        for _ in range(rng.choice([rng.randint(0, 6), rng.randint(200, 400)])):
            pts = sorted(rng.sample(range(min(v, 40)), rng.choice(sizes) if mixed else size))
            if v > 40 and rng.random() < 0.05:
                pts[-1] = rng.randrange(40, v)
            block_lines.append(len(lines))
            lines.append(_block_line(rng, pts, rng.random() < 0.9))
        lines += rng.choice([[], [""], ["# between runs"], ["   ", "#"]])
    if v <= 40 and rng.random() < 0.3:
        order = rng.sample(range(v), v)
        cut = rng.randint(1, v - 1)
        lines += ["group: " + " ".join(map(str, sorted(grp))) for grp in (order[:cut], order[cut:])]
    if v <= 40 and rng.random() < 0.3:
        lines.append("colouring c=2")
        lines += [f"colour: {p} {rng.randrange(2)}" for p in range(v)]
    if block_lines and rng.random() < 0.5:
        i = rng.choice(block_lines)
        pts = sorted(rng.sample(range(min(v, 40)), rng.choice(sizes)))
        lines[i] = "block: " + " ".join(map(str, _mutated_block(rng, pts, v)))
    return "\n".join(lines) + rng.choice(["", "\n"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.sampled_from([1, 2, 5, None]))
def test_parse_matches_the_line_by_line_parser(seed, chunk):
    # small chunks put chunk ends inside every run; None keeps the default
    text = random_design_text(random.Random(seed))
    saved = fileio._CHUNK
    fileio._CHUNK = chunk or saved
    try:
        outcome = parse_outcome(parse_design, text)
    finally:
        fileio._CHUNK = saved
    assert outcome == parse_outcome(parse_design_line_by_line, text)


def test_parse_is_linear_when_no_chunk_is_uniform(tmp_path, monkeypatch):
    # 200,000 block lines: sizes alternating 3 and 4, so every chunk takes
    # the per-line checks; then uniform lines with a bad last line.  Each
    # file is parsed in its own process, one at a time, and no line may
    # enter two bulk parses.
    n = 200_000
    files = {
        "mixed.design": "design v=1000 k=3 lambda=1\n" + "".join(
            f"block: {i % 900} {i % 900 + 1} {i % 900 + 2}{'' if i % 2 else ' 999'}\n" for i in range(n)
        ),
        "bad_last.design": "design v=1000 k=3 lambda=1\n" + "".join(
            f"block: {i % 900} {i % 900 + 1} {i % 900 + 2}\n" for i in range(n)
        ) + "block: 5 4 3\n",
    }
    src = str(Path(designcolour.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = (
        "import hashlib, pathlib, sys\n"
        "from designcolour import ParseError, parse_design\n"
        "try:\n"
        "    outcome = parse_design(pathlib.Path(sys.argv[1]).read_text())\n"
        "except ParseError as exc:\n"
        "    outcome = exc.line_no, str(exc)\n"
        "print(hashlib.sha256(repr(outcome).encode()).hexdigest())\n"
    )
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / name)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        expected = repr(parse_outcome(parse_design_line_by_line, text))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == hashlib.sha256(expected.encode()).hexdigest(), name
    bulk_blocks = fileio._bulk_blocks
    scanned = []

    def counted(*args):
        done = bulk_blocks(*args)
        scanned.append(abs(done))
        return done

    monkeypatch.setattr(fileio, "_bulk_blocks", counted)
    parse_design(files["mixed.design"])
    assert sum(scanned) == n
