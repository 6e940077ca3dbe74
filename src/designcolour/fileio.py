"""Line-oriented text format for designs, groupings and colourings.

The grammar (UTF-8, '#' starts a comment, blank lines ignored):

    design v=<int> k=<int> lambda=<int>
    block: p1 p2 ... pk          (one line per block, ascending points)
    group: p1 p2 ...             (optional; groups must partition the points)
    colouring c=<int>            (optional, followed by colour lines)
    colour: <point> <colour>     (one line per point, ascending points)

A standalone colouring file is the `colouring c=<int>` header followed by
bare `<point> <colour>` lines.  Rendering a parsed file reproduces it
byte for byte when the input was canonical.
"""
from __future__ import annotations

import re
from itertools import repeat
from operator import lt
from typing import Optional

import designcolour

from .core import Design, DesignError, Grouping


class ParseError(DesignError):
    def __init__(self, line_no: int, msg: str):
        super().__init__(f"line {line_no}: {msg}")
        self.line_no = line_no


_DESIGN_RE = re.compile(r"design v=(\d+) k=(\d+) lambda=(\d+)$")
_COLOURING_RE = re.compile(r"colouring c=(\d+)$")


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _ints(line_no: int, text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split()))
    except ValueError:
        raise ParseError(line_no, f"expected integers, got {text!r}") from None


def _check_block(line_no: int, pts: tuple[int, ...], v: int) -> None:
    """Raise the first of the duplicate, range and order checks a block line fails."""
    if len(set(pts)) != len(pts):
        raise ParseError(line_no, "duplicate point in block")
    if any(p < 0 or p >= v for p in pts):
        raise ParseError(line_no, f"point out of range [0, {v})")
    if list(pts) != sorted(pts):
        raise ParseError(line_no, "block points must be ascending")


# Lines per bulk parse: bounds the token lists a run of block lines makes.
_CHUNK = 256


def _bulk_blocks(lines: list[str], i: int, point, blocks: list[tuple[int, ...]]) -> int:
    """Parse the run of `block: ` lines from lines[i], at most `_CHUNK`
    of them, with one split and column-wise checks.

    Appends the blocks and returns the run's length when every line holds
    the same number of canonical point names, strictly ascending; else
    appends nothing and returns minus that length, for the per-line checks.
    """
    starts = list(map(str.startswith, lines[i:i + _CHUNK], repeat("block: ")))
    starts.append(False)
    n = starts.index(False)
    tokens = " ".join(lines[i:i + n]).split()
    t, rem = divmod(len(tokens), n)
    if rem or t < 2:
        return -n
    # Every line opens with a tag, so when deleting every t-th token
    # leaves no tag to fail the name table, every line holds t tokens.
    del tokens[::t]
    try:
        pts = list(map(point, tokens))
    except KeyError:
        return -n
    t -= 1
    if not all(all(map(lt, pts[j::t], pts[j + 1::t])) for j in range(t - 1)):
        return -n
    blocks += zip(*[iter(pts)] * t)
    return n


def parse_design(text: str) -> tuple[Design, Optional[Grouping], Optional[designcolour.Colouring]]:
    """Parse a design file; raises ParseError with a line number on bad input."""
    header = None
    blocks: list[tuple[int, ...]] = []
    groups: list[tuple[int, ...]] = []
    colour_c: Optional[int] = None
    colour_lines: list[tuple[int, int]] = []
    lines = text.splitlines()
    bulk_from = line_no = 0  # lines before `bulk_from` failed a bulk parse
    while line_no < len(lines):
        raw = lines[line_no]
        if line_no >= bulk_from and header is not None and raw.startswith("block: "):
            n = _bulk_blocks(lines, line_no, point, blocks)
            if n > 0:
                line_no += n
                continue
            bulk_from = line_no - n
        line_no += 1
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
            # One test for the common case: strictly ascending within
            # [0, v) means distinct, in range and ascending.
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
            # Canonical point names map to one shared int each.  Other
            # tokens, and points past the table's min(v, len(text))
            # entries, fall back to `_ints`, so a huge v costs O(len(text)).
            point = {str(p): p for p in range(min(header[0], len(text)))}.__getitem__
        elif line.startswith("group:"):
            if header is None:
                raise ParseError(line_no, "group before design header")
            pts = _ints(line_no, line[len("group:"):])
            if any(p < 0 or p >= header[0] for p in pts):
                raise ParseError(line_no, f"point out of range [0, {header[0]})")
            groups.append(pts)
        elif line.startswith("colour:"):
            if colour_c is None:
                raise ParseError(line_no, "colour line before colouring header")
            vals = _ints(line_no, line[len("colour:"):])
            if len(vals) != 2:
                raise ParseError(line_no, "colour line needs point and colour")
            colour_lines.append(vals)
        elif _COLOURING_RE.match(line):
            if colour_c is not None:
                raise ParseError(line_no, "duplicate colouring header")
            colour_c = int(_COLOURING_RE.match(line).group(1))
        else:
            raise ParseError(line_no, f"unrecognized line {line!r}")
    del lines  # before the blocks are sorted, which copies the list
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


def _colouring_from_lines(v: int, c: int, lines: list[tuple[int, int]]) -> designcolour.Colouring:
    # point by point, so a huge v in the header allocates nothing
    if len(lines) != v or any(p != i for i, (p, _) in enumerate(lines)):
        raise ParseError(1, "colour lines must list every point once, ascending")
    try:
        return designcolour.Colouring(c, tuple(col for _, col in lines))
    except DesignError as exc:
        raise ParseError(1, str(exc)) from None


def render_design(
    design: Design,
    grouping: Optional[Grouping] = None,
    colouring: Optional[designcolour.Colouring] = None,
) -> str:
    """Canonical text for a design; the exact inverse of parse_design."""
    name = list(map(str, range(design.v))).__getitem__
    out = [f"design v={design.v} k={design.k} lambda={design.lambda_}"]
    out += ["block: " + " ".join(map(name, blk)) for blk in design.blocks]
    if grouping is not None:
        out += ["group: " + " ".join(map(name, grp)) for grp in grouping.groups]
    if colouring is not None:
        out.append(f"colouring c={colouring.c}")
        for p, col in enumerate(colouring.assignment):
            out.append(f"colour: {p} {col}")
    return "\n".join(out) + "\n"


def parse_colouring(text: str) -> designcolour.Colouring:
    """Parse a standalone colouring file: header then `<point> <colour>` lines."""
    c = None
    lines: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        m = _COLOURING_RE.match(line)
        if m:
            if c is not None:
                raise ParseError(line_no, "duplicate colouring header")
            c = int(m.group(1))
            continue
        if c is None:
            raise ParseError(line_no, "missing colouring header")
        vals = _ints(line_no, line)
        if len(vals) != 2:
            raise ParseError(line_no, "expected `<point> <colour>`")
        lines.append(vals)
    if c is None:
        raise ParseError(1, "missing colouring header")
    return _colouring_from_lines(len(lines), c, lines)


def render_colouring(colouring: designcolour.Colouring) -> str:
    out = [f"colouring c={colouring.c}"]
    for p, col in enumerate(colouring.assignment):
        out.append(f"{p} {col}")
    return "\n".join(out) + "\n"
