"""Built-in catalog of designs used throughout the test corpus.

Every entry is validated the first time it is requested; a failure here is
a packaging bug, so it raises instead of returning a report.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import designcolour

from .core import (
    Design,
    DesignError,
    Grouping,
    _require,
    validate_bibd,
    validate_gdd,
    validate_packing,
)


class UnknownEntryError(DesignError):
    """No catalog entry with the requested name."""


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    design: Design
    grouping: Optional[Grouping] = None
    colouring: Optional[designcolour.Colouring] = None
    provenance: str = ""


# A 4-chromatic Steiner triple system of order 21 (stored block list; the
# first row is a parallel class).
_STS21_BLOCKS = (
    (0, 3, 9), (1, 12, 16), (2, 8, 19), (4, 17, 18), (5, 6, 14), (7, 11, 15),
    (10, 13, 20),
    (0, 1, 2), (1, 3, 10), (2, 3, 11), (1, 5, 9), (1, 4, 11), (2, 5, 10),
    (0, 5, 11),
    (2, 4, 9), (0, 4, 10), (3, 4, 5), (3, 6, 12), (4, 6, 13), (4, 8, 12),
    (4, 7, 14),
    (5, 8, 13), (3, 8, 14), (5, 7, 12), (3, 7, 13), (6, 7, 8), (6, 9, 15),
    (7, 9, 16),
    (8, 9, 17), (7, 10, 17), (8, 11, 16), (6, 11, 17), (8, 10, 15),
    (6, 10, 16), (9, 10, 11),
    (9, 12, 18), (10, 12, 19), (11, 12, 20), (10, 14, 18), (11, 14, 19),
    (9, 14, 20), (11, 13, 18),
    (9, 13, 19), (12, 13, 14), (0, 12, 15), (2, 12, 17), (1, 14, 15),
    (1, 13, 17), (2, 14, 16),
    (0, 14, 17), (2, 13, 15), (0, 13, 16), (15, 16, 17), (3, 15, 18),
    (4, 15, 19), (5, 15, 20),
    (4, 16, 20), (5, 17, 19), (3, 17, 20), (5, 16, 18), (3, 16, 19),
    (18, 19, 20), (0, 6, 18),
    (1, 6, 19), (2, 6, 20), (1, 8, 18), (1, 7, 20), (0, 8, 20), (2, 7, 18),
    (0, 7, 19),
)

# The parallel class formed by the first seven stored blocks above.
STS21_TOP_ROW = _STS21_BLOCKS[:7]

# A TD(4,4) on Z4 x Z4 as symbol rows (point x of group i is index 4i + x,
# as in `build_td`), whose stored 2-colouring gives two points of each
# colour in every group.
_TD44_BLOCKS_SYMBOLIC = (
    (0, 0, 0, 0), (1, 0, 1, 2), (2, 0, 2, 3), (3, 0, 3, 1),
    (0, 1, 1, 1), (1, 1, 0, 3), (2, 1, 3, 2), (3, 1, 2, 0),
    (0, 2, 2, 2), (1, 2, 3, 0), (2, 2, 0, 1), (3, 2, 1, 3),
    (0, 3, 3, 3), (1, 3, 2, 1), (2, 3, 1, 0), (3, 3, 0, 2),
)
_TD44_COLOUR0 = (0, 1, 5, 6, 8, 10, 12, 13)


def _sts21() -> CatalogEntry:
    return CatalogEntry(
        "sts21",
        Design(21, _STS21_BLOCKS),
        provenance="stored block list: 4-chromatic Steiner triple system of order 21",
    )


def _td44() -> CatalogEntry:
    design, grouping = designcolour.td._td_from_rows(4, 4, _TD44_BLOCKS_SYMBOLIC)
    assignment = tuple(0 if p in _TD44_COLOUR0 else 1 for p in range(16))
    return CatalogEntry(
        "td44",
        design,
        grouping,
        designcolour.Colouring(2, assignment),
        provenance="stored transversal design of order 4 with a balanced 2-colouring",
    )


def _cyclic_design(v: int, base_blocks) -> Design:
    blocks = []
    for base in base_blocks:
        for shift in range(v):
            blocks.append(tuple(sorted((x + shift) % v for x in base)))
    return Design(v, tuple(set(blocks)))


def _sts7() -> CatalogEntry:
    return CatalogEntry(
        "sts7",
        _cyclic_design(7, [(0, 1, 3)]),
        provenance="cyclic Steiner triple system, base block {0,1,3} mod 7",
    )


def _sts9() -> CatalogEntry:
    # Affine plane of order 3: lines of slopes 0, 1, 2 and the verticals,
    # with point (x, y) at index 3x + y.
    blocks = []
    for m in range(3):
        for b in range(3):
            blocks.append(tuple(sorted(3 * x + (m * x + b) % 3 for x in range(3))))
    for x in range(3):
        blocks.append(tuple(3 * x + y for y in range(3)))
    return CatalogEntry(
        "sts9",
        Design(9, tuple(blocks)),
        provenance="affine plane of order 3 (the unique Steiner triple system of order 9)",
    )


def _sts13() -> CatalogEntry:
    return CatalogEntry(
        "sts13",
        _cyclic_design(13, [(0, 1, 4), (0, 2, 7)]),
        provenance="cyclic Steiner triple system, base blocks {0,1,4},{0,2,7} mod 13",
    )


def _bibd13_4() -> CatalogEntry:
    return CatalogEntry(
        "bibd13_4",
        _cyclic_design(13, [(0, 1, 3, 9)]),
        provenance="projective plane of order 3 via the perfect difference set {0,1,3,9} mod 13",
    )


def _pack7() -> CatalogEntry:
    # Colour classes {0,1,2} and {3,4,5,6}.
    design = Design(7, ((0, 1, 3, 4), (0, 2, 5, 6)))
    colouring = designcolour.Colouring(2, (0, 0, 0, 1, 1, 1, 1))
    return CatalogEntry(
        "pack7", design, colouring=colouring,
        provenance="stored maximum 2-colourable packing on 7 points, block size 4",
    )


def _pack11() -> CatalogEntry:
    # Colour classes {0..4} and {5..10}.
    design = Design(
        11,
        (
            (0, 2, 5, 8),
            (0, 3, 6, 9),
            (0, 4, 7, 10),
            (1, 2, 6, 10),
            (1, 3, 7, 8),
            (1, 4, 5, 9),
        ),
    )
    colouring = designcolour.Colouring(2, (0,) * 5 + (1,) * 6)
    return CatalogEntry(
        "pack11", design, colouring=colouring,
        provenance="stored maximum 2-colourable packing on 11 points, block size 4",
    )


def _pack24_blocks() -> tuple[tuple[int, ...], ...]:
    # Points (x, 1) -> x and (x, 2) -> 12 + x; three block orbits mod 12.
    blocks = []
    for i in range(12):
        blocks.append((i, (i + 5) % 12, 12 + (i + 2) % 12, 12 + (i + 4) % 12))
        blocks.append((i, (i + 3) % 12, 12 + (i - 2) % 12, 12 + (i + 6) % 12))
        blocks.append((i, (i + 4) % 12, 12 + i, 12 + (i + 5) % 12))
    return tuple(tuple(sorted(b)) for b in blocks)


def _pack24() -> CatalogEntry:
    design = Design(24, _pack24_blocks())
    colouring = designcolour.Colouring(2, (0,) * 12 + (1,) * 12)
    return CatalogEntry(
        "pack24", design, colouring=colouring,
        provenance="stored maximum 2-colourable packing on 24 points from three cyclic orbits mod 12",
    )


def _pack25() -> CatalogEntry:
    design = Design(25, _pack24_blocks())
    colouring = designcolour.Colouring(2, (0,) * 12 + (1,) * 12 + (0,))
    return CatalogEntry(
        "pack25", design, colouring=colouring,
        provenance="the 24-point packing with one isolated point added to a colour class",
    )


_BUILDERS: dict[str, Callable[[], CatalogEntry]] = {
    "sts7": _sts7,
    "sts9": _sts9,
    "sts13": _sts13,
    "sts21": _sts21,
    "bibd13_4": _bibd13_4,
    "td44": _td44,
    "pack7": _pack7,
    "pack11": _pack11,
    "pack24": _pack24,
    "pack25": _pack25,
}

_VALIDATED: dict[str, CatalogEntry] = {}


def catalog_names() -> list[str]:
    return sorted(_BUILDERS)


def _validate_entry(entry: CatalogEntry) -> None:
    name = entry.name
    if entry.grouping is not None:
        report = validate_gdd(entry.design, entry.grouping)
        _require(report, DesignError, f"catalog entry {name} fails GDD validation")
        if entry.colouring is not None:
            colrep = designcolour.check_group_colouring(
                entry.design, entry.grouping, entry.colouring, "group-equitable"
            )
            _require(colrep, DesignError, f"catalog entry {name} has an invalid colouring")
    elif name.startswith("pack"):
        _require(validate_packing(entry.design)[0], DesignError, f"catalog entry {name} fails packing validation")
        if entry.colouring is not None:
            colrep = designcolour.check_block_equitable(entry.design, entry.colouring)
            _require(colrep, DesignError, f"catalog entry {name} has an invalid colouring")
    else:
        _require(validate_bibd(entry.design), DesignError, f"catalog entry {name} fails BIBD validation")


def catalog_get(name: str) -> CatalogEntry:
    """Return a validated catalog entry by name."""
    if name not in _BUILDERS:
        raise UnknownEntryError(f"unknown catalog entry {name!r} (known: {', '.join(catalog_names())})")
    if name not in _VALIDATED:
        entry = _BUILDERS[name]()
        _validate_entry(entry)
        _VALIDATED[name] = entry
    return _VALIDATED[name]
