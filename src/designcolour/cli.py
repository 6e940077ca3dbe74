"""Command-line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 validation
failure, 3 parse error, 4 budget exceeded, 5 unsupported parameters or
unknown names.  Exit 5 writes one of three stderr forms: `unsupported: …`
for parameters the library rejects, `error: …` for usage errors the CLI
finds, and argparse's `designcolour <command>: error: …` for the flags it
rejects; `construct pack-max` at an unattainable order prints its
`unachievable:` line on stdout instead.  Output is plain `key: value`
text (CSV where noted) and is deterministic for fixed inputs.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional

import designcolour

from .catalog import UnknownEntryError, catalog_get, catalog_names
from .colouring import GROUP_MODES, Colouring, check_colouring
from .core import (
    Design,
    DesignError,
    Grouping,
    UnsupportedParameterError,
    validate_bibd,
    validate_gdd,
    validate_packing,
)
from .fileio import (
    ParseError,
    parse_colouring,
    parse_design,
    render_colouring,
    render_design,
)
from .td import build_td

# Every command uses the modules imported above.  The solver, packings,
# parallel and transforms modules load on a command's first use of a
# `designcolour.<name>`, through the package's lazy names, so `catalog`
# and `verify` start without them.

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_BUDGET = 4
EXIT_UNSUPPORTED = 5

# `--mode` names on the command line and the colouring modes they name
MODE_NAMES = {
    "weak": "weak",
    "block-eq": "block-equitable",
    "group-mono": "group-monochromatic",
    "group-eq": "group-equitable",
}


class _UsageError(Exception):
    """A usage error the CLI finds, which `cli_main` reports as exit 5."""


def _read(path: str) -> str:
    """An input file's text; `cli_main` reports an OSError here as exit 2."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(exc) from None


# A design argument holding any of these characters is a path, never a
# catalog name.
_PATH_CHARS = frozenset(filter(None, (".", os.sep, os.altsep)))


def _load(path: str) -> tuple[Design, Optional[Grouping], Optional[Colouring]]:
    """A positional design argument is a file path or a catalog name.

    An existing file, or an argument with a path separator or a dot, is
    read as a file, so a mistyped path fails as an unreadable file; any
    other argument names a catalog entry.
    """
    if os.path.exists(path) or not _PATH_CHARS.isdisjoint(path):
        return parse_design(_read(path))
    entry = catalog_get(path)
    return entry.design, entry.grouping, entry.colouring


def _budget(args) -> designcolour.SearchBudget:
    # without --budget-nodes, `SearchBudget`'s default node limit holds
    nodes = {} if args.budget_nodes is None else {"node_limit": args.budget_nodes}
    return designcolour.SearchBudget(time_limit=args.budget_secs, **nodes)


def _print_report(report, out) -> None:
    print(f"verdict: {report.verdict}", file=out)
    for key, value in sorted(report.details.items()):
        print(f"{key}: {value}", file=out)
    print(f"violations: {len(report.violations)}", file=out)
    for violation in report.violations:
        print(f"violation: {violation}", file=out)


def _cmd_verify(args, out) -> int:
    design, grouping, colouring = _load(args.design)
    kind = args.as_ or ("gdd" if grouping is not None else "bibd")
    if kind == "gdd" and grouping is None:
        raise _UsageError("no grouping present for GDD validation")
    if args.colouring:
        colouring = parse_colouring(_read(args.colouring))
    mode_name = args.mode or ("weak" if args.colouring else None)
    # usage errors come before any report line
    if mode_name is not None and colouring is None:
        raise _UsageError("--mode needs a colouring, from --colouring or the design file")
    if colouring is not None and colouring.v != design.v:
        raise _UsageError(f"the colouring has {colouring.v} points, the design {design.v}")
    if mode_name is not None and MODE_NAMES[mode_name] in GROUP_MODES and grouping is None:
        raise _UsageError("group colouring modes need a grouping")
    if kind == "bibd":
        report = validate_bibd(design)
    elif kind == "gdd":
        report = validate_gdd(design, grouping)
    else:
        report, leave = validate_packing(design)
        if leave is not None:
            print(f"leave-edges: {leave.edge_count}", file=out)
    _print_report(report, out)
    code = EXIT_OK if report.passed else EXIT_VALIDATION
    if mode_name is not None:
        colrep = check_colouring(design, grouping, colouring, MODE_NAMES[mode_name])
        print(f"colouring-{mode_name}: {colrep.verdict}", file=out)
        for violation in colrep.violations:
            print(f"colouring-violation: {violation}", file=out)
        if not colrep.passed:
            code = EXIT_VALIDATION
    return code


def _cmd_chromatic(args, out) -> int:
    design, grouping, _ = _load(args.design)
    result = designcolour.chromatic_number(design, grouping, MODE_NAMES[args.mode], _budget(args))
    print(f"chi: {result.chi}", file=out)
    if result.refutation is not None:
        print(f"refuted-at: {result.refutation.c} nodes: {result.refutation.nodes}", file=out)
    # witness in the standalone colouring format, so it can be piped back
    # into `verify --colouring`
    out.write(render_colouring(result.witness))
    return EXIT_OK


def _cmd_pclasses(args, out) -> int:
    if args.analyze and args.limit is not None:
        raise _UsageError("--limit applies to listing classes, not to --analyze")
    if args.csv and not args.analyze:
        raise _UsageError("--csv applies to --analyze, not to listing classes")
    design, _, _ = _load(args.design)
    if args.analyze:
        analysis = designcolour.analyze_parallel_classes(design, _budget(args), jobs=args.jobs)
        if args.csv:
            print("class_index,chi,chi_M", file=out)
            for rec in analysis.records:
                print(f"{rec.class_index},{rec.chi},{rec.chi_m}", file=out)
        print("histogram: chi,chi_M,count", file=out)
        for (chi, chi_m), count in analysis.histogram:
            print(f"{chi},{chi_m},{count}", file=out)
        return EXIT_BUDGET if analysis.budget_exceeded else EXIT_OK
    classes, truncated = designcolour.enumerate_parallel_classes(design, args.limit)
    print(f"classes: {len(classes)}", file=out)
    for i, pc in enumerate(classes):
        print(f"class {i}: " + " ".join(str(b) for b in pc.block_indices), file=out)
    if truncated:
        print("truncated: true", file=out)
    return EXIT_OK


def _cmd_bound(args, out) -> int:
    if args.tight:
        info = designcolour.bound_max_equitable(args.v, args.k, args.c)
        print(f"bound: {info.value}", file=out)
        print(f"tight: {str(info.tight).lower()}", file=out)
        if info.achievable is not None:
            print(f"achievable: {str(info.achievable).lower()}", file=out)
    else:
        exact, floor = designcolour.bound_general(args.v, args.k, args.c)
        print(f"bound: {exact}", file=out)
        print(f"floor: {floor}", file=out)
    return EXIT_OK


def _cmd_catalog(args, out) -> int:
    if args.action == "list":
        if args.name is not None:
            raise _UsageError(f"catalog list takes no name, got {args.name!r}")
        for name in catalog_names():
            print(name, file=out)
        return EXIT_OK
    if args.name is None:
        raise _UsageError("catalog get needs a name argument")
    entry = catalog_get(args.name)
    out.write(render_design(entry.design, entry.grouping, entry.colouring))
    return EXIT_OK


def _packed(packing) -> tuple:
    return packing.design, None, packing.colouring


def _grouped(path: str) -> tuple[Design, Grouping]:
    """A design argument and its groups, singletons when it has none."""
    design, grouping, _ = _load(path)
    return design, grouping if grouping is not None else Grouping.singletons(design.v)


def _pack_max(args, v: int):
    result = designcolour.max_equitable_packing(v)
    return result if isinstance(result, designcolour.Unachievable) else _packed(result)


def _blowup(args, path: str, factor: int) -> tuple:
    result = designcolour.blow_up(*_grouped(path), factor)
    return result.design, result.grouping, None


def _pc_to_gdd(args, path: str) -> tuple:
    design, _, _ = _load(path)
    index = 0 if args.class_index is None else args.class_index
    # a class index stops the enumeration at its class; a negative one
    # enumerates every class, whose total the message reports
    classes, _ = designcolour.enumerate_parallel_classes(design, index + 1 if index >= 0 else None)
    if not 0 <= index < len(classes):
        raise _UsageError(f"class index {index} out of range ({len(classes)} classes)")
    return *designcolour.pc_to_gdd(design, classes[index]), None


def _td_colour(args, k: int, g: int) -> tuple:
    design, grouping = build_td(k, g)
    return design, grouping, designcolour.td_group_equitable_colouring(design, grouping)


def _geq_blowup(args, path: str, td_path: str) -> tuple:
    design, grouping = _grouped(path)
    td_design, td_grouping, td_colouring = _load(td_path)
    if td_grouping is None or td_colouring is None:
        raise _UsageError("the second design needs groups and a colouring")
    return designcolour.group_equitable_blowup(design, grouping, td_design, td_grouping, td_colouring)


# Each `construct` family: its parameters, an integer or a design given as a
# file path or a catalog name, and a builder of the design, grouping and
# colouring it prints.  Builders look library names up when they run, so a
# rebound name is the one called and importing this module loads no more.
_FAMILIES = {
    "td": (("int", "int"), lambda args, k, g: (*build_td(k, g), None)),
    "pack-max": (("int",), _pack_max),
    "pack-4n2": (("int",), lambda args, n: _packed(designcolour.pack_4n2_odd(n))),
    "pack-pairs": (("int",), lambda args, s: _packed(designcolour.pack_from_pairs(designcolour.pairs_for_s(s)))),
    "blowup": (("design", "int"), _blowup),
    "pc-to-gdd": (("design",), _pc_to_gdd),
    "delete-point": (("design", "int"), lambda args, path, y: (*designcolour.delete_point(_load(path)[0], y), None)),
    "td-colour": (("int", "int"), _td_colour),
    "geq-blowup": (("design", "design"), _geq_blowup),
}


def _cmd_construct(args, out) -> int:
    kinds, build = _FAMILIES[args.family]
    if args.class_index is not None and build is not _pc_to_gdd:
        raise _UsageError(f"--class-index applies to pc-to-gdd, not to {args.family}")
    try:
        params = [int(p) if kind == "int" else p for p, kind in zip(args.params, kinds, strict=True)]
    except ValueError:
        usage = " ".join(f"<{kind}>" for kind in kinds)
        raise _UsageError(f"usage: designcolour construct {args.family} {usage}") from None
    built = build(args, *params)
    if args.family == "pack-max" and isinstance(built, designcolour.Unachievable):
        print(f"unachievable: bound {built.bound} for v={built.v} ({built.reason})", file=out)
        return EXIT_UNSUPPORTED
    out.write(render_design(*built))
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--budget-nodes", type=_positive_int)
    p.add_argument("--budget-secs", type=_positive_float)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designcolour",
        description="Construct, validate, colour and analyse block designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a constructed design file")
    p.set_defaults(run=_cmd_construct)
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("params", nargs="*")
    p.add_argument("--class-index", type=int)

    p = sub.add_parser("verify", help="validate a design file or catalog entry")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("design")
    p.add_argument("--as", dest="as_", choices=["bibd", "gdd", "packing"])
    p.add_argument("--colouring")
    p.add_argument("--mode", choices=list(MODE_NAMES))

    p = sub.add_parser("chromatic", help="exact chromatic number with witness")
    p.set_defaults(run=_cmd_chromatic)
    p.add_argument("design")
    p.add_argument("--mode", choices=["weak", "group-mono"], default="weak")
    _add_budget(p)

    p = sub.add_parser("pclasses", help="parallel classes, optionally analysed")
    p.set_defaults(run=_cmd_pclasses)
    p.add_argument("design")
    p.add_argument("--analyze", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--limit", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    _add_budget(p)

    p = sub.add_parser("bound", help="packing size bounds")
    p.set_defaults(run=_cmd_bound)
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--tight", action="store_true")

    p = sub.add_parser("catalog", help="list or print built-in designs")
    p.set_defaults(run=_cmd_catalog)
    p.add_argument("action", choices=["list", "get"])
    p.add_argument("name", nargs="?")

    return parser


def cli_main(argv: Optional[list[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_UNSUPPORTED if exc.code else EXIT_OK
    try:
        return args.run(args, out)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (UnknownEntryError, UnsupportedParameterError) as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (DesignError, IndexError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    # Last, so that only an exception that no clause above takes loads the
    # solver to name this class.  It is a RuntimeError, which none of them
    # takes.
    except designcolour.BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    try:
        code = cli_main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader of stdout closed it early.  Point stdout at devnull so
        # that the flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
