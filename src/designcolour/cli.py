"""Command-line front end.

Exit codes: 0 success, 1 stdout closed by its reader, 2 validation
failure, 3 parse error, 4 budget exceeded, 5 unsupported parameters or
unknown names.  Output is plain `key: value` text (CSV where noted) and
is deterministic for fixed inputs.
"""
from __future__ import annotations

import argparse
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

# The parameters of each `construct` family: an integer, or a design given
# as a file path or a catalog name.
CONSTRUCT_PARAMS = {
    "td": ("int", "int"),
    "pack-max": ("int",),
    "pack-4n2": ("int",),
    "pack-pairs": ("int",),
    "blowup": ("design", "int"),
    "pc-to-gdd": ("design",),
    "delete-point": ("design", "int"),
    "td-colour": ("int", "int"),
    "geq-blowup": ("design", "design"),
}


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
    return designcolour.SearchBudget(
        node_limit=args.budget_nodes,
        time_limit=args.budget_secs,
    )


def _print_report(report, out) -> None:
    print(f"verdict: {report.verdict}", file=out)
    for key, value in sorted(report.details.items()):
        print(f"{key}: {value}", file=out)
    print(f"violations: {len(report.violations)}", file=out)
    for violation in report.violations:
        print(f"violation: {violation}", file=out)


def _cmd_verify(args, out) -> int:
    design, grouping, colouring = _load(args.design)
    kind = args.as_
    if kind is None:
        kind = "gdd" if grouping is not None else "bibd"
    if kind == "gdd" and grouping is None:
        print("error: no grouping present for GDD validation", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.colouring:
        colouring = parse_colouring(_read(args.colouring))
    mode_name = args.mode or ("weak" if args.colouring else None)
    # usage errors come before any report line
    if mode_name is not None and colouring is None:
        print("error: --mode needs a colouring, from --colouring or the design file", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if colouring is not None and colouring.v != design.v:
        print(
            f"error: the colouring has {colouring.v} points, the design {design.v}",
            file=sys.stderr,
        )
        return EXIT_UNSUPPORTED
    if mode_name is not None and MODE_NAMES[mode_name] in GROUP_MODES and grouping is None:
        print("error: group colouring modes need a grouping", file=sys.stderr)
        return EXIT_UNSUPPORTED
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
        print("error: --limit applies to listing classes, not to --analyze", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if args.csv and not args.analyze:
        print("error: --csv applies to --analyze, not to listing classes", file=sys.stderr)
        return EXIT_UNSUPPORTED
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
        if analysis.budget_exceeded:
            return EXIT_BUDGET
        return EXIT_OK
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
            print(f"error: catalog list takes no name, got {args.name!r}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        for name in catalog_names():
            print(name, file=out)
        return EXIT_OK
    if args.name is None:
        print("error: catalog get needs a name argument", file=sys.stderr)
        return EXIT_UNSUPPORTED
    entry = catalog_get(args.name)
    out.write(render_design(entry.design, entry.grouping, entry.colouring))
    return EXIT_OK


def _construct_params(family: str, params: list[str]) -> Optional[list]:
    """The family's parameters with the integers converted, or None when
    their number is wrong or an integer parameter is not one."""
    kinds = CONSTRUCT_PARAMS[family]
    if len(params) != len(kinds):
        return None
    try:
        return [int(p) if kind == "int" else p for p, kind in zip(params, kinds)]
    except ValueError:
        return None


def _cmd_construct(args, out) -> int:
    family = args.family
    params = _construct_params(family, args.params)
    if params is None:
        usage = " ".join(f"<{kind}>" for kind in CONSTRUCT_PARAMS[family])
        print(f"error: usage: designcolour construct {family} {usage}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    if family == "td":
        k, g = params
        design, grouping = build_td(k, g)
        out.write(render_design(design, grouping))
        return EXIT_OK
    if family == "pack-max":
        result = designcolour.max_equitable_packing(params[0])
        if isinstance(result, designcolour.Unachievable):
            print(
                f"unachievable: bound {result.bound} for v={result.v} ({result.reason})",
                file=out,
            )
            return EXIT_UNSUPPORTED
        out.write(render_design(result.design, None, result.colouring))
        return EXIT_OK
    if family == "pack-4n2":
        packed = designcolour.pack_4n2_odd(params[0])
        out.write(render_design(packed.design, None, packed.colouring))
        return EXIT_OK
    if family == "pack-pairs":
        packed = designcolour.pack_from_pairs(designcolour.pairs_for_s(params[0]))
        out.write(render_design(packed.design, None, packed.colouring))
        return EXIT_OK
    if family == "blowup":
        design, grouping, _ = _load(params[0])
        if grouping is None:
            grouping = Grouping.singletons(design.v)
        result = designcolour.blow_up(design, grouping, params[1])
        out.write(render_design(result.design, result.grouping))
        return EXIT_OK
    if family == "pc-to-gdd":
        design, _, _ = _load(params[0])
        index = args.class_index
        # a class index stops the enumeration at its class; a negative
        # one enumerates every class, whose total the message reports
        classes, _ = designcolour.enumerate_parallel_classes(design, index + 1 if index >= 0 else None)
        if not 0 <= index < len(classes):
            print(f"error: class index {index} out of range ({len(classes)} classes)", file=sys.stderr)
            return EXIT_UNSUPPORTED
        gdd, grouping = designcolour.pc_to_gdd(design, classes[index])
        out.write(render_design(gdd, grouping))
        return EXIT_OK
    if family == "delete-point":
        design, _, _ = _load(params[0])
        gdd, grouping = designcolour.delete_point(design, params[1])
        out.write(render_design(gdd, grouping))
        return EXIT_OK
    if family == "td-colour":
        k, g = params
        design, grouping = build_td(k, g)
        colouring = designcolour.td_group_equitable_colouring(design, grouping)
        out.write(render_design(design, grouping, colouring))
        return EXIT_OK
    if family == "geq-blowup":
        design, grouping, _ = _load(params[0])
        if grouping is None:
            grouping = Grouping.singletons(design.v)
        td_design, td_grouping, td_colouring = _load(params[1])
        if td_grouping is None or td_colouring is None:
            print("error: the second design needs groups and a colouring", file=sys.stderr)
            return EXIT_UNSUPPORTED
        out_design, out_grouping, out_colouring = designcolour.group_equitable_blowup(
            design, grouping, td_design, td_grouping, td_colouring
        )
        out.write(render_design(out_design, out_grouping, out_colouring))
        return EXIT_OK
    print(f"error: unknown construct family {family!r}", file=sys.stderr)
    return EXIT_UNSUPPORTED


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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designcolour",
        description="Construct, validate, colour and analyse block designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a constructed design file")
    p.add_argument("family", choices=list(CONSTRUCT_PARAMS))
    p.add_argument("params", nargs="*")
    p.add_argument("--class-index", type=int, default=0)

    p = sub.add_parser("verify", help="validate a design file or catalog entry")
    p.add_argument("design")
    p.add_argument("--as", dest="as_", choices=["bibd", "gdd", "packing"])
    p.add_argument("--colouring")
    p.add_argument("--mode", choices=list(MODE_NAMES))

    p = sub.add_parser("chromatic", help="exact chromatic number with witness")
    p.add_argument("design")
    p.add_argument("--mode", choices=["weak", "group-mono"], default="weak")
    p.add_argument("--budget-nodes", type=_positive_int, default=100_000_000)
    p.add_argument("--budget-secs", type=_positive_float, default=None)

    p = sub.add_parser("pclasses", help="parallel classes, optionally analysed")
    p.add_argument("design")
    p.add_argument("--analyze", action="store_true")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--limit", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--budget-nodes", type=_positive_int, default=100_000_000)
    p.add_argument("--budget-secs", type=_positive_float, default=None)

    p = sub.add_parser("bound", help="packing size bounds")
    p.add_argument("v", type=int)
    p.add_argument("k", type=int)
    p.add_argument("c", type=int)
    p.add_argument("--tight", action="store_true")

    p = sub.add_parser("catalog", help="list or print built-in designs")
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
        if args.command == "construct":
            return _cmd_construct(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "chromatic":
            return _cmd_chromatic(args, out)
        if args.command == "pclasses":
            return _cmd_pclasses(args, out)
        if args.command == "bound":
            return _cmd_bound(args, out)
        return _cmd_catalog(args, out)
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
