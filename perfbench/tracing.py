"""Spans around the calls into each module of the program, from outside it.

`Tracer.install` replaces every module-level binding of a public
`designcolour` function with a wrapper that records a span (name, parent,
command, start, end) in memory.  A name imported with `from .x import y`
is bound in several modules; each binding is rebound, so calls made from
inside the package are seen too.  `Design` and `Grouping` construction is
traced through their `__post_init__`.  Nothing in the program changes.

A span's self time is its duration minus the time its child spans cover.
`per_layer` turns the spans of one batch into the per-layer metrics.
"""
from __future__ import annotations

import functools
import json
import sys
import types
from collections import defaultdict
from math import comb
from time import perf_counter

# name, unit, better, and the end-to-end metric it should move
METRICS = (
    ("solver.nodes_per_refutation", "count", "lower", "wall_s on refute"),
    ("solver.nodes_per_s", "1/s", "higher", "wall_s on refute"),
    ("solver.refutations", "count", "lower", "wall_s on refute"),
    ("solver.decide_s", "s", "lower", "wall_s on refute"),
    ("solver.decisions", "count", "lower", "wall_s on classes"),
    ("solver.nodes_colourable", "count", "lower", "wall_s on classes"),
    ("solver.nodes", "count", "lower", "wall_s on classes"),
    ("solver.budget_exceeded", "count", "lower", "wall_s on classes"),
    ("parallel.enumerate_s", "s", "lower", "wall_s on classes"),
    ("parallel.classes", "count", "lower", "wall_s on classes"),
    ("parallel.analyze_self_s", "s", "lower", "wall_s on classes"),
    ("transforms.s", "s", "lower", "wall_s on classes"),
    ("transforms.calls", "count", "lower", "wall_s on classes"),
    ("core.design_s", "s", "lower", "wall_s on classes and construct"),
    ("core.designs", "count", "lower", "wall_s on classes and construct"),
    ("core.validate_s", "s", "lower", "wall_s, peak_rss_mib on construct"),
    ("core.validate_fail_s", "s", "lower", "wall_s, peak_rss_mib on construct"),
    ("core.validate_calls", "count", "lower", "wall_s, peak_rss_mib on construct"),
    ("core.pairs_scanned", "count", "lower", "wall_s, peak_rss_mib on construct"),
    ("colouring.check_s", "s", "lower", "wall_s on construct and classes"),
    ("colouring.check_calls", "count", "lower", "wall_s on construct and classes"),
    ("colouring.pairstats_s", "s", "lower", "wall_s on construct"),
    ("packings.s", "s", "lower", "wall_s on construct"),
    ("packings.blocks", "count", "lower", "wall_s on construct"),
    ("td.s", "s", "lower", "wall_s on construct"),
    ("td.calls", "count", "lower", "wall_s on construct"),
    ("fileio.parse_s", "s", "lower", "wall_s on construct"),
    ("fileio.parse_mib", "MiB", "lower", "wall_s on construct"),
    ("fileio.render_s", "s", "lower", "wall_s on construct"),
    ("fileio.render_mib", "MiB", "lower", "wall_s on construct"),
    ("cli.self_s", "s", "lower", "wall_s on construct"),
    ("cli.commands", "count", "lower", "wall_s on construct"),
    ("catalog.get_s", "s", "lower", "setup_s"),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall_s"),
)

# Counts that must repeat exactly between runs of one seed.
EXACT_COUNTS = ("solver.nodes", "solver.decisions", "core.pairs_scanned", "parallel.classes")

MIB = 1 << 20


def _info(name: str, args, result):
    """What a span records about its call beyond its timing."""
    if name == "solver.decide_colourable":
        return (result.status, result.nodes)
    if name == "solver.chromatic_number" and result.refutation is not None:
        return (result.refutation.c, result.refutation.nodes)
    if name in ("core.validate_bibd", "core.validate_gdd"):
        return (comb(args[0].v, 2), result.passed)
    if name == "core.validate_packing":
        return (comb(args[0].v, 2), result[0].passed)
    if name == "parallel.enumerate_parallel_classes":
        return len(result[0])
    if name in ("fileio.parse_design", "fileio.parse_colouring"):
        return len(args[0])
    if name in ("fileio.render_design", "fileio.render_colouring"):
        return len(result)
    if name.startswith("packings.") and hasattr(result, "design"):
        return result.design.b
    return None


class Tracer:
    def __init__(self) -> None:
        # each span: [name, parent index, command, start, end, info]
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, self.command, perf_counter(), 0.0, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            span[5] = _info(name, args, result)
            return result

        return traced

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "designcolour" and not mod_name.startswith("designcolour."):
                continue
            for attr, fn in list(vars(mod).items()):
                if not isinstance(fn, types.FunctionType) or fn.__name__.startswith("_"):
                    continue
                if not fn.__module__.startswith("designcolour."):
                    continue
                if id(fn) not in wrappers:
                    layer = fn.__module__.split(".", 1)[1]
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{fn.__name__}")
                setattr(mod, attr, wrappers[id(fn)])
                self._restore.append((mod, attr, fn))
        core = sys.modules["designcolour.core"]
        for cls in (core.Design, core.Grouping):
            original = cls.__dict__["__post_init__"]
            setattr(cls, "__post_init__", self._wrap(original, f"core.{cls.__name__}"))
            self._restore.append((cls, "__post_init__", original))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, parent, command, start, end, _ in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent, "command": command,
                                     "start": start, "end": end}) + "\n")


def self_times(spans) -> list[float]:
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def per_layer(spans) -> dict[str, float]:
    """Per-layer metrics of one batch (every metric but `catalog.get_s` and
    `trace.overhead_s`, which come from elsewhere)."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = defaultdict(float)
    layer_calls: dict[str, int] = defaultdict(int)
    m = defaultdict(int)
    for span, t in zip(spans, own):
        name, parent, info = span[0], span[1], span[5]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_s[name] += t
        layer_s[layer] += t
        layer_calls[layer] += 1
        if name == "solver.decide_colourable" and info is not None:
            status, nodes = info
            m["solver.nodes"] += nodes
            if status == "colourable":
                m["solver.nodes_colourable"] += nodes
            elif status == "budget-exceeded":
                m["solver.budget_exceeded"] += 1
        elif name == "solver.chromatic_number" and info is not None:
            # the certificate at chi - 1; one colour is refuted by any block
            c, nodes = info
            if c >= 2:
                m["solver.refutations"] += 1
                m["refutation_nodes"] += nodes
        elif name.startswith("core.validate_") and info is not None:
            pairs, passed = info
            m["core.pairs_scanned"] += pairs
            m["core.validate_calls"] += 1
            m["core.validate_s"] += t
            if not passed:
                m["core.validate_fail_s"] += t
        elif name == "parallel.enumerate_parallel_classes" and info is not None:
            m["parallel.classes"] += info
        elif name.startswith("fileio.parse_") and info is not None:
            m["fileio.parse_mib"] += info / MIB
        elif name.startswith("fileio.render_") and info is not None:
            m["fileio.render_mib"] += info / MIB
        elif name.startswith("packings.") and info is not None:
            if parent < 0 or not spans[parent][0].startswith("packings."):
                m["packings.blocks"] += info
    checkers = ("check_weak", "check_block_equitable", "check_group_colouring")
    pairstats = ("count_monochrome_cross_pairs", "pair_stats_equitable")
    m["solver.decisions"] = calls["solver.decide_colourable"]
    m["solver.decide_s"] = self_s["solver.decide_colourable"]
    m["solver.nodes_per_s"] = m["solver.nodes"] / m["solver.decide_s"] if m["solver.decide_s"] else 0.0
    refutations = m["solver.refutations"]
    m["solver.nodes_per_refutation"] = m["refutation_nodes"] / refutations if refutations else 0.0
    m["parallel.enumerate_s"] = self_s["parallel.enumerate_parallel_classes"]
    m["parallel.analyze_self_s"] = self_s["parallel.analyze_parallel_classes"]
    m["transforms.s"] = layer_s["transforms"]
    m["transforms.calls"] = layer_calls["transforms"]
    m["core.design_s"] = self_s["core.Design"] + self_s["core.Grouping"]
    m["core.designs"] = calls["core.Design"] + calls["core.Grouping"]
    m["colouring.check_s"] = sum(self_s[f"colouring.{n}"] for n in checkers)
    m["colouring.check_calls"] = sum(calls[f"colouring.{n}"] for n in checkers)
    m["colouring.pairstats_s"] = sum(self_s[f"colouring.{n}"] for n in pairstats)
    m["packings.s"] = layer_s["packings"]
    m["td.s"] = layer_s["td"]
    m["td.calls"] = layer_calls["td"]
    m["fileio.parse_s"] = self_s["fileio.parse_design"] + self_s["fileio.parse_colouring"]
    m["fileio.render_s"] = self_s["fileio.render_design"] + self_s["fileio.render_colouring"]
    m["cli.self_s"] = self_s["cli.cli_main"]
    m["cli.commands"] = calls["cli.cli_main"]
    return {name: m[name] for name, *_ in METRICS if name not in ("catalog.get_s", "trace.overhead_s")}
