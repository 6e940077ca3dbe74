"""The three workloads: seeded inputs written to files, and the command
batch each one runs in-process through the program's `cli_main`.

A batch is a list of steps.  A step is one user command (an argv for
`cli_main`) or one library call, with the exit code and stdout it must give
checked by `checks`.  The program sees only the files and the argv, never
the seed.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import inputs


@dataclass
class Step:
    label: str
    argv: Optional[list[str]]
    check: Callable[[Optional[int], str], list[str]]
    call: Optional[Callable[[], str]] = None
    # runs after the step in the untimed warm-up batch only, with its
    # exit code and stdout; writes the files later steps read
    after: Optional[Callable[[Optional[int], str], None]] = None


@dataclass
class Workload:
    steps: list[Step]
    files: list[Path]


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def refute(seed: int, workdir: Path, program) -> Workload:
    rng = random.Random(f"refute:{seed}")
    steps, files = [], []
    for i in range(inputs.N_RELABELLINGS):
        blocks = inputs.relabel(inputs.STS21, rng, 21)
        if not inputs.is_sts(21, blocks):
            raise AssertionError("relabelled STS(21) is not an STS")
        path = _write(workdir / f"sts21_r{i:02d}.txt", inputs.design_text(21, blocks))
        files.append(path)
        steps.append(Step(f"chromatic r{i:02d}", ["chromatic", str(path)], checks.chromatic(blocks)))
    return Workload(steps, files)


def classes(seed: int, workdir: Path, program) -> Workload:
    rng = random.Random(f"classes:{seed}")
    stored = inputs.canonical(inputs.STS21)
    systems = [("stored", stored, inputs.parallel_classes(stored))]
    switched_classes = 0
    while switched_classes < inputs.CLASS_TOTAL:
        blocks = inputs.switched_sts21(rng)
        found = inputs.parallel_classes(blocks)
        systems.append((f"s{len(systems) - 1:02d}", blocks, found))
        switched_classes += len(found)
    steps, files = [], []
    for name, blocks, found in systems:
        if not inputs.is_sts(21, blocks):
            raise AssertionError(f"generated system {name} is not an STS(21)")
        path = _write(workdir / f"sts21_{name}.txt", inputs.design_text(21, blocks))
        files.append(path)
        steps.append(Step(f"pclasses {name}", ["pclasses", str(path)], checks.pclasses_list(blocks, found)))
        steps.append(Step(
            f"pclasses --analyze {name}",
            ["pclasses", str(path), "--analyze", "--csv", "--jobs", "1"],
            checks.pclasses_analyze(len(found), name == "stored"),
        ))
    return Workload(steps, files)


def construct(seed: int, workdir: Path, program) -> Workload:
    """Per order: `construct pack-max v`, `verify` of its output, the pair
    counts of its colouring, and `verify` of a corrupted copy.  The files
    the last three read are written from the construct output during the
    warm-up batch."""
    rng = random.Random(f"construct:{seed}")
    steps, files = [], []
    verify = ["--as", "packing", "--mode", "block-eq"]
    for v in inputs.construct_orders(rng):
        good, bad = workdir / f"pack{v}.txt", workdir / f"pack{v}_corrupt.txt"
        files += [good, bad]
        state: dict = {}

        def after(rc, text, v=v, good=good, bad=bad, state=state) -> None:
            _, blocks, colours = inputs.parse_design_text(text)
            corrupt_rng = random.Random(f"construct:{seed}:{v}")
            bad_blocks, bad_colours = inputs.corrupt(v, blocks, colours, corrupt_rng)
            state["good"] = checks.verify_report(v, blocks, colours)
            state["bad"] = checks.verify_report(v, bad_blocks, bad_colours)
            if state["bad"][0] != 2:
                raise AssertionError(f"corrupted copy of pack{v} passes validation")
            _write(good, text)
            _write(bad, inputs.design_text(v, bad_blocks, bad_colours))
            state["colours"] = colours
            state["design"], _, state["colouring"] = program.fileio.parse_design(text)

        def mono_pairs(state=state) -> str:
            stats = program.colouring.count_monochrome_cross_pairs(state["design"], state["colouring"])
            return f"{stats.nm} {stats.m}"

        steps += [
            Step(f"construct pack-max {v}", ["construct", "pack-max", str(v)], checks.pack_max(v),
                 after=after),
            Step(f"verify pack{v}", ["verify", str(good), *verify],
                 lambda rc, out, state=state: checks.verify(*state["good"])(rc, out)),
            Step(f"count_monochrome_cross_pairs {v}", None,
                 lambda rc, out, v=v, state=state: checks.mono_pairs(v, state["colours"])(rc, out),
                 call=mono_pairs),
            Step(f"verify pack{v}_corrupt", ["verify", str(bad), *verify],
                 lambda rc, out, state=state: checks.verify(*state["bad"])(rc, out)),
        ]
    return Workload(steps, files)


WORKLOADS = {"refute": refute, "classes": classes, "construct": construct}
