"""Benchmark of the designcolour command line, run in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload refute|classes|construct|all \
        --seed N --seconds S --trace 0|1

One client in a closed loop runs the workload's command batch through
`cli_main(argv, out=StringIO)` over and over for about S seconds, after
one untimed warm-up batch, and reports the batch time (see `batch_time`).
Every output is checked by the benchmark's own code outside the timed
region.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics: `wall_s`, `setup_s` and `peak_rss_mib`.  With
`--trace 1` the batches alternate between untraced and traced, and the
JSON carries the per-layer metrics of `tracing.METRICS`, including the
tracing overhead; the spans of the first traced batch are written to
`.bench_build/perfbench/`.  `--workload all` runs the three workloads one
after another, each in its own process, and prints one table.

The program is imported from `src/` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

import inputs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOAD_NAMES = ("refute", "classes", "construct")
SETUP_PROBES = 9
# the reference loop's time at the host speed that `wall_s` is scaled to
REF_S = 0.004
# Imports of stdlib packages the program does not use, timed in a fresh
# interpreter next to each set-up probe: the same kind of work (finding,
# unmarshalling and running modules), so it tracks how fast the host runs
# an import at that moment.  `setup_s` is scaled to the host speed at which
# this takes REF_IMPORT_S.
REF_IMPORT = (
    "import time; start = time.perf_counter(); "
    "import email.parser, http.client, xml.dom.minidom, decimal, json, csv, logging, "
    "tarfile, zipfile, unittest; print(time.perf_counter() - start)"
)
REF_IMPORT_S = 0.06


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _python(argv: list[str]) -> str:
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        fail(f"set-up probe failed:\n{proc.stderr}")
    return proc.stdout.splitlines()[-1]


def setup_probes(traced: bool) -> tuple[list[dict], list[float], int]:
    """Fresh-interpreter set-up measurements, one process at a time, each
    followed by the reference import (skipped when traced).

    A first, discarded round leaves the bytecode caches written, so every
    measured probe starts from the same state.  Returns the probe results,
    the reference-import times and the number of probes whose output was
    wrong.
    """
    want = inputs.design_text(21, inputs.canonical(inputs.STS21))
    argv = [str(HERE / "setup_probe.py"), str(SRC)] + (["--trace"] if traced else [])
    results, refs, failed = [], [], 0
    for i in range(SETUP_PROBES + 1):
        result = json.loads(_python(argv))
        if not Path(result["module"]).resolve().is_relative_to(SRC.resolve()):
            fail(f"imported the program from {result['module']}, not from {SRC}")
        ref = None if traced else float(_python(["-c", REF_IMPORT]))
        if i:
            results.append(result)
            refs.append(ref)
            failed += result["rc"] != 0 or result["out"] != want
    return results, refs, failed


def reference_loop() -> float:
    """Time of a fixed piece of interpreted work that never calls the
    program: counting 7-queens placements by backtracking, which exercises
    the calls, list indexing and small-int arithmetic that the program's
    searches spend their time on."""
    start = perf_counter()
    n = 7
    cols, up, down = [False] * n, [False] * (2 * n), [False] * (2 * n)

    def place(row: int) -> int:
        if row == n:
            return 1
        found = 0
        for col in range(n):
            if not (cols[col] or up[row + col] or down[row - col + n]):
                cols[col] = up[row + col] = down[row - col + n] = True
                found += place(row + 1)
                cols[col] = up[row + col] = down[row - col + n] = False
        return found

    for _ in range(8):
        place(0)
    return perf_counter() - start


def run_batch(steps, program, tracer=None) -> tuple[list[float], list[float], list]:
    """Runs every step once, each after one reference loop.  Returns the
    time of each step, the time of each reference loop, and the (exit code,
    stdout) of each step.  Nothing but a step runs inside its timed region."""
    times, refs, outputs = [], [], []
    cli = program.cli
    for command, step in enumerate(steps):
        refs.append(reference_loop())
        if tracer is not None:
            tracer.command = command
        start = perf_counter()
        try:
            if step.call is not None:
                rc, text = 0, step.call()
            else:
                out = io.StringIO()
                rc = cli.cli_main(step.argv, out=out)
                text = out.getvalue()
        except Exception as exc:  # a crash is a failed command, not a crashed run
            rc, text = None, f"{type(exc).__name__}: {exc}"
        times.append(perf_counter() - start)
        outputs.append((rc, text))
    return times, refs, outputs


def batch_time(batches: list[tuple[list[float], list[float]]]) -> float:
    """The batch's wall time at reference speed.

    The host is shared, and how fast it runs this process drifts by a
    third over tens of seconds.  Each batch's step times are scaled by
    REF_S over the median time of the reference loops run between its
    steps, which takes out most of the drift; the result is the sum over
    steps of each step's median scaled time over the batches, so a burst
    that hits fewer than half of the batches at a step does not move it.
    """
    scaled = [[t * REF_S / statistics.median(refs) for t in times] for times, refs in batches]
    return sum(statistics.median(step) for step in zip(*scaled))


def measure(args, program, workload) -> dict:
    """An untimed warm-up batch, checked in full, then timed batches until
    the time is up, each compared byte for byte with the warm-up."""
    steps = workload.steps
    reference = []
    for step in steps:
        _, _, (result,) = run_batch([step], program)
        if step.after is not None:
            step.after(*result)
        reference.append(result)
    failures = []
    for step, (rc, text) in zip(steps, reference):
        problems = step.check(rc, text)
        if problems:
            failures.append(f"{step.label}: {'; '.join(problems)}")
    attempted = len(steps)

    def compare(outputs) -> None:
        nonlocal attempted
        attempted += len(steps)
        for step, got, want in zip(steps, outputs, reference):
            if got != want:
                failures.append(f"{step.label}: output differs from the warm-up batch")

    untraced, traced, layer_runs = [], [], []
    deadline = perf_counter() + args.seconds
    while True:
        times, refs, outputs = run_batch(steps, program)
        compare(outputs)
        untraced.append((times, refs))
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                times, refs, outputs = run_batch(steps, program, tracer)
            finally:
                tracer.uninstall()
            compare(outputs)
            traced.append((times, refs))
            layer_runs.append(tracing.per_layer(tracer.spans))
            if len(layer_runs) == 1:
                tracer.write(BUILD / f"trace-{args.workload}-seed{args.seed}.jsonl")
        # start another round only if at least half of it fits in the time
        per_round = sum(untraced[-1][0]) + (sum(traced[-1][0]) if traced else 0.0)
        if perf_counter() + per_round / 2 > deadline:
            break
    for name in tracing.EXACT_COUNTS:
        if len({run[name] for run in layer_runs}) > 1:
            failures.append(f"{name} differs between traced batches")
    return {
        "untraced": untraced, "traced": traced, "layer_runs": layer_runs,
        "attempted": attempted, "failures": failures, "reference": reference,
    }


def import_program():
    sys.path.insert(0, str(SRC))
    import designcolour.cli
    import designcolour.colouring
    import designcolour.fileio

    return types.SimpleNamespace(
        cli=designcolour.cli, colouring=designcolour.colouring, fileio=designcolour.fileio
    )


def run_one(args) -> dict:
    if not (SRC / "designcolour" / "__init__.py").is_file():
        fail(f"no program source at {SRC / 'designcolour'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    probes, import_refs, probe_failures = setup_probes(bool(args.trace))
    program = import_program()
    workdir = BUILD / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, program)
        raw = measure(args, program, workload)
        inputs_digest = inputs.digest(
            [" ".join(s.argv or [s.label]).replace(str(workdir), "") for s in workload.steps]
            + [p.read_bytes() for p in workload.files]
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failures = raw["failures"]
    attempted = raw["attempted"] + len(probes)
    failed = len(failures) + probe_failures
    untraced = raw["untraced"]
    report = {
        "workload": args.workload, "seed": args.seed, "steps": len(workload.steps),
        "files": len(workload.files), "inputs_digest": inputs_digest,
        "outputs_digest": inputs.digest(f"{rc}\n{text}" for rc, text in raw["reference"]),
        "batches": len(untraced), "batch_s": [sum(times) for times, _ in untraced],
        "ref_ms": [1000 * statistics.median(refs) for _, refs in untraced],
        "failures": failures[:20],
        "correct": failed == 0, "attempted": attempted, "failed": failed,
    }
    if args.trace:
        metrics = {}
        runs = raw["layer_runs"]
        for name, unit, _, _ in tracing.METRICS:
            if name == "catalog.get_s":
                value = statistics.median(p["catalog.get_s"] for p in probes)
            elif name == "trace.overhead_s":
                value = batch_time(raw["traced"]) - batch_time(untraced)
            else:
                value = statistics.median(run[name] for run in runs)
            metrics[name] = {"value": value, "unit": unit}
        report["traced_batch_s"] = [sum(times) for times, _ in raw["traced"]]
    else:
        metrics = {
            "wall_s": {"value": batch_time(untraced), "unit": "s"},
            "setup_s": {
                "value": statistics.median(p["setup_s"] for p in probes)
                * REF_IMPORT_S / statistics.median(import_refs),
                "unit": "s",
            },
            "peak_rss_mib": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"
            },
        }
    report["metrics"] = metrics
    return report


def print_report(report: dict) -> None:
    print(f"workload: {report['workload']}  seed: {report['seed']}  steps: {report['steps']}"
          f"  files: {report['files']}  inputs digest: {report['inputs_digest']}"
          f"  outputs digest: {report['outputs_digest']}")
    print(f"batches: {report['batches']}  untraced batch times (s): "
          + " ".join(f"{t:.4f}" for t in report["batch_s"]))
    print("median reference loop per batch (ms): " + " ".join(f"{t:.3f}" for t in report["ref_ms"]))
    if "traced_batch_s" in report:
        print("traced batch times (s): " + " ".join(f"{t:.4f}" for t in report["traced_batch_s"]))
    for failure in report["failures"]:
        print(f"FAILED {failure}")
    moves = {name: f"  (should move: {target})" for name, _, _, target in tracing.METRICS}
    width = max(len(name) for name in report["metrics"])
    for name, m in report["metrics"].items():
        print(f"{name:<{width}}  {m['value']:.6g} {m['unit']}{moves.get(name, '')}")
    error_rate = report["failed"] / report["attempted"]
    print(f"{'error_rate':<{width}}  {error_rate:.6g} ratio"
          f"  ({report['failed']} failed of {report['attempted']} attempted)")


def run_all(args) -> None:
    """Each workload in its own process, one at a time."""
    reports = []
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(proc.returncode)
        reports.append((name, json.loads(proc.stdout.splitlines()[-1])))
    metrics = {f"{name}.{key}": m for name, r in reports for key, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for _, r in reports),
        "attempted": sum(r["attempted"] for _, r in reports),
        "failed": sum(r["failed"] for _, r in reports),
        "metrics": metrics,
    }))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        run_all(args)
        return
    report = run_one(args)
    print_report(report)
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"], "metrics": report["metrics"],
    }))


if __name__ == "__main__":
    main()
