"""Set-up time of one CLI invocation, measured in a fresh interpreter.

Usage: python3 setup_probe.py <program src dir> [--trace]

Times from before `import designcolour` until
`cli_main(["catalog", "get", "sts21"])` returns: the import, argparse
set-up and the first catalog validation, which every invocation pays.
Prints one JSON line with the time and the command's output.  With
`--trace`, spans are recorded from just after the import, and the line
also carries the total time spent in `catalog_get`.
"""
import io
import json
import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
traced = "--trace" in sys.argv[2:]

start = perf_counter()
import designcolour.cli  # noqa: E402

if traced:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
out = io.StringIO()
rc = designcolour.cli.cli_main(["catalog", "get", "sts21"], out=out)
setup_s = perf_counter() - start

result = {"setup_s": setup_s, "rc": rc, "out": out.getvalue(), "module": designcolour.__file__}
if traced:
    result["catalog.get_s"] = sum(
        end - begin for name, _, _, begin, end, _ in tracer.spans if name == "catalog.catalog_get"
    )
print(json.dumps(result))
