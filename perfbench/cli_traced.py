"""The `edgeideals` CLI with the layer tracer installed (cli-small, traced).

Usage: python3 perfbench/cli_traced.py SUMMARY.json CLI-ARGS...

Times the import of `edgeideals.cli`, wraps every layer (the `cli` module
included), runs the CLI's `main` on CLI-ARGS and writes the tracer's
aggregates and kept spans to SUMMARY.json.  Exit code, stdout and stderr
are the CLI's own, tracebacks included.
"""

import sys
import time

t0 = time.perf_counter()
import edgeideals.cli  # noqa: E402
import_ms = (time.perf_counter() - t0) * 1e3

import json  # noqa: E402

from tracer import Tracer  # noqa: E402


def write_summary(path, tracer):
    summary = dict(tracer.summary(), import_ms=import_ms,
                   span_lines=["%d %d %.9f %.9f %d" % span
                               for span in tracer.spans])
    with open(path, "w") as fh:
        json.dump(summary, fh)


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return edgeideals.cli.main(argv)
    finally:
        tracer.enabled = False
        write_summary(path, tracer)


if __name__ == "__main__":
    sys.exit(main())
