"""Run one tropcur command line under the benchmark's tracer.

    python3 perfbench/launch.py SPANS.json <tropcur command-line arguments>

Imports ``tropcur.cli`` as ``python -m tropcur.cli`` would, installs the
outside-in wrappers, calls ``tropcur.cli.main`` with the arguments, writes
the trace summary and spans to SPANS.json and exits with the command's exit
code.  The summary's ``tracer_s`` is the time spent installing the wrappers
and serialising the spans, which the benchmark takes out of the command's
start-up time.  The program's own import comes before that clock starts, so
it stays part of the start-up time.
"""

import sys
import time

from tropcur import cli

import tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    tr = tracer.Tracer()
    tracer.install(tr)
    installed = time.perf_counter() - t0
    try:
        return cli.main(argv)
    finally:
        tr.dump(spans_path, overhead_s=installed)


if __name__ == "__main__":
    sys.exit(main())
