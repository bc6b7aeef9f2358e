"""Run one ``oak`` command under the tracer, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/cli_child.py <trace.json> <oak args...>

Behaves like ``python3 -m oak.cli <oak args...>`` (same output, exit code
and tracebacks) and also writes the tracer's summary and spans to
<trace.json>: the import of oak.cli as one span, then every wrapped call.
"""

import time

STARTED = time.perf_counter()  # perf_counter is one system-wide clock on Linux

import json  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli", "cli.import"):
        import oak.cli
    tracer.install()
    try:
        code = oak.cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary["spans"] = tracer.spans
        summary["clock"] = {"started": STARTED, "ended": time.perf_counter()}
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
