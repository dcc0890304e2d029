"""One benchmarked CLI process: import gupmech.cli, run one command, record timings.

Usage: python3 child.py RECORD TRACE RUN_ID COMMAND [ARGS...]

The report goes to stdout as the CLI prints it. RECORD receives a JSON
object with setup_s (the import of gupmech.cli, numpy and mpmath
included), main_s (the cli.main call) and, when TRACE is 1, the spans.
The exit code is the CLI's.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    import gupmech.cli
    imported = time.perf_counter()

    import json

    record_path, trace, run_id, *argv = sys.argv[1:]
    tracer = None
    if trace == "1":
        from spans import Tracer
        tracer = Tracer(run_id)
        tracer.install()
    begin = time.perf_counter()
    code = gupmech.cli.main(argv)
    end = time.perf_counter()
    sys.stdout.flush()
    record = {"setup_s": imported - started, "main_s": end - begin}
    if tracer is not None:
        record["trace"] = tracer.dump()
    with open(record_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    sys.exit(code)
