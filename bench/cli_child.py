"""Runs `mrcodes.cli.main` as a benchmark child process.

Usage: python3 bench/cli_child.py <mrcodes CLI arguments>

Without the variables below this behaves like `python -m mrcodes.cli` run
against this checkout's src/.  MRBENCH_TRACE_OUT=<file> traces the run and
writes its spans there; MRBENCH_TAG labels those spans; MRBENCH_FAULT=<name>
injects one of the faults in faults.py.
"""

import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import mrcodes.cli  # noqa: E402


def main() -> int:
    trace_out = os.environ.get("MRBENCH_TRACE_OUT")
    fault = os.environ.get("MRBENCH_FAULT")
    tracer = None
    if trace_out or fault:
        import faults
        import tracer as tracing
        if fault:
            faults.inject(fault)
        if trace_out:
            tracer = tracing.Tracer()
            tracer.set_tag(os.environ.get("MRBENCH_TAG"))
            tracer.install()
    main_ns = time.perf_counter_ns()
    try:
        return mrcodes.cli.main(sys.argv[1:])
    finally:
        if tracer is not None:
            doc = tracer.dump()
            doc["main_ns"] = main_ns
            Path(trace_out).write_text(json.dumps(doc))


if __name__ == "__main__":
    sys.exit(main())
