"""Traced serving replica: install the benchmark's wrappers, then run the CLI.

    python perfbench/serve_launcher.py --trace-out trace.npz --store store --port 0

Everything after ``--trace-out <path>`` goes to ``repro.serve.__main__.main``
unchanged, so a traced replica has the same process layout as
``python -m repro.serve``.  Spans stay in memory until the replica stops
(SIGINT or SIGTERM) and are then written to the ``--trace-out`` file.
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--trace-out":
        print("usage: serve_launcher.py --trace-out <path> <repro.serve arguments>", file=sys.stderr)
        return 2
    trace_out, serve_argv = Path(argv[1]), argv[2:]
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"

    from tracing import Tracer, install_wrappers

    import repro.serve.__main__ as serve_main

    tracer = Tracer()
    install_wrappers(tracer)
    # SIGTERM stops the replica the same way SIGINT does.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        return serve_main.main(serve_argv)
    finally:
        tracer.save(trace_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
