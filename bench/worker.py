"""One pass over one workload's cases, in a fresh interpreter.

    python3 bench/worker.py --workload module [--trace-out F]
    python3 bench/worker.py --workload module --setup-only

The worker imports fflv from the `src` directory next to `bench`, builds the
case list and notes the moment it is ready (CLOCK_MONOTONIC, which the parent
shares).  It then calls `fflv.cli.main` once per case, one after another,
capturing stdout and stderr in memory.  After each case it writes one JSON
line to its own stdout: the exit code, the seconds `main` took and the
captured text.  The last line gives the ready time, the peak resident memory
and, with `--trace-out`, the span summary; the spans themselves go to that
file.  Case timing excludes the capture bookkeeping and the JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import fflv.cli

    if Path(fflv.__file__).resolve().parent != SRC / "fflv":
        print(f"fflv imported from {fflv.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    from cases import WORKLOADS

    argvs = [list(case.argv) for case in WORKLOADS[args.workload]]
    ready_ns = time.monotonic_ns()
    out = sys.stdout
    if args.setup_only:
        print(json.dumps({"ready_ns": ready_ns}), file=out)
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    for k, argv in enumerate(argvs):
        if tracer is not None:
            tracer.case = k
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                rc = fflv.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                rc = None
                traceback.print_exc()
            seconds = time.perf_counter() - t0
        print(json.dumps({"case": k, "rc": rc, "seconds": seconds,
                          "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}), file=out)
        out.flush()
        del stdout, stderr

    final = {"ready_ns": ready_ns,
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        final["trace"] = tracer.summary()
        tracer.write(args.trace_out)
    print(json.dumps(final), file=out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
