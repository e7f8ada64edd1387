"""Run degenbell CLI commands in one interpreter, on request.

    python3 perfbench/worker.py [--trace]

Reads one JSON list of CLI arguments per line on standard input, runs
`degenbell.cli.main(args)` with its standard output and error captured,
and answers each with one JSON line {"seconds", "yard", "out", "err",
"status"} on standard output; `seconds` is the wall time of the call
alone and `yard` the mean of the yardsticks timed just before and just
after it, in this process.  With
`--trace`, spans are installed before the first command and their
statistics follow as one last JSON line once standard input ends.  The
CLI is imported before the first command, so start-up is in no
command's time (the benchmark's `setup_s` measures it).  The process
imports only degenbell, the standard library, `yardstick` and, with
`--trace`, `tracing`, so its peak resident set is the program's.
"""

import contextlib
import io
import json
import sys
from time import perf_counter

import degenbell.cli

from yardstick import yardstick


def run(args: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    yard = yardstick()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = degenbell.cli.main(args)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a traceback is a failed command, not a dead worker
            err.write(f"{type(exc).__name__}: {exc}")
            status = -1
    seconds = perf_counter() - start
    yard = (yard + yardstick()) / 2
    return {"seconds": seconds, "yard": yard, "out": out.getvalue(), "err": err.getvalue(), "status": status}


def main() -> int:
    tracer = None
    if sys.argv[1:] == ["--trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    if tracer is not None:
        print(json.dumps(tracer.stats()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
