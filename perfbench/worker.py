"""Benchmark worker: one fresh process per pass over a workload's op list.

Run by run.py as `python3 -E -s perfbench/worker.py`.  The worker imports
`sscurves.cli` from the checkout's `src/`, prints {"ready": true} and reads
one JSON request from stdin:

    {"exit": true}                       set-up probe: leave at once
    {"ops": [{"id", "argv", "cap"}, ...], "budget_s": s,
     "trace": path or null, "kernels": bool}

It then runs the ops one at a time through `cli.main(argv)`, with standard
output and error captured, and prints one JSON line per op followed by
{"done": true, "wall_s", "maxrss_kb"}.  An op that runs past its cap, or
past what is left of `budget_s`, is interrupted by SIGALRM and reported as
timed out.  With "trace" the public functions are wrapped by spans.Tracer
and the spans are written to that path as JSON lines; with "kernels" the
field micro-kernels of kernels.py run after the ops.
"""

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_op(main, argv, limit):
    """(exit code or None, seconds, stdout, stderr, timed_out) of one op."""
    out, err = io.StringIO(), io.StringIO()
    rc = None
    timed_out = False
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        if limit <= 0:
            raise OpTimeout()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as ex:
                    rc = ex.code if isinstance(ex.code, int) else 2
                except Exception:
                    err.write(traceback.format_exc())
                    rc = "exception"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        timed_out = True
        rc = None
    seconds = time.perf_counter() - t0
    signal.signal(signal.SIGALRM, previous)
    return rc, seconds, out.getvalue(), err.getvalue(), timed_out


def _emit(stream, obj):
    stream.write(json.dumps(obj) + "\n")
    stream.flush()


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    import sscurves.cli
    if not Path(sscurves.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit("sscurves was not imported from this checkout")
    proto = sys.stdout
    _emit(proto, {"ready": True})
    request = json.loads(sys.stdin.readline() or '{"exit": true}')
    if request.get("exit"):
        return 0
    tracer = None
    if request.get("trace"):
        import spans
        tracer = spans.Tracer()
        tracer.install()
    main_fn = sscurves.cli.main
    budget = request.get("budget_s", float("inf"))
    t_first = time.perf_counter()
    for op in request["ops"]:
        if tracer is not None:
            tracer.op = op["id"]
        limit = min(op["cap"], budget - (time.perf_counter() - t_first))
        rc, seconds, out, err, timed_out = run_op(main_fn, op["argv"], limit)
        _emit(proto, {"id": op["id"], "rc": rc, "seconds": seconds,
                      "stdout": out, "stderr": err[-4000:],
                      "timed_out": timed_out})
    wall = time.perf_counter() - t_first
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        tracer.write(request["trace"])
    kernels = None
    if request.get("kernels"):
        import kernels as kernel_mod
        kernels = kernel_mod.run()
    _emit(proto, {"done": True, "wall_s": wall, "maxrss_kb": maxrss,
                  "kernels": kernels})
    return 0


if __name__ == "__main__":
    sys.exit(main())
