"""The sscurves benchmark: closed-loop passes over a workload's ops via the CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  One client runs one op at a time (a closed loop, no
threads), each pass over the op list in a fresh worker process (worker.py).
A run makes --seconds / pass_s passes (at least one), where pass_s is the
workload's nominal pass time on a 2-CPU Xeon: a fixed amount of work, so two
commits are measured on the same number of samples.  Inputs are
built into perfbench/_work/<workload>-<seed>/ from the seed.  Every op's
output is checked (checker.py); a per-op time row and every end-to-end
metric are printed, and the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics: wall_s (one pass, interpreter
start excluded; median over passes), setup_s (spawn until sscurves.cli is
imported; median over every spawn of the run), op_p50_s and op_tail_s
(pooled op latencies), and peak_rss_mb (worker peak resident memory;
median over passes).  failed_ops and exact_genus_share are printed too.
--trace 1 alternates untraced and traced passes (half as many of each)
and reports the per-layer metrics of spans.summarize(), the field
micro-kernels of kernels.py and trace.overhead_s, the traced minus the
untraced wall_s.
"""

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import ops as ops_mod  # noqa: E402
import spans  # noqa: E402

RUN_LIMIT_S = 160.0     # op budget of a whole run; the run must end in 180 s
READY_TIMEOUT_S = 60.0
GRACE_S = 15.0          # beyond the op budget before a worker is killed
KERNEL_TIMEOUT_S = 60.0
SETUP_PROBES = 4        # extra spawns per run, for the setup_s median
TAIL_BEYOND = 10


class WorkerError(RuntimeError):
    """The worker died, or sent nothing before its deadline."""


class Worker:
    """One worker process speaking JSON lines over its stdin and stdout."""

    def __init__(self, cwd, log):
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("SSCURVES_")}
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-E", "-s", str(HERE / "worker.py")],
            cwd=cwd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=log, env=env)
        self._buf = bytearray()
        self.ready_s = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if exc_type is not None:
            self.proc.kill()
        self.close()

    def wait_ready(self):
        if not self.read(READY_TIMEOUT_S).get("ready"):
            raise WorkerError("worker did not report ready")
        self.ready_s = time.perf_counter() - self.t_spawn

    def send(self, obj):
        self.proc.stdin.write((json.dumps(obj) + "\n").encode())
        self.proc.stdin.flush()

    def read(self, timeout):
        deadline = time.monotonic() + timeout
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise WorkerError("worker sent nothing for %.0f s" % timeout)
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerError("worker exited (code %s)" % self.proc.wait())
            self._buf += chunk
        line, _, rest = bytes(self._buf).partition(b"\n")
        self._buf = bytearray(rest)
        return json.loads(line)

    def close(self):
        try:
            self.proc.stdin.close()
        except OSError:     # the worker is already gone
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Run:
    """State of one benchmark run: work directory, expectations, deadline."""

    def __init__(self, seed, work, limit=RUN_LIMIT_S, expected=None):
        self.seed = seed
        self.work = work
        self.expected = (checker.load_expected() if expected is None
                         else expected)
        self.deadline = time.monotonic() + limit
        self.log = open(work / "worker-stderr.log", "ab")
        self.setup_samples = []

    def close(self):
        self.log.close()

    def budget(self):
        return self.deadline - time.monotonic()

    def spawn(self):
        worker = Worker(self.work, self.log)
        try:
            worker.wait_ready()
        except BaseException:
            worker.proc.kill()
            worker.close()
            raise
        return worker

    def probe_setup(self):
        with self.spawn() as worker:
            self.setup_samples.append(worker.ready_s)
            worker.send({"exit": True})

    def run_pass(self, op_list, trace_path=None, kernels=False,
                 record_setup=True):
        """Results of one pass in a fresh worker, in op_list order."""
        budget = max(0.0, self.budget())
        request = {"ops": [{"id": op.id, "argv": op.command(self.work),
                            "cap": op.cap} for op in op_list],
                   "budget_s": budget,
                   "trace": str(trace_path) if trace_path else None,
                   "kernels": kernels}
        results = []
        done = {}
        t0 = time.perf_counter()
        with self.spawn() as worker:
            if record_setup:
                self.setup_samples.append(worker.ready_s)
            worker.send(request)
            limit = time.monotonic() + budget + GRACE_S
            if kernels:
                limit += KERNEL_TIMEOUT_S
            try:
                while True:
                    msg = worker.read(limit - time.monotonic())
                    if msg.get("done"):
                        done = msg
                        break
                    results.append(msg)
            except WorkerError as ex:
                print("worker: %s" % ex, flush=True)
                worker.proc.kill()
        for op in op_list[len(results):]:
            results.append({"id": op.id, "rc": None, "seconds": 0.0,
                            "stdout": "", "stderr": "worker lost",
                            "timed_out": True})
        return {"results": results,
                "wall_s": done.get("wall_s", time.perf_counter() - t0),
                "maxrss_kb": done.get("maxrss_kb", 0),
                "kernels": done.get("kernels")}


def input_ops(workload):
    """`construct --out` ops that write the workload's curve files."""
    return [ops_mod.Op("input." + name,
                       tuple(ops_mod.CURVES[name])
                       + ("--json", "--out", "{w}/%s.json" % name),
                       "input file")
            for name in workload.curves]


def build_inputs(run, workload):
    """Write the seeded files, then construct and check the curve files."""
    ops_mod.write_seeded_inputs(workload.name, run.seed, run.work)
    construct = input_ops(workload)
    result = run.run_pass(construct, record_setup=False)
    for op, res in zip(construct, result["results"]):
        reason = ("timed out" if res["timed_out"]
                  else checker.check(op, res, run.expected))
        if reason:
            raise SystemExit("input %s: %s" % (op.id, reason))


def judge(op, res, expected):
    """(failed, wrong output reason) of one op result."""
    if res["timed_out"]:
        return True, None
    reason = checker.check(op, res, expected)
    return reason is not None, reason


def exact_genus(res):
    """Genus covered by the pieces of a verify report with a counted verdict."""
    doc = json.loads(res["stdout"])
    return sum(p.get("genus", 0) for p in doc.get("pieces", [])
               if str(p.get("mode", "")).startswith("numeric")
               and p.get("supersingular") in (True, False))


def tail(samples):
    """(value, percentile, samples beyond) at the highest percentile that
    has at least TAIL_BEYOND samples beyond it; the maximum when none has."""
    xs = sorted(samples)
    n = len(xs)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def machine():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version()}


def summarize_passes(workload, passes, expected, out):
    """End-to-end metrics of untraced passes; prints per-op rows to out."""
    rows = {op.id: [] for op in workload.ops}    # (seconds, failed, reason)
    latencies = []
    failed = wrong = genus_total = genus_exact = 0
    for p in passes:
        for op, res in zip(workload.ops, p["results"]):
            f, reason = judge(op, res, expected)
            rows[op.id].append((res["seconds"], f, reason))
            latencies.append(res["seconds"])
            failed += f
            wrong += reason is not None
            if op.check in ("verify", "member"):
                genus_total += op.genus
                genus_exact += 0 if f else exact_genus(res)
    for op in workload.ops:
        times = [t for t, _, _ in rows[op.id]]
        fails = sum(f for _, f, _ in rows[op.id])
        notes = sorted({r for _, _, r in rows[op.id] if r})
        if fails > len(notes):
            notes.insert(0, "hit the %g s cap" % op.cap)
        out.append("op %-36s median %.4f s  min %.4f  max %.4f  n %d  "
                   "failed %d%s  # %s"
                   % (op.id, statistics.median(times), min(times), max(times),
                      len(times), fails,
                      "  (%s)" % "; ".join(notes) if notes else "", op.why))
    out.append("pass wall_s: %s" % " ".join("%.4f" % p["wall_s"] for p in passes))
    value, pct, beyond = tail(latencies)
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": value,
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "samples": len(latencies),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
        "failed_ops": failed / len(latencies),
        "failed": failed,
        "wrong": wrong,
        "attempted": len(latencies),
        "exact_genus_share": (genus_exact / genus_total if genus_total
                              else None),
    }


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_s": "s",
                    "op_tail_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"field.mul_ns.d8": "ns", "field.mul_ns.d20": "ns",
                   "field.mul_ns.d24": "ns", "field.mul_ns.d64": "ns",
                   "field.pow_us.d24": "us", "trace.overhead_s": "s",
                   "zeta.points_per_s": "1/s", "jsonio.bytes_out": "bytes"}


def layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def run_workload(workload, seed, seconds, trace, out):
    work = HERE / "_work" / ("%s-%d" % (workload.name, seed))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(seed, work)
    try:
        build_inputs(run, workload)
        for _ in range(SETUP_PROBES):
            run.probe_setup()
        plain, traced = [], []
        # A traced run makes half as many pass pairs, so that it takes
        # about as long as an untraced one.
        for i in range(max(1, round(seconds / workload.pass_s
                                    / (2 if trace else 1)))):
            plain.append(run.run_pass(workload.ops))
            if trace:
                path = work / ("spans-%d.jsonl" % i)
                traced.append(run.run_pass(workload.ops, trace_path=path,
                                           record_setup=False))
                traced[-1]["spans"] = path
        kernels = None
        if trace:
            kernels = run.run_pass((), kernels=True,
                                   record_setup=False)["kernels"]
    finally:
        run.close()

    info = machine()
    out.append("machine: %s, nproc %d, Python %s"
               % (info["cpu"], info["nproc"], info["python"]))
    out.append("workload %s, seed %d: %d untraced pass(es) of %d ops%s  # %s"
               % (workload.name, seed, len(plain), len(workload.ops),
                  ", %d traced" % len(traced) if trace else "", workload.why))
    e2e = summarize_passes(workload, plain, run.expected, out)
    e2e["setup_s"] = statistics.median(run.setup_samples)
    out.append("wall_s %.4f s" % e2e["wall_s"])
    out.append("setup_s %.4f s (median of %d spawns)"
               % (e2e["setup_s"], len(run.setup_samples)))
    out.append("op_p50_s %.4f s" % e2e["op_p50_s"])
    out.append("op_tail_s %.4f s (p%.1f of %d samples, %d beyond)"
               % (e2e["op_tail_s"], e2e["tail_percentile"], e2e["samples"],
                  e2e["tail_beyond"]))
    out.append("failed_ops %.4f share (%d of %d)"
               % (e2e["failed_ops"], e2e["failed"], e2e["attempted"]))
    out.append("peak_rss_mb %.1f MB" % e2e["peak_rss_mb"])
    share = e2e["exact_genus_share"]
    out.append("exact_genus_share %s" % ("n/a (no verify ops)" if share is None
                                         else "%.4f share" % share))
    attempted, failed, wrong = e2e["attempted"], e2e["failed"], e2e["wrong"]

    if not trace:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    else:
        t = summarize_passes(workload, traced, run.expected, [])
        attempted += t["attempted"]
        failed += t["failed"]
        wrong += t["wrong"]
        layers = [spans.summarize(spans.read(p["spans"])) for p in traced]
        values = {k: statistics.median(d[k] for d in layers)
                  for k in layers[0]}
        values.update(kernels or {})
        values["trace.overhead_s"] = t["wall_s"] - e2e["wall_s"]
        for k, v in values.items():
            out.append("%s %r %s" % (k, v, layer_unit(k)))
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ops_mod.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sscurves" / "cli.py").is_file():
        print("no sscurves sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    out = []
    try:
        result = run_workload(ops_mod.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace), out)
    except WorkerError as ex:
        print("\n".join(out), flush=True)
        print("benchmark failed: %s" % ex, file=sys.stderr)
        return 1
    print("\n".join(out))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
