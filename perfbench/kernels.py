"""Field micro-kernels timed on a fixed seeded operand batch.

Degrees 8 and 20 take the exp/log table path of BinaryField.mul; degrees 24
and 64 are above the table limit and take shift-and-add multiplication, and
pow at degree 24 is square-and-multiply on that path.  The batch does not
depend on the workload seed, so the figures compare across runs and
workloads.  Each figure is the median over REPEATS timings of the batch.
"""

import random
import statistics
import time

from sscurves import make_field

MUL_BATCH = 20000
POW_BATCH = 500
REPEATS = 5
SEED = 20240221


def _median_time(fn, args):
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for a, b in args:
            fn(a, b)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def mul_ns(degree):
    F = make_field(degree)
    F.ensure_tables()   # built outside the timed region; False above 20
    rng = random.Random(SEED + degree)
    pairs = [(rng.randrange(1, F.order), rng.randrange(1, F.order))
             for _ in range(MUL_BATCH)]
    return _median_time(F.mul, pairs) / MUL_BATCH * 1e9


def pow_us(degree):
    F = make_field(degree)
    rng = random.Random(SEED + degree)
    pairs = [(rng.randrange(1, F.order), rng.randrange(1, F.order))
             for _ in range(POW_BATCH)]
    return _median_time(F.pow, pairs) / POW_BATCH * 1e6


def run():
    """{metric name: value} of every micro-kernel."""
    out = {"field.mul_ns.d%d" % d: mul_ns(d) for d in (8, 20, 24, 64)}
    out["field.pow_us.d24"] = pow_us(24)
    return out
