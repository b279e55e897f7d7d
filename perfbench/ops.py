"""Workloads of the sscurves benchmark: their ops, why each was chosen, and inputs.

Every op is one invocation of the `sscurves` command line, run in-process by
a worker (see worker.py) and identified by a stable id such as
`verify.g18_f2`, so that a later change can point at a single op.  Inputs
are files written into the run's work directory: curve files come from the
program's own `construct --out` (checked byte for byte against
expected.json), seeded files are generated here from the workload seed.
"""

import json
import random
from dataclasses import dataclass

# Per-op wall caps in seconds.  Outside `capacity` the cap only guards
# against hangs: the slowest op (verify.g63_f2m) takes about 12 s on a
# 2-CPU Xeon.  The capacity cap is what the cliffs are measured against.
OP_CAP_S = 60.0
CAPACITY_CAP_S = 10.0

# Canonical (smallest bit pattern) moduli of the small fields the seeded
# inputs live over; the program chooses the same ones.
MODULI = {1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25}

# Curve files built by `construct --out` before the ops run: name -> argv.
CURVES = {
    "g18_f2": ["construct", "--mode", "f2", "18"],
    "g19_f2": ["construct", "--mode", "f2", "19"],
    "g63_f2m": ["construct", "--mode", "f2m", "63"],
    "g30_f2m": ["construct", "--mode", "f2m", "30"],
    "g30_f2m_glued": ["construct", "--mode", "f2m", "--glue", "30"],
    "g1000_f2m": ["construct", "--mode", "f2m", "1000"],
    "g221_f2": ["construct", "--mode", "f2", "221"],
    "g223_f2": ["construct", "--mode", "f2", "223"],
}

# Genera of the structure workload: alpha-space ambient degrees 1 to 14.
STRUCTURE_GENERA = (30, 63, 95, 127, 221, 255, 383, 511, 1000, 1023, 4096)
for _g in STRUCTURE_GENERA:
    CURVES.setdefault("g%d_f2" % _g, ["construct", "--mode", "f2", str(_g)])

# Seeded hyperelliptic members y^2+y = x R(x): (id, field degree, 2-degree h).
MEMBERS = (("member_f4_h4", 2, 4), ("member_f32_h2", 5, 2))
# Seeded radical inputs (field degree, h).  The splitting field of e_poly(R)
# has degree at most deg * (2^(2h) - 1) <= 64, so no seed hits the cap.
RADICALS = ((2, 1), (2, 2), (1, 3), (3, 2))
# Seeded iso pairs (R, scaling_orbit(R, rho)): (field degree, h).
ISO_PAIRS = ((2, 1), (3, 2), (4, 3), (4, 2))


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `argv` may name work-directory files as {w}/..."""

    id: str
    argv: tuple
    why: str
    check: str = "bytes"    # bytes | verify | member | radical | iso
    genus: int = 0          # genus of a verify op (for exact_genus_share)
    h: int = 0              # 2-degree of a seeded R
    cap: float = OP_CAP_S
    expect: str = None      # id whose recording this op is checked against

    def command(self, work):
        return [a.replace("{w}", str(work)) for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    curves: tuple           # CURVES entries this workload reads
    ops: tuple
    pass_s: float           # nominal seconds of one pass (sets pass count)


def _single_block(g):
    odd = g // (g & -g)
    return (odd + 1) & odd == 0


def _verify_ops():
    return (
        Op("verify.g18_f2", ("verify", "--json", "{w}/g18_f2.json"),
           "single-equation kernel; its series reaches F_2^20, the largest "
           "field with exp/log tables", "verify", 18),
        Op("verify.g63_f2m", ("verify", "--json", "{w}/g63_f2m.json"),
           "63 genus-1 pieces over F_64: the Artin-Schreier kernel, the "
           "bulk of the verify profile", "verify", 63),
        Op("verify.g30_f2m_glued",
           ("verify", "--json", "{w}/g30_f2m_glued.json"),
           "the glued single equation over F_16 (acceptance c02)",
           "verify", 30),
        Op("verify.g1000_f2m", ("verify", "--json", "{w}/g1000_f2m.json"),
           "fibre product whose pieces mix numeric and certified verdicts",
           "verify", 1000),
        Op("verify.g221_f2_b14",
           ("verify", "--json", "--budget-log2", "14", "{w}/g221_f2.json"),
           "the pieces route of acceptance c10 under a small budget",
           "verify", 221),
        Op("verify.count_g30_f2m_ext5",
           ("count", "{w}/g30_f2m.json", "--ext", "5"),
           "the fibre-product kernel over F_2^20"),
    ) + tuple(
        Op("verify." + name, ("verify", "--json", "{w}/%s.json" % name),
           "seeded member with nonzero coefficients over F_%d, 2-degree %d: "
           "cost does not depend on the seed" % (1 << deg, h),
           "member", 1 << (h - 1), h)
        for name, deg, h in MEMBERS)


def _structure_ops():
    ops = []
    for g in STRUCTURE_GENERA:
        f = "{w}/g%d_f2.json" % g
        ops.append(Op("structure.construct_f2_g%d" % g,
                      ("construct", "--mode", "f2", str(g), "--json",
                       "--out", "{w}/out_g%d_f2.json" % g),
                      "prime-field builder, JSON writer and file output"))
        ops.append(Op("structure.construct_f2m_g%d" % g,
                      ("construct", "--mode", "f2m", str(g)),
                      "fibre-product builder and component rendering"))
        if _single_block(g):
            ops.append(Op("structure.glue_g%d" % g,
                          ("construct", "--mode", "f2m", "--glue", str(g)),
                          "gluing a single block into one equation"))
        ops.append(Op("structure.quotients_g%d" % g, ("quotients", f),
                      "alpha space, splittings and rendering with the "
                      "linear-scan discrete log"))
        ops.append(Op("structure.quotients_g%d_json" % g,
                      ("quotients", "--json", f),
                      "alpha space and splittings, JSON output"))
        ops.append(Op("structure.decompose_g%d" % g, ("decompose", str(g)),
                      "block decomposition: a short op where CLI start-up "
                      "and argument parsing dominate"))
    for i, (deg, h) in enumerate(RADICALS):
        ops.append(Op("structure.radical_%d" % i,
                      ("radical", "--json", "{w}/radical_%d.json" % i),
                      "seeded radical over F_%d with 2-degree %d: splitting "
                      "degree and kernel" % (1 << deg, h), "radical", h=h))
    for i, (deg, h) in enumerate(ISO_PAIRS):
        ops.append(Op("structure.iso_%d" % i,
                      ("iso", "--json", "{w}/iso_%d_a.json" % i,
                       "{w}/iso_%d_b.json" % i),
                      "seeded scaling pair over F_%d with 2-degree %d: "
                      "binomial roots" % (1 << deg, h), "iso", h=h))
    return tuple(ops)


def _capacity_ops():
    # quotients runs first: a later probe would otherwise leave F_2^20
    # tables behind in the worker and hide the linear-scan dlog.
    return (
        Op("capacity.quotients_g223_json",
           ("quotients", "--json", "{w}/g223_f2.json"),
           "render._dlog scans all of F_2^20 with table-free multiplication",
           cap=CAPACITY_CAP_S),
        # Uncapped, this op ran for over 15 minutes on a 2-CPU Xeon without
        # finishing, so it is checked against the budget-14 recording: same
        # genus and pieces, the same L-polynomials where those were counted.
        Op("capacity.verify_g221_f2", ("verify", "--json", "{w}/g221_f2.json"),
           "default budget: pieces over F_2^24, the field path with no "
           "tables", "verify", 221, cap=CAPACITY_CAP_S,
           expect="verify.g221_f2_b14"),
        Op("capacity.verify_g19_f2", ("verify", "--json", "{w}/g19_f2.json"),
           "an exhaustive series over F_2 up to F_2^21", "verify", 19,
           cap=CAPACITY_CAP_S),
    )


WORKLOADS = {
    w.name: w for w in (
        Workload("verify",
                 "exhaustive counting and field tables do nearly all the "
                 "work; a counting change must show here",
                 ("g18_f2", "g63_f2m", "g30_f2m_glued", "g1000_f2m",
                  "g221_f2", "g30_f2m"),
                 _verify_ops(), 35.0),
        Workload("structure",
                 "builder, quotient, linops, render, jsonio and classify do "
                 "the work and nothing is counted",
                 tuple("g%d_f2" % g for g in STRUCTURE_GENERA),
                 # Two ops (quotients at g=383) take over half of a pass.
                 # At 45 s a run makes 11 passes, so op_tail_s (ten
                 # samples beyond it) falls mid-way through their 22
                 # samples, not on the lowest few of them.
                 _structure_ops(), 4.0),
        Workload("capacity",
                 "each known cliff once, under a fixed per-op wall cap",
                 ("g223_f2", "g221_f2", "g19_f2"),
                 _capacity_ops(), 30.0),
    )
}


# -- seeded inputs -----------------------------------------------------------


def gf_mul(a, b, degree):
    """Product in F_{2^degree} modulo MODULI[degree] (shift and add)."""
    mod = MODULI[degree]
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> degree & 1:
            a ^= mod
    return r


def gf_pow(a, e, degree):
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, a, degree)
        a = gf_mul(a, a, degree)
        e >>= 1
    return r


def _field_doc(degree):
    return {"degree": degree, "modulus": "0x%x" % MODULI[degree]}


def _hex(coeffs):
    return ["0x%x" % c for c in coeffs]


def _random_R(rng, degree, h, nonzero=False):
    q = 1 << degree
    low = 1 if nonzero else 0
    return [rng.randrange(low, q) for _ in range(h)] + [rng.randrange(1, q)]


def seeded_inputs(workload, seed):
    """{file name: JSON document} for the workload's seeded inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    files = {}
    if workload == "verify":
        for name, deg, h in MEMBERS:
            files[name + ".json"] = {
                "format": "curve", "kind": "single",
                "field": _field_doc(deg), "S": _hex([1, 1]),
                "R": [_hex(_random_R(rng, deg, h, nonzero=True))]}
    elif workload == "structure":
        for i, (deg, h) in enumerate(RADICALS):
            files["radical_%d.json" % i] = {
                "field": _field_doc(deg), "coeffs": _hex(_random_R(rng, deg, h))}
        for i, (deg, h) in enumerate(ISO_PAIRS):
            R = _random_R(rng, deg, h)
            rho = rng.randrange(1, 1 << deg)
            R2 = [gf_mul(a, gf_pow(rho, (1 << j) + 1, deg), deg)
                  for j, a in enumerate(R)]
            files["iso_%d_a.json" % i] = {"field": _field_doc(deg),
                                          "coeffs": _hex(R)}
            files["iso_%d_b.json" % i] = {"field": _field_doc(deg),
                                          "coeffs": _hex(R2)}
    return files


def write_seeded_inputs(workload, seed, work):
    for name, doc in seeded_inputs(workload, seed).items():
        (work / name).write_text(json.dumps(doc, indent=2) + "\n")
