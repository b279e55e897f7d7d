"""Command line driver: construct, inspect, and verify curves as JSON.

Exit codes: 0 success, 1 verification failure, 2 usage or schema error,
3 a bound exceeded (BudgetError) or memory run out.  Bounds are set per
invocation by --budget-log2 and --max-degree, and by nothing else.  With
--json the standard output is machine-readable only; all output is
deterministic, so repeated runs are byte-identical.
"""

import argparse
import json
import sys

from . import __version__, jsonio, render
from .builder import (CurveSpec, build_components, build_prime_field,
                      glue_single_block, stratum_certificate)
from .classify import covers_isomorphic, curves_isomorphic, radical
from .decomp import decompose
from .limits import (DEFAULT_LOG2_POINTS, DEFAULT_MAX_DEGREE, Budget,
                     BudgetError)
from .quotient import is_irreducible, quotient_rows
from .zeta import (AdditivityError, count_points, count_series,
                   genus_and_degree, ladder_route, lpoly_from_counts,
                   verify_supersingular)


def _positive(text):
    try:            # argparse's own wording for a non-int
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _emit(args, doc, human_lines):
    if args.json:
        sys.stdout.write(jsonio.dumps(doc))
    else:
        print("\n".join(human_lines))


def cmd_decompose(args):
    d = decompose(args.g)
    doc = {
        "g": d.g,
        "blocks": [[s, r] for s, r in d.blocks],
        "t": d.t,
        "w": d.w,
        "m": d.m,
        "u": list(d.u),
        "moduli_bound": d.moduli_bound,
    }
    lines = [
        "g = %d" % d.g,
        "blocks (s, r) = %s" % (list(d.blocks),),
        "t = %d, w = %d, m = %d" % (d.t, d.w, d.m),
        "u = %s" % (list(d.u),),
        "moduli lower bound = %s" % (d.moduli_bound,),
    ]
    _emit(args, doc, lines)
    return 0


def cmd_construct(args):
    d = decompose(args.g)
    construction = {"g": args.g, "mode": args.mode, "glue": bool(args.glue)}
    if args.mode == "f2":
        if args.glue:
            raise ValueError("--glue applies to the f2m construction only")
        curve = build_prime_field(d)
    else:
        curve = build_components(d, args.budget)
        if args.glue:
            if d.t != 1:
                raise ValueError("--glue needs a single-block genus "
                                 "(g = %d has %d blocks)" % (args.g, d.t))
            curve = glue_single_block(curve)
    lines = []
    if not args.json:   # a discrete log here can exit 3, before --out is written
        if isinstance(curve, CurveSpec):
            lines = [render.equation_text(curve)] + render.xr_table(curve)
        else:
            lines = render.component_lines(curve)
        cert = stratum_certificate(d)
        lines.append("genus certificate: %s, total %d"
                     % ([[c, g] for c, g in cert.strata], cert.total))
    if args.json or args.out:   # one encoding for the file and stdout
        text = jsonio.dumps(jsonio.curve_to_json(curve, construction))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        lines.append("wrote %s" % args.out)
    sys.stdout.write(text if args.json else "\n".join(lines) + "\n")
    return 0


def cmd_quotients(args):
    curve = jsonio.load_curve(args.curvefile, args.budget)
    if not isinstance(curve, CurveSpec):
        raise ValueError("quotients need a single-equation curve file")
    F, rows = quotient_rows(curve, args.budget)
    lines = ["%d quotients, genus total %d"
             % (len(rows), sum(genus for _, genus, _ in rows))]
    lines += ["alpha=0x%x  genus %d  w^2+w = %s"
              % (alpha, genus, render.terms_text(F, terms, "x"))
              for alpha, genus, terms in rows]
    if args.json:
        sys.stdout.write(jsonio.quotients_text(rows))
    else:
        print("\n".join(lines))
    return 0


def cmd_count(args):
    curve = jsonio.load_curve(args.curvefile, args.budget)
    n = count_points(curve, args.ext, args.budget)
    _emit(args, {"ext": args.ext, "count": n}, ["%d" % n])
    return 0


def cmd_lpoly(args):
    curve = jsonio.load_curve(args.curvefile, args.budget)
    genus, N = genus_and_degree(curve)
    if ladder_route(genus, N, args.budget) == "certified-not-recounted":
        raise BudgetError("curve is too large to count directly; "
                          "use verify for the piecewise ladder")
    coeffs = list(lpoly_from_counts(count_series(
        curve, genus, args.budget)).coeffs if genus else [1])   # rational
    doc = {"genus": genus, "lpoly": [str(c) for c in coeffs]}
    _emit(args, doc, ["genus %d" % genus, "L = %s" % coeffs])
    return 0


def cmd_verify(args):
    curve = jsonio.load_curve(args.curvefile, args.budget)
    kmax = None if args.skip_additivity else args.kmax
    single = isinstance(curve, CurveSpec)
    try:
        report = verify_supersingular(curve, args.budget, kmax)
    except AdditivityError:
        raise           # the check failed to run: an error, not a verdict
    except ValueError as ex:
        checks = {"irreducible": is_irreducible(curve)} if single else {}
        failures = [] if checks.get("irreducible", True) else ["reducible"]
        doc = {"supersingular": False, "checks": checks,
               "failures": failures + [str(ex)]}
        _emit(args, doc, ["FAIL: %s" % ex])
        return 1
    doc = jsonio.report_to_json(report)
    failures = []
    if report.supersingular is False:   # each false entry names its causes
        failures = [c for p in report.pieces for c in p.get("failed", ())]
    failures += [key for key, ok in doc["checks"].items() if ok is False]
    doc["failures"] = failures = list(dict.fromkeys(failures))  # each once
    lines = ["genus %d" % report.genus,
             "supersingular: %s" % json.dumps(report.supersingular),
             "checks: %s" % json.dumps(doc["checks"])]
    if failures:
        lines.append("FAILURES: %s" % ", ".join(failures))
    _emit(args, doc, lines)
    return 1 if failures else 0


def cmd_iso(args):
    a = jsonio.load_object(args.first, "first operand")
    b = jsonio.load_object(args.second, "second operand")
    F = jsonio.field_from_json(a.get("field", {}), args.budget)
    if F != jsonio.field_from_json(b.get("field", {}), args.budget):
        raise ValueError("operands live over different fields")
    if args.mode == "curves":
        R = jsonio.linpoly_from_json(a.get("coeffs"), F)
        R2 = jsonio.linpoly_from_json(b.get("coeffs"), F)
        witness = curves_isomorphic(R, R2, args.budget)
    else:
        witness = covers_isomorphic(_basis(a, F), _basis(b, F), args.budget)
    if witness is None:
        doc = {"isomorphic": False, "mode": args.mode}
        _emit(args, doc, ["not isomorphic"])
    else:
        doc = {"isomorphic": True,
               "witness": jsonio.elem_to_json(witness.rho),
               "witness_field": jsonio.field_to_json(witness.field),
               "mode": witness.mode}
        _emit(args, doc, ["isomorphic via rho = %s in degree-%d field (%s)"
                          % (jsonio.elem_to_json(witness.rho),
                             witness.field.degree, witness.mode)])
    return 0


def _basis(doc, F):
    basis = doc.get("basis", [])
    if not isinstance(basis, list):
        raise ValueError("basis must be a list of linearized polynomials")
    return [jsonio.linpoly_from_json(r, F) for r in basis]


def cmd_radical(args):
    a = jsonio.load_object(args.first, "operand")
    F = jsonio.field_from_json(a.get("field", {}), args.budget)
    R = jsonio.linpoly_from_json(a.get("coeffs"), F)
    rad = radical(R, args.budget)
    doc = {"ambient": jsonio.field_to_json(rad.ambient),
           "basis": [jsonio.elem_to_json(b) for b in rad.basis]}
    _emit(args, doc, ["radical dimension %d in degree-%d field"
                      % (len(rad.basis), rad.ambient.degree)])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sscurves",
        description="construct and verify supersingular curves in characteristic 2")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="binary block decomposition of g")
    p.add_argument("g", type=int)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("construct", help="build a curve of genus g")
    p.add_argument("g", type=int)
    p.add_argument("--mode", choices=("f2", "f2m"), required=True)
    p.add_argument("--glue", action="store_true",
                   help="glue a single-block f2m product into one equation")
    p.add_argument("--out", metavar="FILE", help="write the curve file here")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("quotients", help="list the quotient pieces of a curve")
    p.add_argument("curvefile")
    p.set_defaults(func=cmd_quotients)

    p = sub.add_parser("count", help="count points over an extension")
    p.add_argument("curvefile")
    p.add_argument("--ext", type=_positive, default=1, metavar="K",
                   help="extension degree over the curve's field")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("lpoly", help="L-polynomial from exact counts")
    p.add_argument("curvefile")
    p.set_defaults(func=cmd_lpoly)

    p = sub.add_parser("verify", help="full verification ladder")
    p.add_argument("curvefile")
    p.add_argument("--kmax", type=_positive, default=2,
                   help="extensions for the power-sum additivity check")
    p.add_argument("--skip-additivity", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("iso", help="isomorphism test for curves or covers")
    p.add_argument("--mode", choices=("curves", "covers"), default="curves")
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("radical", help="radical of a linearized polynomial")
    p.add_argument("first", metavar="rfile")
    p.set_defaults(func=cmd_radical)
    # written out, since argparse wraps the usage differently from 3.13 on
    parser.usage = "%(prog)s [-h] [--version]\n{0}{{{1}}}\n{0}...".format(
        " " * 16, ",".join(sub.choices))

    for p in sub.choices.values():      # the shared options come last
        p.add_argument("--json", action="store_true",
                       help="machine-readable output only")
        p.add_argument("--budget-log2", type=_positive,
                       default=DEFAULT_LOG2_POINTS,
                       help="log2 of the largest field a point count may "
                            "run over (default %d)" % DEFAULT_LOG2_POINTS)
        p.add_argument("--max-degree", type=_positive,
                       default=DEFAULT_MAX_DEGREE,
                       help="largest ambient field degree (default %d)"
                            % DEFAULT_MAX_DEGREE)
    return parser


_PARSER = None      # built by the first main call, then reused


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    args.budget = Budget(args.budget_log2, args.max_degree)
    try:
        return args.func(args)
    except (BudgetError, MemoryError) as ex:     # str(MemoryError()) is ""
        why = ex if isinstance(ex, BudgetError) else "out of memory"
        print("capacity/budget error: %s" % why, file=sys.stderr)
        return 3
    except (ValueError, ZeroDivisionError, OSError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
