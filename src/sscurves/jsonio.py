"""JSON encoding of fields, polynomials, curves, and reports.

Field elements serialize as lowercase hex of their bit vectors (bit i is
the coefficient of gamma^i); linearized polynomials as coefficient lists
indexed by i for x^(2^i); sparse polynomials as explicit term lists with
exponents decreasing.  Documents re-serialize byte-identically after a
parse, so fixtures can be compared with plain string equality.
"""

import json

from . import __version__
from .builder import CurveSpec, FibreProductSpec, stratum_certificate
from .decomp import decompose
from .field import BinaryField
from .limits import DEFAULT_MAX_DEGREE, CapacityError
from .linops import lin, sparse


def dumps(doc):
    return json.dumps(doc, indent=2) + "\n"


def field_to_json(F):
    return {"degree": F.degree, "modulus": "0x%x" % F.modulus}


def field_from_json(obj, max_degree=DEFAULT_MAX_DEGREE):
    """The field of a document; a degree above max_degree raises CapacityError
    before the modulus is tested for irreducibility."""
    _need(obj, "field", ("degree", "modulus"))
    degree = obj["degree"]
    if isinstance(degree, int) and degree > max_degree:
        raise CapacityError("field degree %d exceeds bound %d"
                            % (degree, max_degree))
    try:
        return BinaryField(degree, int(obj["modulus"], 16))
    except (TypeError, ValueError) as ex:
        raise ValueError("bad field description: %s" % ex)


def elem_to_json(e):
    return "0x%x" % e


def elem_from_json(s, F):
    try:
        e = int(s, 16)
    except (TypeError, ValueError):
        raise ValueError("bad field element %r" % (s,))
    if not 0 <= e < F.order:
        raise ValueError("element %s out of range for degree %d" % (s, F.degree))
    return e


def linpoly_to_json(R):
    return [elem_to_json(a) for a in R.coeffs]


def linpoly_from_json(lst, F):
    if not isinstance(lst, list):
        raise ValueError("linearized polynomial must be a coefficient list")
    return lin(F, [elem_from_json(a, F) for a in lst])


def sparse_to_json(f):
    return {"terms": [{"exp": e, "coeff": elem_to_json(c)} for e, c in f.terms]}


def sparse_from_json(obj, F):
    _need(obj, "sparse polynomial", ("terms",))
    terms = {}
    for t in obj["terms"]:
        _need(t, "term", ("exp", "coeff"))
        if not isinstance(t["exp"], int) or t["exp"] < 0:
            raise ValueError("bad exponent %r" % (t["exp"],))
        terms[t["exp"]] = terms.get(t["exp"], 0) ^ elem_from_json(t["coeff"], F)
    return sparse(F, terms)


def curve_to_json(curve, construction=None):
    """CurveFile document for a single-equation curve or a fibre product."""
    doc = {"format": "curve"}
    if isinstance(curve, CurveSpec):
        doc["kind"] = "single"
        doc["field"] = field_to_json(curve.field)
        doc["S"] = linpoly_to_json(curve.S)
        doc["R"] = [linpoly_to_json(R) for R in curve.R_list]
    elif isinstance(curve, FibreProductSpec):
        doc["kind"] = "fibre_product"
        doc["field"] = field_to_json(curve.field)
        doc["components"] = [sparse_to_json(f) for f in curve.components]
    else:
        raise TypeError("cannot serialize %r" % type(curve).__name__)
    meta = {"tool_version": __version__}
    if construction is not None:
        meta["construction"] = construction
        cert = stratum_certificate(decompose(construction["g"]))
        meta["certificate"] = {
            "strata": [[c, g] for c, g in cert.strata],
            "total": cert.total,
        }
    doc["metadata"] = meta
    return doc


def curve_from_json(doc, max_degree=DEFAULT_MAX_DEGREE):
    _need(doc, "curve file", ("kind", "field"))
    F = field_from_json(doc["field"], max_degree)
    if doc["kind"] == "single":
        _need(doc, "curve file", ("S", "R"))
        S = linpoly_from_json(doc["S"], F)
        R_list = tuple(linpoly_from_json(R, F) for R in doc["R"])
        return CurveSpec(F, S, R_list).validate()
    if doc["kind"] == "fibre_product":
        _need(doc, "curve file", ("components",))
        spec = FibreProductSpec(F, tuple(sparse_from_json(c, F)
                                         for c in doc["components"]))
        spec.strata         # a malformed span raises ValueError at load
        return spec
    raise ValueError("unknown curve kind %r" % (doc["kind"],))


def load_curve(path, max_degree=DEFAULT_MAX_DEGREE):
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ValueError("not a JSON document: %s" % ex)
    return curve_from_json(doc, max_degree)


def report_to_json(report):
    """Verification report document (decimal-string L-coefficients)."""
    doc = {"genus": report.genus, "supersingular": report.supersingular}
    if report.lpoly is not None:
        doc["lpoly"] = [str(c) for c in report.lpoly.coeffs]
    if report.slopes is not None:
        doc["slopes"] = [str(s) for s in report.slopes]
    doc["pieces"] = report.pieces
    doc["checks"] = report.checks
    return doc


def _need(obj, what, keys):
    if not isinstance(obj, dict):
        raise ValueError("%s must be a JSON object" % what)
    for k in keys:
        if k not in obj:
            raise ValueError("%s is missing %r" % (what, k))
