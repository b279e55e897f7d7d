"""JSON encoding of fields, polynomials, curves, and reports.

Field elements serialize as lowercase hex of their bit vectors (bit i is
the coefficient of gamma^i); linearized polynomials as coefficient lists
indexed by i for x^(2^i); sparse polynomials as explicit term lists with
exponents decreasing.  Documents re-serialize byte-identically after a
parse, so fixtures can be compared with plain string equality.  `dumps`
writes json's indent-2 layout directly: CPython runs its C encoder only
without indent, and its pure-Python encoder takes about twice as long.
The quotients document has a fixed shape, so `quotients_text` writes it
straight from the span's rows, one format per piece and one per term;
`dumps` writes every other document.
"""

import json
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .builder import CurveSpec, FibreProductSpec, stratum_certificate
from .decomp import decompose
from .field import BinaryField
from .limits import DEFAULT_BUDGET
from .linops import lin, sparse


def dumps(doc):
    """json.dumps(doc, indent=2) plus a newline, byte for byte.

    Strings are quoted by the C function json itself uses under ensure_ascii
    and ints written by int.__repr__; any other leaf (a float, or a type JSON
    lacks) goes to json.dumps, so its text or its TypeError stays json's.
    """
    return _text(doc, "\n") + "\n"


def _text(o, pad):
    """o as indent-2 JSON, pad being the newline and indent of its line."""
    if type(o) is str:
        return _quote(o)
    if type(o) is int:
        return int.__repr__(o)
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        return "{%s%s%s}" % (inner, ("," + inner).join(
            ["%s: %s" % (_quote(k) if type(k) is str
                         else json.dumps({k: None})[1:-7],  # json's key text
                         _text(v, inner))
             for k, v in o.items()]), pad)
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        return "[%s%s%s]" % (inner, ("," + inner).join(
            [_text(v, inner) for v in o]), pad)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    return json.dumps(o)


_PIECE = ('\n  {\n    "alpha": "0x%x",\n    "genus": %d,\n    "rhs": {\n'
          '      "terms": [%s\n      ]\n    }\n  }')
_TERM = '\n        {\n          "exp": %d,\n          "coeff": "0x%x"\n        }'


def quotients_text(rows):
    """dumps([{"alpha", "genus", "rhs": {"terms": ...}}]) of quotient_rows'
    (alpha, genus, terms), byte for byte, written without building the
    document.  Every row has a term: a reducible curve is refused."""
    if not rows:
        return "[]\n"
    return "[%s\n]\n" % ",".join([
        _PIECE % (alpha, genus, ",".join([_TERM % t for t in terms]))
        for alpha, genus, terms in rows])


def field_to_json(F):
    return {"degree": F.degree, "modulus": "0x%x" % F.modulus}


def field_from_json(obj, budget=DEFAULT_BUDGET):
    """The field of a document; a degree above budget.max_degree raises
    BudgetError before the modulus is tested for irreducibility."""
    _need(obj, "field", ("degree", "modulus"))
    degree = obj["degree"]
    if type(degree) is not int or degree < 1:  # isinstance would pass True
        raise ValueError("bad field degree %r" % (degree,))
    budget.check_degree(degree)
    modulus = obj["modulus"]
    try:
        modulus = int(modulus, 16)
    except (TypeError, ValueError):
        raise ValueError("bad field modulus %r" % (modulus,))
    try:
        return BinaryField(degree, modulus)
    except ValueError as ex:
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
    for t in _list(obj, "sparse polynomial", "terms"):
        _need(t, "term", ("exp", "coeff"))
        if type(t["exp"]) is not int or t["exp"] < 0:     # true, as above
            raise ValueError("bad exponent %r" % (t["exp"],))
        terms[t["exp"]] = terms.get(t["exp"], 0) ^ elem_from_json(t["coeff"], F)
    return sparse(F, terms)


def curve_to_json(curve, construction):
    """CurveFile document for a single-equation curve or a fibre product,
    with the construction parameters and the stratum certificate of
    construction["g"] in its metadata."""
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
    cert = stratum_certificate(decompose(construction["g"]))
    doc["metadata"] = {
        "tool_version": __version__,
        "construction": construction,
        "certificate": {"strata": [[c, g] for c, g in cert.strata],
                        "total": cert.total},
    }
    return doc


def curve_from_json(doc, budget=DEFAULT_BUDGET):
    _need(doc, "curve file", ("kind", "field"))
    F = field_from_json(doc["field"], budget)
    if doc["kind"] == "single":
        _need(doc, "curve file", ("S", "R"))
        S = linpoly_from_json(doc["S"], F)
        R_list = tuple(linpoly_from_json(R, F)
                       for R in _list(doc, "curve file", "R"))
        return CurveSpec(F, S, R_list).validate()
    if doc["kind"] == "fibre_product":
        _need(doc, "curve file", ("components",))
        spec = FibreProductSpec(F, tuple(
            sparse_from_json(c, F)
            for c in _list(doc, "curve file", "components")))
        spec.strata         # a malformed span raises ValueError at load
        return spec
    raise ValueError("unknown curve kind %r" % (doc["kind"],))


def load_curve(path, budget=DEFAULT_BUDGET):
    return curve_from_json(load_object(path, "curve file"), budget)


def load_object(path, what):
    """The JSON object in the file at path; ValueError for anything else."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as ex:
            raise ValueError("not a JSON document: %s" % ex)
    _need(doc, what, ())
    return doc


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


def _list(obj, what, key):
    """obj[key], refused unless it is a list (a number is not iterable, and
    a string would be iterated by character)."""
    if not isinstance(obj[key], list):
        raise ValueError("%s's %r must be a JSON list" % (what, key))
    return obj[key]
