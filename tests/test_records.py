"""The contract of the package's value records.

Every frozen record is built positionally and by keyword, keeps its field
names in order, compares and hashes by value, refuses attribute writes and
prints the same repr text; the two mutable records keep their defaults.
"""

import ast
import inspect
import os

import pytest

from sscurves import builder
from sscurves.builder import CurveSpec, FibreProductSpec, GenusCertificate
from sscurves.classify import IsoWitness, RadicalBasis
from sscurves.decomp import GenusDecomposition, decompose
from sscurves.field import make_field
from sscurves.limits import Budget
from sscurves.linops import LinPoly, SparsePoly, lin, sparse
from sscurves.quotient import AlphaSpace, QuotientCurve, SplitData
from sscurves.zeta import (CountSeries, LPoly, NPReport, VerificationReport,
                           _Class)

F2 = make_field(1)
F4 = make_field(2)
F4_REPR = "BinaryField(degree=2, modulus=0x7)"
R1 = lin(F4, [1])
R1_REPR = "LinPoly(field=%s, coeffs=(1,))" % F4_REPR
X3 = sparse(F4, {3: 1})
X3_REPR = "SparsePoly(field=%s, terms=((3, 1),))" % F4_REPR

# (record, field names, values, another value of the last field, repr text)
RECORDS = [
    (Budget, ("log2_points", "max_degree"), (20, 30), 31,
     "Budget(log2_points=20, max_degree=30)"),
    (GenusDecomposition,
     ("g", "blocks", "w", "m", "u", "moduli_bound"),
     (5, ((0, 0), (2, 0)), 2, 1, (1, 2), 2), None,
     "GenusDecomposition(g=5, blocks=((0, 0), (2, 0)), w=2, m=1, u=(1, 2), "
     "moduli_bound=2)"),
    (LinPoly, ("field", "coeffs"), (F4, (1,)), (0, 1), R1_REPR),
    (SparsePoly, ("field", "terms"), (F4, ((3, 1),)), ((5, 1),), X3_REPR),
    (FibreProductSpec, ("field", "components"), (F4, (X3,)), (),
     "FibreProductSpec(field=%s, components=(%s,))" % (F4_REPR, X3_REPR)),
    (CurveSpec, ("field", "S", "R_list"), (F4, R1, (R1,)), (),
     "CurveSpec(field=%s, S=%s, R_list=(%s,))" % (F4_REPR, R1_REPR, R1_REPR)),
    (GenusCertificate, ("strata", "total"), (((1, 1),), 1), 2,
     "GenusCertificate(strata=((1, 1),), total=1)"),
    (IsoWitness, ("rho", "field", "mode"), (2, F4, "curves"), "covers",
     "IsoWitness(rho=2, field=%s, mode='curves')" % F4_REPR),
    (RadicalBasis, ("ambient", "basis"), (F4, (1, 2)), (1,),
     "RadicalBasis(ambient=%s, basis=(1, 2))" % F4_REPR),
    (AlphaSpace, ("ambient", "basis", "embedding", "equation"),
     (F4, (1,), None, R1), None,
     "AlphaSpace(ambient=%s, basis=(1,), embedding=None, equation=%s)"
     % (F4_REPR, R1_REPR)),
    (SplitData, ("B", "beta"), (R1, 3), 2,
     "SplitData(B=%s, beta=3)" % R1_REPR),
    (QuotientCurve, ("alpha", "rhs", "genus"), (1, X3, 1), 2,
     "QuotientCurve(alpha=1, rhs=%s, genus=1)" % X3_REPR),
    (CountSeries, ("q", "counts", "genus"), (2, (3, 5), 1), 2,
     "CountSeries(q=2, counts=(3, 5), genus=1)"),
    (LPoly, ("q", "coeffs"), (2, (1, 0, 2)), (1,),
     "LPoly(q=2, coeffs=(1, 0, 2))"),
    (NPReport, ("slopes", "supersingular"), ((1, 1), True), False,
     "NPReport(slopes=(1, 1), supersingular=True)"),
]


@pytest.mark.parametrize("cls, names, values, other, text", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_frozen_record_contract(cls, names, values, other, text):
    assert tuple(inspect.signature(cls).parameters) == names
    rec = cls(*values)
    assert cls(**dict(zip(names, values))) == rec
    assert tuple(getattr(rec, n) for n in names) == values
    twin = cls(*values)
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    changed = cls(*values[:-1], other)
    assert changed != rec and not changed == rec
    for name in names:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
    assert tuple(getattr(rec, n) for n in names) == values
    assert repr(rec) == text


def test_linpoly_refuses_trailing_zeros():
    # lin() trims; building the record directly bypasses it and must fail
    with pytest.raises(ValueError, match="non-canonical"):
        LinPoly(F2, (1, 0))
    with pytest.raises(ValueError, match="non-canonical"):
        LinPoly(field=F2, coeffs=(0,))
    assert LinPoly(F2, ()).is_zero() and lin(F2, [1, 0]) == LinPoly(F2, (1,))


def test_budget_defaults():
    assert Budget() == Budget(24, 64)
    assert (Budget().log2_points, Budget().max_degree) == (24, 64)
    assert Budget(10) == Budget(10, 64)
    assert Budget(max_degree=8) == Budget(24, 8)


def test_bounds_enter_the_library_as_one_budget():
    # no function takes a bare max_degree, every make_field call passes a
    # budget rather than lean on the default bound, and BudgetError is the
    # only exception a bound raises
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src",
                       "sscurves")
    for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            where = (name, getattr(node, "lineno", None))
            if isinstance(node, (ast.FunctionDef, ast.Lambda)):
                a = node.args
                assert "max_degree" not in [
                    p.arg for p in a.posonlyargs + a.args + a.kwonlyargs], where
            elif isinstance(node, ast.Call):
                f = node.func
                if getattr(f, "id", getattr(f, "attr", None)) == "make_field":
                    assert len(node.args) > 1 or any(
                        k.arg == "budget" for k in node.keywords), where
            elif isinstance(node, ast.ClassDef):
                assert node.name != "CapacityError", where


def test_spec_properties_are_computed_once(monkeypatch):
    calls = []

    def spy(name):
        inner = getattr(builder, name)

        def wrapped(*args):
            calls.append(name)
            return inner(*args)
        monkeypatch.setattr(builder, name, wrapped)

    for name in ("equation_strata", "span_strata", "_span_leads"):
        spy(name)
    c = builder.build_prime_field(decompose(5))
    assert c.strata is c.strata and calls == ["equation_strata"]
    spec = FibreProductSpec(F4, (X3, sparse(F4, {5: 1})))
    assert (spec.rank, spec.rank) == (2, 2)
    assert calls == ["equation_strata", "_span_leads"]
    strata = spec.strata
    seen = len(calls)                  # span_strata keys its own leads
    assert spec.strata is strata and len(calls) == seen
    assert calls.count("span_strata") == 1
    assert spec == FibreProductSpec(F4, (X3, sparse(F4, {5: 1})))


def test_verification_report_defaults():
    rep = VerificationReport(3, "certified")
    assert (rep.genus, rep.supersingular, rep.lpoly, rep.slopes,
            rep.pieces, rep.checks) == (3, "certified", None, None, [], {})
    other = VerificationReport(genus=3, supersingular=True,
                               lpoly=LPoly(2, (1,)), slopes=(), pieces=[1],
                               checks={"a": True})
    assert (other.lpoly, other.slopes, other.pieces, other.checks) == (
        LPoly(2, (1,)), (), [1], {"a": True})
    rep.pieces.append({"label": "curve"})
    rep.checks["genus"] = True
    rep.supersingular = False
    assert VerificationReport(1, True).pieces == []       # a fresh list
    assert VerificationReport(1, True).checks == {}       # and a fresh dict
    assert repr(rep) == (
        "VerificationReport(genus=3, supersingular=False, lpoly=None, "
        "slopes=None, pieces=[{'label': 'curve'}], checks={'genus': True})")


def test_class_record_defaults():
    # the verdict is the entry's "supersingular", not a slot of its own
    cls = _Class(None, [])
    assert (cls.rhs, cls.counts, cls.entry, cls.members) == (
        None, [], None, 0)
    cls.members += 1
    full = _Class(X3, [3], {"genus": 1, "supersingular": True}, 2)
    assert (full.rhs, full.counts, full.entry, full.members) == (
        X3, [3], {"genus": 1, "supersingular": True}, 2)
    for name in ("label", "verdict"):
        with pytest.raises(AttributeError):
            setattr(cls, name, "x")
