"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (each PASSED/FAILED line is a
criterion verdict); `-s` additionally shows the per-criterion summaries.
All tolerances are exact (integer arithmetic); wall-clock limits are asserted.
"""

import json
import os
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from sscurves.builder import (build_components, build_prime_field,
                              certificate, glue_single_block,
                              stratum_certificate, to_standard_form)
from sscurves.cli import main
from sscurves.classify import curves_isomorphic
from sscurves.decomp import decompose, moduli_lower_bound
from sscurves.field import embedding_into, make_field
from sscurves.limits import Budget
from sscurves.linops import as_genus, lin, times_x
from sscurves.quotient import QuotientCurve, decomposition, is_irreducible
from sscurves.zeta import (CountSeries, LPoly, count_points, count_series,
                           lpoly_from_counts, newton_polygon,
                           powersum_additivity_check, predicted_count,
                           verify_supersingular)

from poly_helpers import check_functional_equation
from sparse_helpers import as_dict

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
HALF = Fraction(1, 2)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    return rc, capsys.readouterr().out


def test_c01_fixture_genus_221(capsys):
    t0 = time.time()
    rc, out = run_cli(capsys, "construct", "--mode", "f2", "221")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == ("y^64+y^32+y^16+y^4+y^2+y = "
                        "x^288+x^160+x^144+x^96+x^80+x^36+x^18")
    table = {l.split(" = ")[0]: l.split(" = ")[1] for l in lines[1:7]}
    assert table == {"xR_1": "0", "xR_2": "x^9", "xR_3": "x^9", "xR_4": "0",
                     "xR_5": "x^9+x^5", "xR_6": "x^9+x^5+x^3"}
    c = build_prime_field(decompose(221))
    assert as_dict(c.derived_T()) == {e: 1 for e in
                                       (288, 160, 144, 96, 80, 36, 18)}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print("criterion 1 PASS: genus-221 equation and xR table reproduced "
          "bit-exactly (%.2fs)" % elapsed)


def test_c02_fixture_genus_30_glued(capsys):
    t0 = time.time()
    F16 = make_field(4)
    assert F16.modulus == 0b10011               # x^4 + x + 1
    rc, out = run_cli(capsys, "construct", "--mode", "f2m", "--glue", "30")
    assert rc == 0
    assert out.splitlines()[0] == "y^16+y = a^6*x^40+x^20+a^12*x^10+a^9*x^5"
    glued = glue_single_block(build_components(decompose(30)))
    a = 2
    assert as_dict(glued.derived_T()) == {
        40: F16.pow(a, 6), 20: 1, 10: F16.pow(a, 12), 5: F16.pow(a, 9)}
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print("criterion 2 PASS: genus-30 glued equation over F_16 reproduced "
          "bit-exactly (%.2fs)" % elapsed)


def test_c03_certificates_1_to_4096():
    t0 = time.time()
    for g in range(1, 4097):
        d = decompose(g)
        assert d.recompose() == g
        cert = certificate(build_components(d))
        assert cert.total == g
        assert cert.strata == stratum_certificate(d).strata
        c = build_prime_field(d)
        assert c.strata == d.strata
        assert stratum_certificate(d).total == g
        assert tuple(to_standard_form(c.derived_T(), c.n)) == c.R_list
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print("criterion 3 PASS: certificates of both constructions total g, "
          "with equal strata, for g = 1..4096 (%.1fs)" % elapsed)


def test_c04_numeric_supersingularity_small_genus():
    t0 = time.time()
    budget = Budget(log2_points=16)
    for g in range(1, 13):
        c = build_prime_field(decompose(g))
        assert is_irreducible(c)
        series = count_series(c, g, budget)
        L = lpoly_from_counts(CountSeries(series.q, series.counts[:g], g))
        assert len(L.coeffs) - 1 == 2 * g
        assert check_functional_equation(L)
        assert predicted_count(L, g + 1) == series.counts[g]
        assert predicted_count(L, g + 2) == series.counts[g + 1]
        np_report = newton_polygon(L, 1)
        assert np_report.supersingular
        assert set(np_report.slopes) == {HALF}
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print("criterion 4 PASS: exact L-polynomials, predictions, and 1/2 slopes "
          "for g = 1..12 (%.1fs)" % elapsed)


def test_c05_quotient_decomposition():
    t0 = time.time()
    budget = Budget(log2_points=16)
    for g in (3, 5, 7, 10, 30):
        d = decompose(g)
        c = build_prime_field(d)
        pieces = decomposition(c)
        assert sum(p.genus for p in pieces) == g
        expected = Counter()
        prefix = 0
        for (s, r), u in zip(d.blocks, d.u):
            expected[1 << (u - 1)] += (1 << prefix) * ((1 << (r + 1)) - 1)
            prefix += r + 1
        assert Counter(p.genus for p in pieces) == expected
        assert powersum_additivity_check(c, 2, budget)
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print("criterion 5 PASS: quotient genera, stratum counts, and power-sum "
          "additivity for g in {3,5,7,10,30} (%.1fs)" % elapsed)


def test_c06_hyperelliptic_family_property():
    t0 = time.time()
    budget = Budget(log2_points=16)
    rng = random.Random(20240221)
    for h in (1, 2, 3):
        for deg in (1, 2):
            F = make_field(deg)
            for _ in range(50):
                coeffs = [rng.randrange(F.order) for _ in range(h)]
                coeffs.append(rng.randrange(1, F.order))
                R = lin(F, coeffs)
                rhs = times_x(R)
                g = as_genus(rhs)
                assert g == 1 << (h - 1)
                series = count_series(QuotientCurve(0, rhs, g), g, budget)
                L = lpoly_from_counts(series)
                assert len(L.coeffs) - 1 == 2 * g
                np_report = newton_polygon(L, deg)
                assert np_report.supersingular
                assert set(np_report.slopes) == {Fraction(deg, 2)}
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print("criterion 6 PASS: 300 pseudorandom hyperelliptic members have "
          "L-degree 2^h and 1/2 slopes (%.1fs)" % elapsed)


def test_c07_known_elliptic_values():
    c = build_prime_field(decompose(1))
    assert as_dict(c.derived_T()) == {3: 1}
    assert count_points(c, 1) == 3 and count_points(c, 2) == 9
    L = lpoly_from_counts(CountSeries(2, (3,), 1))
    assert L.coeffs == (1, 0, 2)
    assert not newton_polygon(LPoly(2, (1, 1, 2)), 1).supersingular
    print("criterion 7 PASS: y^2+y=x^3 has counts (3,9), L = 1+2T^2; "
          "1+T+2T^2 rejected")


def test_c08_moduli_bounds():
    t0 = time.time()
    for n in range(1, 11):
        assert moduli_lower_bound(decompose(1 << n)) == n
    assert moduli_lower_bound(decompose(221)) == 12
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print("criterion 8 PASS: moduli bounds n for 2^n (n = 1..10) and 12 for "
          "221 (%.2fs)" % elapsed)


def test_c09_classification():
    t0 = time.time()
    F16 = make_field(4)
    rng = random.Random(42)
    for _ in range(100):
        F = make_field(rng.choice((2, 3, 4)))
        h = rng.randrange(1, 4)
        R = lin(F, [rng.randrange(F.order) for _ in range(h)]
                + [rng.randrange(1, F.order)])
        w = curves_isomorphic(R, R)
        assert w is not None
        emb = embedding_into(F, w.field)
        # the defining relation holds for the returned witness
        for i in range(1, h + 1):
            assert emb(R.coeff(i)) == w.field.mul(
                emb(R.coeff(i)), w.field.pow(w.rho, (1 << i) + 1))
    for c in range(2, 16):
        w = curves_isomorphic(lin(F16, [0, 0, 1]), lin(F16, [0, 0, c]))
        assert w is not None
        emb = embedding_into(F16, w.field)
        assert w.field.pow(w.rho, 5) == emb(c)
    g5 = F16.pow(2, 3)
    assert F16.pow(g5, 5) == 1 and g5 != 1
    assert curves_isomorphic(lin(F16, [0, 1, 1]), lin(F16, [0, 1, g5])) is None
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print("criterion 9 PASS: reflexivity on 100 random inputs, monomial "
          "witnesses, order-5 obstruction (%.1fs)" % elapsed)


def test_c10_large_genus_property_based(capsys):
    budget = Budget(log2_points=14)
    for g in (221, 1000, 4096):
        d = decompose(g)
        c = build_prime_field(d)
        assert stratum_certificate(d).total == g
        assert certificate(build_components(d)).total == g
        assert is_irreducible(c)
        rc, out1 = run_cli(capsys, "construct", "--mode", "f2", str(g), "--json")
        rc2, out2 = run_cli(capsys, "construct", "--mode", "f2", str(g), "--json")
        assert rc == rc2 == 0 and out1 == out2
        rep = verify_supersingular(c, budget)
        assert rep.supersingular in (True, "certified")
        numeric = [p for p in rep.pieces if p.get("mode") == "numeric"]
        certified = [p for p in rep.pieces
                     if p.get("mode") == "certified-not-recounted"]
        assert all(p["supersingular"] is True for p in numeric)
        assert all(p["supersingular"] == "certified" for p in certified)
        if "count" in (rep.pieces[0] if rep.pieces else {}):
            total = sum(p["count"] * p["genus"] for p in rep.pieces)
        else:
            total = sum(p["genus"] for p in rep.pieces)
        assert total == g
    # the 221 fixture ships with the repo and matches fresh output
    with open(os.path.join(FIXTURES, "g221_f2.json")) as fh:
        fixture = fh.read()
    rc, out = run_cli(capsys, "construct", "--mode", "f2", "221", "--json")
    assert rc == 0 and out == fixture
    print("criterion 10 PASS: g in {221, 1000, 4096} verified property-based "
          "with certified-not-recounted labels for out-of-budget pieces")
