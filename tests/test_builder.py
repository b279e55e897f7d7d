from operator import xor

import pytest
from hypothesis import example, given, settings, strategies as st

from sscurves.builder import (FibreProductSpec, build_components,
                              build_prime_field, certificate,
                              fibre_combinations, glue_single_block,
                              stratum_certificate, to_standard_form)
from sscurves.decomp import decompose
from sscurves.field import _xor_rows, f2_span, make_field
from sscurves.linops import (as_genus, as_reduce, lin, lin_add, sparse,
                             sparse_twist, times_x)
from sscurves import jsonio

from sparse_helpers import as_dict, sparse_add, sparse_scale

F2 = make_field(1)
F16 = make_field(4)
A = 2


def test_build_components_examples():
    spec = build_components(decompose(30))
    assert spec.field is F16
    assert [as_dict(f) for f in spec.components] == [
        {5: 1}, {5: A}, {5: F16.pow(A, 2)}, {5: F16.pow(A, 3)}]
    spec = build_components(decompose(1))
    assert spec.field is F2 and [as_dict(f) for f in spec.components] == [{3: 1}]
    spec = build_components(decompose(5))
    assert spec.field is F2
    assert [as_dict(f) for f in spec.components] == [{3: 1}, {5: 1}]


def test_components_combinations_stay_odd():
    spec = build_components(decompose(109))
    for _, f in fibre_combinations(spec):
        d = f.degree
        assert d % 2 == 1 and (d - 1) & (d - 2) == 0   # of the form 2^u + 1


def test_certificate_examples():
    assert certificate(build_components(decompose(30))).strata == ((15, 2),)
    assert certificate(build_components(decompose(1))).strata == ((1, 1),)
    cert = certificate(build_components(decompose(5)))
    assert cert.strata == ((1, 1), (2, 2)) and cert.total == 5


def test_certificate_detects_bad_spec():
    # dependent components: some combination reduces to a constant
    bad = build_components(decompose(5))
    broken = FibreProductSpec(bad.field, (bad.components[0], bad.components[0]))
    with pytest.raises(AssertionError):
        certificate(broken)


def exhaustive_genus_counts(spec):
    """Oracle: (error, {genus: members}) from every nonzero combination.

    The error is the one ``certificate`` must raise: ValueError when some
    reduced degree d >= 3 is not of the form 2^u + 1 or some component
    exponent has binary weight 3 or more, else AssertionError when some
    combination reduces to an even degree (a constant or zero).  A reduced
    degree 1 (x^2 reduces to x) is a member of genus 0.
    """
    seen = {}
    error = None
    if any(e.bit_count() > 2 for f in spec.components for e, _ in f.terms):
        error = ValueError
    for _, f in fibre_combinations(spec):
        r = as_reduce(f)
        d = r.degree
        if r.is_zero() or d % 2 == 0:
            error = error or AssertionError
        elif (d - 1) & (d - 2):
            error = ValueError
        else:
            g = as_genus(f)
            seen[g] = seen.get(g, 0) + 1
    return error, seen


def _spec(n, *components):
    F = make_field(n)
    return FibreProductSpec(F, tuple(sparse(F, c) for c in components))


@st.composite
def fibre_products(draw):
    """Up to 5 components over F_2..F_16: a top term, mostly one reducing to
    x^(2^u + 1), and up to two terms of odd or even exponent or constants.
    Few coefficients are drawn, so that spans collide."""
    F = make_field(draw(st.integers(1, 4)))
    tops = st.sampled_from((3, 5, 6, 9, 10, 12, 17, 18, 20, 33) * 3
                           + (0, 1, 7))
    lows = st.sampled_from((0, 1, 2, 3, 4, 5, 6, 7, 8, 10))
    coeffs = st.integers(1, min(F.order - 1, 5))
    comps = []
    for _ in range(draw(st.integers(1, 5))):
        terms = {draw(tops): draw(coeffs)}
        for _ in range(draw(st.integers(0, 2))):
            e = draw(lows)
            terms[e] = terms.get(e, 0) ^ draw(coeffs)
        comps.append(sparse(F, terms))
    return FibreProductSpec(F, tuple(comps))


@settings(max_examples=300, deadline=None)
@given(fibre_products())
@example(_spec(1, {5: 1}, {5: 1, 3: 1}))            # genus 5, not 6
@example(_spec(1, {5: 1}, {5: 1}))                  # dependent
@example(_spec(1, {9: 1, 7: 1}, {9: 1}))            # the span leads with x^7
@example(_spec(1, {9: 1, 7: 1}, {5: 1}))            # x^7 leads nothing
@example(_spec(2, {10: 1, 3: 2}, {5: 3, 0: 1}))     # x^10 reduces to x^5
def test_span_strata_match_exhaustive_genus_counts(spec):
    error, seen = exhaustive_genus_counts(spec)
    if error:
        with pytest.raises(error):
            certificate(spec)
        return
    got = {}
    for count, g in certificate(spec).strata:
        got[g] = got.get(g, 0) + count
    assert got == seen


def test_fibre_combinations_are_the_masked_sums():
    spec = _spec(2, {5: 1, 0: 1}, {3: 2}, {9: 3, 5: 1}, {6: 1})
    masks = []
    for mask, f in fibre_combinations(spec):
        masks.append(mask)
        want = sparse(spec.field, {})
        for i, comp in enumerate(spec.components):
            if mask >> i & 1:
                want = sparse_add(want, comp)
        assert f == want
    assert masks == list(range(1, 16))
    # the same walk over field elements and over linearized polynomials
    rows = [3, 5, 0, 9, 6]
    assert f2_span(rows, 0, xor) == [_xor_rows(rows, mask)
                                     for mask in range(32)]
    F = spec.field
    basis = [lin(F, [1, 2]), lin(F, [0, 0, 3]), lin(F, [1, 2, 3]), lin(F, [3])]
    for mask, R in enumerate(f2_span(basis, lin(F, []), lin_add)):
        want = lin(F, [])
        for i, B in enumerate(basis):
            if mask >> i & 1:
                want = lin_add(want, B)
        assert R == want


def test_glued_strata_come_from_the_equation():
    # every single-block genus below 200: the glued equation's own strata
    # are the block's stratum
    for g in range(1, 200):
        d = decompose(g)
        if d.t == 1:
            assert glue_single_block(build_components(d)).strata == d.strata


def test_glue_genus30():
    glued = glue_single_block(build_components(decompose(30)))
    assert glued.field is F16
    assert glued.S.coeffs == (1, 0, 0, 0, 1)
    T = glued.derived_T()
    assert as_dict(T) == {40: F16.pow(A, 6), 20: 1,
                           10: F16.pow(A, 12), 5: F16.pow(A, 9)}
    assert [R.coeffs for R in glued.R_list] == [
        (0, 0, F16.pow(A, 9)), (0, 0, F16.pow(A, 6)),
        (0, 0, 1), (0, 0, F16.pow(A, 12))]


def sparse_glue_oracle(spec):
    """T = sum_j gamma^j Tr(gamma^j x^(2^u + 1)), term by term."""
    F = spec.field
    (u, _), = spec.strata
    T = sparse(F, {})
    c = 1
    for _ in range(F.degree):
        for l in range(F.degree):
            T = sparse_add(T, sparse_scale(c, sparse_twist(
                sparse(F, {(1 << u) + 1: c}), l)))
        c = F.mul(c, F.generator)
    return T


def test_glue_genus30_oracle():
    # independent expansion: sum_j a^j * (a^(8j) x^40 + a^(4j) x^20 +
    #                                     a^(2j) x^10 + a^j x^5)
    F = F16
    coeffs = {40: 0, 20: 0, 10: 0, 5: 0}
    for j in range(4):
        aj = F.pow(A, j)
        coeffs[40] ^= F.mul(aj, F.pow(A, 8 * j))
        coeffs[20] ^= F.mul(aj, F.pow(A, 4 * j))
        coeffs[10] ^= F.mul(aj, F.pow(A, 2 * j))
        coeffs[5] ^= F.mul(aj, aj)
    glued = glue_single_block(build_components(decompose(30)))
    assert as_dict(glued.derived_T()) == coeffs
    # and every single-block genus below 200 against the sparse expansion
    for g in range(1, 200):
        d = decompose(g)
        if d.t == 1:
            spec = build_components(d)
            glued = glue_single_block(spec)
            assert glued.derived_T().terms == sparse_glue_oracle(spec).terms, g


def test_glue_small():
    g1 = glue_single_block(build_components(decompose(1)))
    assert g1.S.coeffs == (1, 1) and as_dict(g1.derived_T()) == {3: 1}
    g3 = glue_single_block(build_components(decompose(3)))
    F4 = make_field(2)
    assert g3.field is F4 and g3.S.coeffs == (1, 0, 1)
    assert as_dict(g3.derived_T()) == {3: 2}


def test_glue_rejects_multiblock():
    with pytest.raises(ValueError):
        glue_single_block(build_components(decompose(5)))


def test_prime_field_genus221():
    c = build_prime_field(decompose(221))
    assert c.S.coeffs == (1, 1, 1, 0, 1, 1, 1)   # y^64+y^32+y^16+y^4+y^2+y
    tables = [as_dict(times_x(R)) for R in c.R_list]
    assert tables == [{}, {9: 1}, {9: 1}, {}, {9: 1, 5: 1}, {9: 1, 5: 1, 3: 1}]
    assert as_dict(c.derived_T()) == {288: 1, 160: 1, 144: 1, 96: 1,
                                       80: 1, 36: 1, 18: 1}


def test_prime_field_small():
    c = build_prime_field(decompose(1))
    assert c.S.coeffs == (1, 1) and as_dict(c.derived_T()) == {3: 1}
    c = build_prime_field(decompose(30))
    assert c.S.coeffs == (1, 0, 0, 0, 1) and as_dict(c.derived_T()) == {40: 1}
    c = build_prime_field(decompose(5))
    assert c.S.coeffs == (1, 0, 1)
    assert as_dict(c.derived_T()) == {10: 1, 6: 1, 5: 1}


def test_prime_field_coefficients_are_bits():
    for g in (3, 12, 221, 1000, 4096):
        c = build_prime_field(decompose(g))
        assert all(a in (0, 1) for R in c.R_list for a in R.coeffs)
        assert all(a in (0, 1) for a in c.S.coeffs)


def test_to_standard_form():
    glued = glue_single_block(build_components(decompose(30)))
    back = to_standard_form(glued.derived_T(), 4)
    assert tuple(back) == glued.R_list
    # x^3 with n=1
    assert to_standard_form(sparse(F2, {3: 1}), 1)[0].coeffs == (0, 1)
    with pytest.raises(ValueError):
        to_standard_form(sparse(F2, {7: 1}), 2)      # odd part 7
    with pytest.raises(ValueError):
        to_standard_form(sparse(F2, {12: 1}), 2)     # valuation 2 >= n
    with pytest.raises(ValueError):
        to_standard_form(sparse(F2, {4: 1}), 3)      # odd part 1


def test_roundtrip_range():
    for g in range(1, 257):
        c = build_prime_field(decompose(g))
        assert tuple(to_standard_form(c.derived_T(), c.n)) == c.R_list


def test_certificates_total_small_range():
    for g in range(1, 300):
        d = decompose(g)
        assert certificate(build_components(d)).total == g
        assert stratum_certificate(d).total == g


def test_construction_determinism():
    for g in (30, 221):
        d = decompose(g)
        doc1 = jsonio.dumps(jsonio.curve_to_json(build_prime_field(d),
                                                 {"g": g, "mode": "f2", "glue": False}))
        doc2 = jsonio.dumps(jsonio.curve_to_json(build_prime_field(decompose(g)),
                                                 {"g": g, "mode": "f2", "glue": False}))
        assert doc1 == doc2
        spec1 = jsonio.dumps(jsonio.curve_to_json(build_components(d),
                                                  {"g": g, "mode": "f2m", "glue": False}))
        spec2 = jsonio.dumps(jsonio.curve_to_json(build_components(decompose(g)),
                                                  {"g": g, "mode": "f2m", "glue": False}))
        assert spec1 == spec2
