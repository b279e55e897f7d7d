import json
import os
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sscurves import field, jsonio, zeta
from sscurves.builder import (CurveSpec, FibreProductSpec, build_components,
                              build_prime_field, glue_single_block)
from sscurves.decomp import decompose
from sscurves.field import F2LinearMap, extend_and_embed, make_field
from sscurves.gf2x import smallest_irreducible
from sscurves.limits import Budget, BudgetError, CapacityError
from sscurves.linops import definition_field, lin, lin_eval, sparse
from sscurves.quotient import QuotientCurve, is_irreducible
from sscurves.zeta import (CountSeries, InconsistentCounts, LPoly,
                           count_artin_schreier, count_points, count_series,
                           lpoly_from_counts, newton_polygon,
                           powersum_additivity_check, predicted_count,
                           verify_supersingular)

from poly_helpers import check_functional_equation, lin_compose

F2 = make_field(1)
F4 = make_field(2)
B16 = Budget(log2_points=16)
HALF = Fraction(1, 2)


def sparse_eval(f, x):
    """Oracle: f(x) term by term."""
    F = f.field
    acc = 0
    for e, c in f.terms:
        acc ^= F.mul(c, F.pow(x, e)) if e else c
    return acc


def trace_count(fs):
    """Oracle: 1 + 2^w #{x : Tr f(x) = 0 for each of the w polynomials f},
    by a direct loop over x with the absolute trace."""
    F = fs[0].field
    zeros = sum(not any(F.trace(sparse_eval(f, x)) for f in fs)
                for x in F.elements())
    return 1 + (zeros << len(fs))


def kernel_size(lm):
    return 1 << len(lm.kernel_basis())


def image_contains(lm, target):
    return lm.solve(target) is not None


def brute_count_artin_schreier(F, f):
    """Oracle: direct double loop over (x, y), plus the place at infinity."""
    n = 1
    for x in F.elements():
        fx = 0
        for e, c in f.terms:
            fx ^= F.mul(c, F.pow(x, e))
        for y in F.elements():
            if F.sqr(y) ^ y == fx:
                n += 1
    return n


def brute_count_single(F, c):
    """Oracle for S(y) = T(x): direct double loop."""
    T = c.derived_T()
    n = 1
    for x in F.elements():
        tx = sparse_eval(T, x)
        for y in F.elements():
            if lin_eval(c.S, y) == tx:
                n += 1
    return n


def brute_count_fibre(F, spec):
    """Oracle for a fibre product: loop over x and all y-tuples."""
    k = len(spec.components)
    n = 1
    for x in F.elements():
        vals = [sparse_eval(f, x) for f in spec.components]
        fibre = 1
        for v in vals:
            fibre *= sum(1 for y in F.elements() if F.sqr(y) ^ y == v)
        n += fibre
    return n


def test_count_examples():
    g1 = build_prime_field(decompose(1))
    assert count_points(g1, 1) == 3
    assert count_points(g1, 2) == 9
    c221 = build_prime_field(decompose(221))
    assert count_points(c221, 1) == 3
    q5 = QuotientCurve(0, sparse(F2, {5: 1}), 2)
    assert count_points(q5, 1) == 3
    assert count_points(q5, 2) == 5


def test_count_against_brute_oracle():
    # odd exponents of binary weight at most 2, the only ones counted
    rng = random.Random(77)
    for _ in range(25):
        terms = {rng.choice((1, 3, 5, 9, 17, 33)): rng.randrange(1, 4)
                 for _ in range(rng.randrange(1, 4))}
        f = sparse(F4, terms)
        got = count_artin_schreier(f, 1)
        assert got == brute_count_artin_schreier(F4, f)


def test_count_single_equation_matches_fibre_product():
    # the prime-field curve and the product of its quotients share counts
    c = build_prime_field(decompose(3))
    spec = build_components(decompose(3))
    glued = glue_single_block(spec)
    for k in (1, 2):
        assert count_points(spec, k) == count_points(glued, k)


def random_curve(rng, F, max_n):
    """A seeded single equation over F with S not over F_2, n <= max_n."""
    n = rng.randrange(1, max_n + 1)
    S = lin(F, [rng.randrange(2, F.order)]
            + [rng.randrange(F.order) for _ in range(n - 1)] + [1])
    R_list = [lin(F, [rng.randrange(F.order)
                      for _ in range(rng.randrange(1, 4))])
              for _ in range(n)]
    if all(R.is_zero() for R in R_list):
        R_list[0] = lin(F, [0, 1])
    return CurveSpec(F, S, tuple(R_list))


def test_count_single_against_brute_oracle():
    # the linear-algebra fibre counting agrees with the double loop,
    # including over fields where S does not split completely
    from sscurves.field import extend_and_embed
    for g in (1, 3, 5, 7, 10):
        c = build_prime_field(decompose(g))
        for k in (1, 2, 3):
            ext, emb = extend_and_embed(c.field, k)
            brute = brute_count_single(ext, type(c)(ext, c.S.map_field(emb),
                                                    tuple(R.map_field(emb)
                                                          for R in c.R_list)))
            assert count_points(c, k) == brute, (g, k)
    glued = glue_single_block(build_components(decompose(30)))
    assert count_points(glued, 1) == brute_count_single(glued.field, glued)
    # S outside F_2 over F_4 and F_8, n = 1..3, up to 64 field elements
    rng = random.Random(14)
    checked = 0
    while checked < 20:
        c = random_curve(rng, make_field(rng.randrange(2, 4)), 3)
        if not is_irreducible(c):
            continue
        for k in range(1, 6 // c.field.degree + 1):
            ext, emb = extend_and_embed(c.field, k)
            brute = brute_count_single(ext, CurveSpec(
                ext, c.S.map_field(emb),
                tuple(R.map_field(emb) for R in c.R_list)))
            assert count_points(c, k) == brute, (c, k)
        checked += 1


def test_count_fibre_against_brute_oracle():
    for g in (3, 5, 30):
        spec = build_components(decompose(g))
        assert count_points(spec, 1) == brute_count_fibre(spec.field, spec), g


def test_maximal_curve_value():
    # y^2+y = x^5 attains the Weil bound over F_16: 16 + 1 + 2*2*4 = 33
    q5 = QuotientCurve(0, sparse(F2, {5: 1}), 2)
    assert count_points(q5, 4) == 33


def test_weight_three_exponent_is_refused():
    # Tr x^7 and Tr x^15 are no quadratic forms: no count takes them
    for e, w in ((7, 3), (15, 4)):
        f = sparse(F2, {e: 1})
        message = ("exponent %d has binary weight %d; only weights up to 2 "
                   "are counted" % (e, w))
        for k in (1, 2, 3, 4):
            ext, emb = extend_and_embed(F2, k)
            with pytest.raises(ValueError, match=message):
                zeta._quadratic_form(ext, f.map_field(emb).terms)
            with pytest.raises(ValueError, match=message):
                count_artin_schreier(f, k)


def test_weight_three_fibre_file_through_cli(tmp_path, capsys):
    # a hand-written fibre product with an x^7 term is refused at load
    from sscurves.cli import main
    a = F4.generator
    comps = (sparse(F4, {9: 1, 7: a, 0: 1}), sparse(F4, {5: a, 3: 1, 1: a}))
    doc = {"format": "curve", "kind": "fibre_product",
           "field": {"degree": 2, "modulus": "0x7"},
           "components": [{"terms": [{"exp": e, "coeff": hex(c)}
                                     for e, c in f.terms]} for f in comps]}
    path = tmp_path / "weight3.json"
    path.write_text(json.dumps(doc))
    message = "exponent 7 has binary weight 3; only weights up to 2 are counted"
    with pytest.raises(ValueError, match=message):
        jsonio.load_curve(str(path))
    for k in (1, 2):
        assert main(["count", str(path), "--json", "--ext", str(k)]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message), k


@pytest.mark.parametrize("n", range(1, 9))
def test_enumerate_without_tables(n):
    # the exhaustive oracles against the quadratic route, which builds no
    # discrete-log table: the prime field, x = 0, constant terms and
    # several components included
    F = field.BinaryField(n, smallest_irreducible(n))
    rng = random.Random(n)
    exps = (0, 1, 2, 3, 5, 6, 9, 12, 17)
    for _ in range(3):
        comps = [sparse(F, {rng.choice(exps): rng.randrange(F.order)
                            for _ in range(rng.randrange(1, 5))})
                 for _ in range(rng.randrange(1, 4))]
        spec = FibreProductSpec(F, tuple(comps))
        want = (brute_count_artin_schreier(F, comps[0]),
                brute_count_fibre(F, spec))
        assert (trace_count(comps[:1]), trace_count(comps)) == want
        assert (zeta._count(F, [comps[0].terms]),
                zeta._count(F, [f.terms for f in comps])) == want
    assert F.tables == (None,)


# -- the quadratic-form route against enumeration -----------------------------
#
# Right-hand sides are drawn over F_2 .. F_32 and counted over extensions of
# degree k <= 2.  A top term x^(2^u + 1) above every other term's reduction
# keeps the reduced degree odd, as counting requires.

SMALL = settings(max_examples=60, deadline=None)


@st.composite
def quadratic_rhs(draw, F, u):
    """Terms c x^e with binary weight of e <= 2, reducing below x^(2^u+1)."""
    terms = {(1 << u) + 1: draw(st.integers(1, F.order - 1))}
    for _ in range(draw(st.integers(0, 4))):
        b = draw(st.integers(0, 5))
        kind = draw(st.sampled_from(("const", "linear", "quadratic")))
        if kind == "const":
            e = 0
        elif kind == "linear":
            e = 1 << b
        else:
            e = (1 << (b + draw(st.integers(1, u - 1)))) | (1 << b)
        terms[e] = terms.get(e, 0) ^ draw(st.integers(0, F.order - 1))
    return sparse(F, terms)


@SMALL
@given(st.data(), st.integers(1, 5), st.integers(1, 2), st.integers(2, 4))
def test_quadratic_route_matches_enumeration(data, d, k, u):
    F = make_field(d)
    f = data.draw(quadratic_rhs(F, u))
    ext, emb = extend_and_embed(F, k)
    assert count_artin_schreier(f, k) == trace_count([f.map_field(emb)])


@SMALL
@given(st.data(), st.integers(1, 5), st.integers(1, 2),
       st.lists(st.integers(2, 4), min_size=1, max_size=3, unique=True))
def test_quadratic_route_matches_enumeration_fibre(data, d, k, tops):
    F = make_field(d)
    spec = FibreProductSpec(
        F, tuple(data.draw(quadratic_rhs(F, u)) for u in tops))
    ext, emb = extend_and_embed(F, k)
    assert count_points(spec, k) == trace_count(
        [f.map_field(emb) for f in spec.components])


def per_basis_form(F, terms):
    """Oracle: the form of Tr f(x), evaluating H and P at each basis vector."""
    n = F.degree
    const = lam = 0
    h = [0] * n
    for e, c in terms:
        if e == 0:
            const ^= c
            continue
        b = (e & -e).bit_length() - 1
        a = e.bit_length() - 1
        c = F.frobenius(c, -b)
        if a == b:
            lam ^= c
        else:
            h[(a - b) % n] ^= c
    p = list(h)
    for s, hs in enumerate(h):
        if hs:
            p[-s % n] ^= F.frobenius(hs, -s)

    def trace_row(z):
        return sum(F.trace(F.mul(z, 1 << j)) << j for j in range(n))

    H, P = lin(F, h), lin(F, p)
    linear = trace_row(lam)
    rows = []
    for i in range(n):
        x = 1 << i
        linear ^= trace_row(lin_eval(H, x)) & x
        rows.append(trace_row(lin_eval(P, x)))
    return F.trace(const), linear, rows


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 6), st.integers(1, 4), st.integers(2, 4))
def test_quadratic_form_matches_per_basis_construction(data, d, k, u):
    F = make_field(d)
    ext, emb = extend_and_embed(F, k)
    terms = data.draw(quadratic_rhs(F, u)).map_field(emb).terms
    assert zeta._quadratic_form(ext, terms) == per_basis_form(ext, terms)


@st.composite
def wide_terms(draw, F):
    """A constant, a linear term, a shift above n/2 and up to 3 more terms.

    Exponents 2^a + 2^b run past 2^n, so shifts a - b wrap modulo n.
    """
    n = F.degree
    coeff = st.integers(1, F.order - 1)
    b = st.integers(0, n - 1)
    terms = [(0, draw(coeff))]
    terms.append((1 << draw(b), draw(coeff)))
    shifts = [draw(st.integers(n // 2 + 1, n - 1))]
    shifts += draw(st.lists(st.integers(1, 2 * n - 1), max_size=3))
    for s in shifts:
        low = draw(b)
        terms.append(((1 << (low + s)) | (1 << low), draw(coeff)))
    return sparse(F, terms).terms


@pytest.mark.parametrize("n", [25, 31, 40, 48, 61, 64])
@settings(max_examples=5, deadline=None)
@given(st.data())
def test_quadratic_form_matches_per_basis_construction_wide(n, data):
    # the rows A + A^T from one chain against the rows of H + H*
    F = make_field(n)
    terms = data.draw(wide_terms(F))
    assert zeta._quadratic_form(F, terms) == per_basis_form(F, terms)


def enumerate_single(c, k):
    """Oracle for S(y) = T(x): |ker S| points over each x with T(x) in im S."""
    ext, emb = extend_and_embed(c.field, k)
    S = c.S.map_field(emb)
    lm = F2LinearMap([lin_eval(S, 1 << i) for i in range(ext.degree)])
    T = c.derived_T().map_field(emb)
    return 1 + sum(kernel_size(lm) for x in ext.elements()
                   if image_contains(lm, sparse_eval(T, x)))


@SMALL
@given(st.data(), st.integers(1, 5), st.integers(1, 2), st.integers(0, 2))
def test_quadratic_route_matches_enumeration_single(data, d, k, h):
    # S = B(y^2 + y) vanishes at y = 1, so dim ker S* = dim ker S >= 1
    F = make_field(d)
    coeff = st.integers(0, F.order - 1)
    B = lin(F, [data.draw(st.integers(1, F.order - 1))]
            + [data.draw(coeff) for _ in range(h - 1)] + [1] if h else [1])
    S = lin_compose(B, lin(F, [1, 1]))
    R_list = tuple(lin(F, [data.draw(coeff) for _ in range(data.draw(
        st.integers(0, 3)))]) for _ in range(S.h))
    assume(any(not R.is_zero() for R in R_list))
    c = CurveSpec(F, S, R_list).validate()
    assume(is_irreducible(c))
    assert count_points(c, k) == enumerate_single(c, k)


def test_count_budget():
    c = build_prime_field(decompose(1))
    with pytest.raises(BudgetError):
        count_points(c, 30, Budget(log2_points=16))


def test_count_rejects_bad_right_sides():
    with pytest.raises(ValueError):
        count_artin_schreier(sparse(F2, {4: 1, 1: 1}), 1)   # reduces to zero
    with pytest.raises(ValueError):
        count_artin_schreier(sparse(F2, {}), 1)


def test_count_memo_keeps_the_budget():
    # a count made under a large budget is refused again under a small one
    f = sparse(F2, {5: 1, 3: 1})
    assert count_artin_schreier(f, 20, Budget(log2_points=24)) == (
        count_artin_schreier(f, 20, Budget(log2_points=24)))
    for small in (Budget(log2_points=16), Budget(max_degree=16)):
        with pytest.raises(BudgetError):
            count_artin_schreier(f, 20, small)


def test_count_memo_keeps_the_degree_check():
    for terms in ({0: 1}, {4: 1, 1: 1}, {2: 1, 1: 1, 0: 1}):
        f = sparse(F4, terms)
        for _ in range(2):
            with pytest.raises(ValueError):
                count_artin_schreier(f, 1)


def _definition_degree(f):
    """Oracle: the least divisor d of the field's degree with every
    coefficient fixed by Frobenius^d."""
    F = f.field
    return next(d for d in range(1, F.degree + 1) if F.degree % d == 0
                and all(F.frobenius(c, d) == c for _, c in f.terms))


def _fixture_curves():
    fixtures = os.path.join(os.path.dirname(__file__), "fixtures")
    names = sorted(f for f in os.listdir(fixtures) if f.endswith(".json"))
    return ([(n, jsonio.load_curve(os.path.join(fixtures, n))) for n in names]
            + [("f2m g63", build_components(decompose(63)))])


@pytest.mark.parametrize("budget", [zeta.DEFAULT_BUDGET,
                                    Budget(log2_points=14)])
def test_ladder_additivity_matches_a_fresh_check(budget):
    # the ladder's additivity check reads the counts it made; the public
    # check counts everything afresh, and the two must agree
    for name, curve in _fixture_curves():
        try:
            fresh = powersum_additivity_check(curve, 2, budget)
        except (BudgetError, CapacityError):
            fresh = "skipped (budget)"
        report = verify_supersingular(curve, budget, kmax=2)
        assert report.checks["powersum_additivity"] == fresh, name


def test_additivity_reads_the_ladder_counts(monkeypatch):
    # in one ladder on f2m g63, the pieces counted over the ambient field
    # reach no quadratic form again in the additivity check
    spec = build_components(decompose(63))
    count, form, additive = (zeta.count_artin_schreier, zeta._quadratic_form,
                             zeta._additive)
    formed = {"ladder": set(), "additivity": set()}
    counting, phase, ambient = [], ["ladder"], set()

    def count_spy(rhs, k, budget=zeta.DEFAULT_BUDGET):
        counting.append((rhs, k))
        try:
            return count(rhs, k, budget)
        finally:
            counting.pop()

    def form_spy(F, terms):
        if counting:
            formed[phase[0]].add(counting[-1])
        return form(F, terms)

    def additive_spy(curve, pieces, kmax, budget, classes):
        phase[0] = "additivity"
        ambient.update((rhs, k) for _, rhs, _ in pieces
                       for k in range(1, kmax + 1))
        return additive(curve, pieces, kmax, budget, classes)

    monkeypatch.setattr(zeta, "count_artin_schreier", count_spy)
    monkeypatch.setattr(zeta, "_quadratic_form", form_spy)
    monkeypatch.setattr(zeta, "_additive", additive_spy)
    report = verify_supersingular(spec, kmax=2)
    assert report.supersingular is True
    assert report.checks["powersum_additivity"] is True
    reused = formed["ladder"] & ambient
    assert reused and formed["additivity"]
    assert not formed["additivity"] & reused


def random_quadratic_piece(rng, F):
    """Seeded right-hand side with exponents of binary weight <= 2, of odd
    reduced degree 2^u + 1 (the other terms reduce below it)."""
    u = rng.randint(2, 4)
    terms = {(1 << u) + 1: rng.randrange(1, F.order)}
    for _ in range(rng.randint(0, 3)):
        odd = rng.choice((0, 1, (1 << rng.randrange(1, u)) + 1))
        e = odd << rng.randint(0, 3)
        terms[e] = terms.get(e, 0) ^ rng.randrange(F.order)
    return sparse(F, terms)


def test_frobenius_conjugates_share_counts_and_class_key():
    rng = random.Random(24)
    for _ in range(40):
        F = make_field(rng.randint(1, 6))
        f = random_quadratic_piece(rng, F)
        k = rng.randint(1, 3)
        conjugates = [sparse(F, {e: F.frobenius(c, i) for e, c in f.terms})
                      for i in range(F.degree)]
        assert len({count_artin_schreier(g, k) for g in conjugates}) == 1, f
        assert len({zeta._class_key(g) for g in conjugates}) == 1, f
    # equal term tuples over different fields are different classes
    F8 = make_field(3)
    assert (zeta._class_key(sparse(F4, {3: 0b10}))
            != zeta._class_key(sparse(F8, {3: 0b10})))


def test_ladder_counts_once_per_class(monkeypatch):
    # f2m g63 has 63 numeric pieces in 13 Frobenius classes
    calls = []
    series = zeta.count_series

    def spy(curve, genus, budget=zeta.DEFAULT_BUDGET):
        calls.append(curve)
        return series(curve, genus, budget)

    monkeypatch.setattr(zeta, "count_series", spy)
    report = verify_supersingular(build_components(decompose(63)), kmax=2)
    assert [p["mode"] for p in report.pieces] == ["numeric"] * 63
    assert len(calls) == 13


@pytest.mark.parametrize("build, expected", [
    # 63 fibre combinations in 13 classes, every class counted; a
    # combination's genus is read off its right-hand side
    (lambda: build_components(decompose(63)),
     {"_class_key": 63, "definition_field": 13, "as_genus": 13,
      "ladder_route": 14, "count_series": 13}),
    # 16,383 pieces in 1,181 classes, 20 of them counted; each genus comes
    # from the piece's row
    (lambda: build_prime_field(decompose(16383)),
     {"_class_key": 16383, "definition_field": 20, "as_genus": 0,
      "ladder_route": 1182, "count_series": 20}),
], ids=["f2m_g63", "f2_g16383"])
def test_each_piece_is_keyed_once_and_each_class_checked_once(
        monkeypatch, build, expected):
    # one key per piece, the additivity check included; only a class's
    # first member is routed, and only a counted one is descended to its
    # field of definition; the curve itself is routed once more
    curve = build()
    calls = dict.fromkeys(expected, 0)

    def spy(fn_name, fn):
        def counted(*args, **kwargs):
            calls[fn_name] += 1
            return fn(*args, **kwargs)
        return counted

    for fn_name in expected:
        monkeypatch.setattr(zeta, fn_name,
                            spy(fn_name, getattr(zeta, fn_name)))
    verify_supersingular(curve, kmax=2)
    assert calls == expected


def test_report_says_irreducible_for_single_equation_curves_only():
    # the ladder's checks, then irreducibility, then additivity when asked
    single = build_prime_field(decompose(5))
    product = build_components(decompose(63))
    assert isinstance(product, FibreProductSpec)
    ladder = ["weil_bounds", "functional_equation_predictions",
              "lpoly_degree"]
    assert list(verify_supersingular(single).checks) == ladder + [
        "irreducible"]
    assert list(verify_supersingular(single, kmax=2).checks) == ladder + [
        "irreducible", "powersum_additivity"]
    assert "irreducible" not in verify_supersingular(product).checks
    assert "irreducible" not in verify_supersingular(product, kmax=2).checks


def test_class_key_chain_stops_at_the_field_of_definition(monkeypatch):
    # the chain of conjugates returns to rhs after d squarings, d the degree
    # of rhs's field of definition, and goes no further; the key gives d
    squarings = [0]
    sqr = field.BinaryField.sqr

    def spy(F, a):
        squarings[0] += 1
        return sqr(F, a)

    monkeypatch.setattr(field.BinaryField, "sqr", spy)
    curves = _fixture_curves() + [
        ("f2 g16383", build_prime_field(decompose(16383)))]
    degrees = set()
    for name, curve in curves:
        for label, rhs, _ in zeta._pieces(curve, zeta.DEFAULT_BUDGET):
            d = _definition_degree(rhs)
            squarings[0] = 0
            assert zeta._class_key(rhs)[1] == d, (name, label)
            assert squarings[0] == d * len(rhs.terms), (name, label)
            degrees.add((d, rhs.field.degree))
    assert any(d < n for d, n in degrees)


def test_additivity_weighs_each_class_by_its_members():
    # the classes' members are the pieces, and the check over the classes
    # holds where the sum over every piece, each counted on its own, holds
    several = False
    for name, curve in _fixture_curves():
        pieces = zeta._pieces(curve, zeta.DEFAULT_BUDGET)
        classes = zeta._classes(pieces)
        assert sum(c.members for c in classes.values()) == len(pieces), name
        several |= len(classes) < len(pieces)
        M = pieces[0][1].field.degree
        Q = 1 << M
        assert (count_points(curve, M // curve.field.degree) - (Q + 1)
                == sum(count_artin_schreier(rhs, 1) - (Q + 1)
                       for _, rhs, _ in pieces)), name
        assert powersum_additivity_check(curve, 1) is True, name
    assert several


@pytest.mark.parametrize("budget", [zeta.DEFAULT_BUDGET,
                                    Budget(log2_points=14)])
def test_each_member_entry_equals_a_fresh_count(budget):
    # every numeric entry, whether its class was counted for it or for an
    # earlier member, equals the entry built from a fresh count of its piece
    curves = _fixture_curves() + [
        ("f2 g1000", build_prime_field(decompose(1000))),
        ("f2m g1000", build_components(decompose(1000)))]
    for name, curve in curves:
        report = verify_supersingular(curve, budget)
        if report.pieces[0]["label"] == "self":
            rows = [(curve, None, report.genus)]
        else:
            rows = [(QuotientCurve(0, definition_field(
                         rhs, _definition_degree(rhs)), p["genus"]),
                     rhs, p["genus"])
                    for (_, rhs, _), p in zip(zeta._pieces(curve, budget),
                                              report.pieces)]
        for entry, (piece, rhs, genus) in zip(report.pieces, rows):
            if entry["mode"] != "numeric":
                continue
            series = count_series(piece, genus, budget)
            L = lpoly_from_counts(series)
            np_ok = newton_polygon(L, piece.field.degree).supersingular
            pred_ok = all(predicted_count(L, k) == series.counts[k - 1]
                          for k in range(genus + 1, len(series.counts) + 1))
            assert entry == {
                "label": entry["label"], "field_degree": piece.field.degree,
                "genus": genus, "mode": "numeric", "lpoly": list(L.coeffs),
                "supersingular": np_ok if rhs is None else np_ok and pred_ok,
            }, (name, entry["label"])


def test_lpoly_examples():
    assert lpoly_from_counts(CountSeries(2, (3, 9), 1)).coeffs == (1, 0, 2)
    assert lpoly_from_counts(CountSeries(2, (3, 5), 2)).coeffs == (1, 0, 0, 0, 4)
    assert lpoly_from_counts(CountSeries(2, (), 0)).coeffs == (1,)


def test_lpoly_functional_equation_and_predictions():
    c = build_prime_field(decompose(4))
    series = count_series(c, 4, B16)
    L = lpoly_from_counts(CountSeries(series.q, series.counts[:4], 4))
    assert check_functional_equation(L)
    assert predicted_count(L, 5) == series.counts[4]
    assert predicted_count(L, 6) == series.counts[5]
    for k in range(1, 5):
        assert predicted_count(L, k) == series.counts[k - 1]


def test_lpoly_inconsistent_counts():
    with pytest.raises(InconsistentCounts):
        lpoly_from_counts(CountSeries(2, (3, 4), 2))     # non-integral division
    with pytest.raises(InconsistentCounts):
        CountSeries(2, (100,), 1).check_weil()           # Weil violation
    with pytest.raises(InconsistentCounts):
        lpoly_from_counts(CountSeries(2, (4,), 0))       # genus 0 has q + 1


def test_wrong_genus_hypothesis_caught_by_predictions():
    # counts of the elliptic curve y^2+y = x^3, misread as genus 2: the
    # Newton identities still go through, but the functional-equation
    # prediction disagrees with the measured count at k = g+1
    c = build_prime_field(decompose(1))
    counts = [count_points(c, k) for k in range(1, 5)]
    L = lpoly_from_counts(CountSeries(2, tuple(counts[:2]), 2))
    assert any(predicted_count(L, k) != counts[k - 1] for k in (3, 4))


def test_newton_polygon_examples():
    r = newton_polygon(LPoly(2, (1, 0, 2)), 1)
    assert r.slopes == (HALF, HALF) and r.supersingular
    r = newton_polygon(LPoly(2, (1, 1, 2)), 1)
    assert r.slopes == (Fraction(0), Fraction(1)) and not r.supersingular
    r = newton_polygon(LPoly(2, (1, 0, 0, 0, 4)), 1)
    assert r.slopes == (HALF,) * 4 and r.supersingular
    # slopes sum to g*N through the endpoint
    r = newton_polygon(LPoly(4, (1, 0, 8, 0, 16)), 2)
    assert sum(r.slopes) == 2 * 2 and r.supersingular


def test_newton_polygon_ordinary_curve():
    # w^2+w = x^7 over F_2 has genus 3 but is not supersingular; no count
    # takes its weight-3 exponent, so the oracle counts it over F_2, F_4, F_8
    f = sparse(F2, {7: 1})
    counts = tuple(trace_count([f.map_field(extend_and_embed(F2, k)[1])])
                   for k in (1, 2, 3))
    L = lpoly_from_counts(CountSeries(2, counts, 3))
    r = newton_polygon(L, 1)
    assert not r.supersingular


def test_verify_small_curves():
    rep = verify_supersingular(build_prime_field(decompose(1)), B16)
    assert rep.supersingular is True and rep.lpoly.coeffs == (1, 0, 2)
    for g in range(2, 9):
        rep = verify_supersingular(build_prime_field(decompose(g)), B16)
        assert rep.supersingular is True
        assert len(rep.lpoly.coeffs) - 1 == 2 * g
        assert set(rep.slopes) == {HALF}


def test_verify_rejects_reducible():
    bad = CurveSpec(F2, lin(F2, [1, 0, 1]), (lin(F2, [0, 1]), lin(F2, [0, 1])))
    with pytest.raises(ValueError):
        verify_supersingular(bad, B16)


def test_verify_ladder_modes():
    # genus 221 over F_2: mixed numeric / certified pieces
    rep = verify_supersingular(build_prime_field(decompose(221)), B16)
    assert rep.supersingular == "certified"
    modes = {p["mode"] for p in rep.pieces}
    assert modes == {"numeric", "certified-not-recounted"}
    assert rep.checks["piece_genus_total"]
    assert sum(p["genus"] for p in rep.pieces) == 221
    numeric = [p for p in rep.pieces if p["mode"] == "numeric"]
    assert all(p["supersingular"] is True for p in numeric)
    # the alpha = 1 piece (w^2+w = x^3) is among the numeric ones, over F_2
    assert any(p["field_degree"] == 1 and p["genus"] == 1 for p in numeric)
    # genus 4096: single stratum, certified
    rep = verify_supersingular(build_prime_field(decompose(4096)), B16)
    assert rep.supersingular == "certified"


def test_verify_fibre_product_g30():
    spec = build_components(decompose(30))
    rep = verify_supersingular(spec, B16)
    assert rep.supersingular is True
    assert len(rep.pieces) == 15
    assert all(p["mode"] == "numeric" and p["genus"] == 2 for p in rep.pieces)


def test_verify_fibre_product_built_by_hand():
    # the strata come from the components, so a product built without any
    # bookkeeping is not mistaken for a rational curve
    rep = verify_supersingular(FibreProductSpec(F2, (sparse(F2, {3: 1}),)),
                               B16)
    assert rep.genus == 1 and rep.supersingular is True
    assert rep.lpoly.coeffs == (1, 0, 2) and "rational" not in rep.checks


def test_fibre_count_needs_odd_combinations_only():
    # counting asks no more than odd reduced degrees: a span with the
    # genus-0 member x is counted, dependent components not; an x^7
    # component passes the rank test and is refused for its weight
    spec = FibreProductSpec(F2, (sparse(F2, {5: 1, 1: 1}), sparse(F2, {5: 1})))
    assert spec.rank == spec.weight
    assert count_points(spec, 1) == brute_count_fibre(F2, spec)
    for comps in (({7: 1},), ({7: 1, 3: 1}, {5: 1})):
        spec = FibreProductSpec(F2, tuple(sparse(F2, c) for c in comps))
        assert spec.rank == spec.weight
        with pytest.raises(ValueError, match="exponent 7 has binary weight 3"):
            count_points(spec, 1)
    for comps in (({5: 1}, {5: 1}), ({0: 1},), ({4: 1, 2: 1},)):
        spec = FibreProductSpec(F2, tuple(sparse(F2, c) for c in comps))
        with pytest.raises(ValueError, match="even reduced degree"):
            count_points(spec, 1)
        with pytest.raises(ValueError, match="even reduced degree"):
            verify_supersingular(spec, B16)


def test_powersum_additivity():
    # g=3 synthetic curve y^4+y = x^6 over F_2, compositum F_4
    c3 = CurveSpec(F2, lin(F2, [1, 0, 1]), (lin(F2, []), lin(F2, [0, 1])))
    assert powersum_additivity_check(c3, 2, B16)
    for g in (1, 5, 10):
        assert powersum_additivity_check(build_prime_field(decompose(g)), 2, B16)
    spec5 = build_components(decompose(5))
    assert powersum_additivity_check(spec5, 2, B16)
    # S not over F_2 with n = 1..3: the curve and the pieces of its alpha
    # space count alike only when that space is the trace adjoint's
    rng = random.Random(41)
    budget = Budget(20, 64)
    checked = 0
    while checked < 40:
        c = random_curve(rng, make_field(rng.randrange(2, 5)), 3)
        if not is_irreducible(c):
            continue
        try:
            assert powersum_additivity_check(c, 2, budget), c
        except (BudgetError, CapacityError):
            continue
        checked += 1


def test_powersum_additivity_edges():
    c5 = build_prime_field(decompose(5))
    # kmax < 1 would check nothing
    for kmax in (0, -1):
        with pytest.raises(ValueError, match="kmax"):
            powersum_additivity_check(c5, kmax, B16)
    # the alpha space of g221 splits over F_2^24, beyond max_degree 8
    c221 = build_prime_field(decompose(221))
    with pytest.raises(CapacityError):
        powersum_additivity_check(c221, 1, Budget(max_degree=8))
    # no components: no pieces, the curve's own field, P^1 on both sides
    assert powersum_additivity_check(FibreProductSpec(F2, ()), 2, B16)
    with pytest.raises(TypeError):
        powersum_additivity_check(QuotientCurve(0, sparse(F2, {5: 1}), 2), 1)


def test_spec_kinds_only():
    # a quotient curve is counted, but it is not a curve the ladder verifies
    q5 = QuotientCurve(0, sparse(F2, {5: 1}), 2)
    assert q5.field is F2
    with pytest.raises(TypeError):
        verify_supersingular(q5, B16)
    with pytest.raises(TypeError):
        count_points(sparse(F2, {5: 1}), 1)


def test_count_checks_validity_before_budget():
    # the span of x^8193 and x^8193 + 1 holds a constant: refused as invalid
    # even where its count would also exceed the budget
    spec = FibreProductSpec(F2, (sparse(F2, {8193: 1}),
                                 sparse(F2, {8193: 1, 0: 1})))
    for k in (1, 30):
        with pytest.raises(ValueError, match="even reduced degree"):
            count_points(spec, k, B16)


def test_weil_bounds_hold_for_counted_series():
    for g in (2, 3, 5):
        c = build_prime_field(decompose(g))
        count_series(c, g, B16)  # raises InconsistentCounts on violation
