import random

import pytest
from hypothesis import given, settings, strategies as st

from sscurves import gf2x
from sscurves.field import embedding_into, make_field, pmod, psqr, ptrim
from sscurves.limits import Budget, BudgetError
from sscurves.linops import (as_genus, as_reduce, lin, lin_add, lin_eval,
                             lin_images, lin_kernel, lin_monomial,
                             lin_rmod, lin_twist,
                             definition_field, sparse, sparse_span,
                             sparse_twist, splitting_degree, times_x)
from sscurves.zeta import count_artin_schreier

from poly_helpers import lin_compose
from sparse_helpers import as_dict, span_oracle, sparse_add

F2 = make_field(1)
F4 = make_field(2)
F16 = make_field(4)
F64 = make_field(6)
ALPHA = 2


def span(basis):
    out = {0}
    for b in basis:
        out |= {x ^ b for x in out}
    return out


def test_lin_eval():
    R = lin(F2, [1, 1])                       # x^2 + x
    assert lin_eval(R, 1) == 0
    R4 = lin_monomial(F16, 2)                 # x^4
    assert lin_eval(R4, ALPHA) == 0b0011      # alpha^4 = alpha + 1
    G2 = lin(F2, [1, 1, 0, 1, 1])             # x^16+x^8+x^2+x
    G2 = G2.map_field(embedding_into(F2, F64))
    for b in lin_kernel(G2):
        assert lin_eval(G2, b) == 0


@settings(max_examples=100, deadline=None)
@given(st.data(), st.integers(1, 24))
def test_lin_images_match_lin_eval(data, n):
    F = make_field(n)
    R = lin(F, data.draw(st.lists(st.integers(0, F.order - 1),
                                  max_size=n + 3)))
    assert lin_images(R) == [lin_eval(R, 1 << i) for i in range(n)]


def test_lin_eval_linearity():
    rng = random.Random(11)
    R = lin(F16, [3, 0, 9, 1])
    for _ in range(100):
        x, y = rng.randrange(16), rng.randrange(16)
        assert lin_eval(R, x ^ y) == lin_eval(R, x) ^ lin_eval(R, y)


def test_twist_add_compose():
    R = lin(F2, [1, 1])
    assert lin_add(lin_twist(R, 3), R).coeffs == (1, 1, 0, 1, 1)
    assert lin_compose(R, lin(F2, [1])).coeffs == R.coeffs   # identity
    assert lin_compose(R, R).coeffs == (1, 0, 1)             # x^4 + x
    # twist is squaring as a map
    rng = random.Random(12)
    S = lin(F16, [5, 7, 2])
    for _ in range(50):
        x = rng.randrange(16)
        assert lin_eval(lin_twist(S, 1), x) == F16.sqr(lin_eval(S, x))
        assert lin_eval(lin_compose(S, S), x) == lin_eval(S, lin_eval(S, x))


def test_lin_kernel():
    assert span(lin_kernel(lin(F16, [1, 1]))) == {0, 1}
    assert len(lin_kernel(lin(F16, [1, 0, 0, 0, 1]))) == 4   # x^16+x
    G2 = lin(F2, [1, 1, 0, 1, 1]).map_field(embedding_into(F2, F64))
    kb = lin_kernel(G2)
    assert len(kb) == 4
    # kernel closure under addition
    members = span(kb)
    assert all(lin_eval(G2, m) == 0 for m in members)


def frob_power_mod(k, m):
    """x^(2^k) reduced modulo m."""
    t = gf2x.mod(2, m)
    for _ in range(k):
        t = gf2x.sqrmod(t, m)
    return t


def test_splitting_degree():
    assert splitting_degree(lin(F2, [1, 1])) == 1
    assert splitting_degree(lin(F2, [1, 0, 1])) == 2       # x^4+x: roots F_4
    assert splitting_degree(lin(F2, [1, 1, 0, 1, 1])) == 6
    assert splitting_degree(lin(F4, [2, 1])) == 1
    with pytest.raises(ValueError):
        splitting_degree(lin(F2, [0, 1]))                  # inseparable
    # cross-check with gcd against x^(2^k)+x for k < 6
    f = (1 << 16) | (1 << 8) | (1 << 2) | (1 << 1)
    for k in range(1, 6):
        sub = frob_power_mod(k, f) ^ gf2x.mod(2, f)
        assert gf2x.degree(gf2x.gcd(f, sub)) < 16


def test_splitting_degree_cap():
    G = lin(F2, [1, 1, 0, 1, 1])                           # degree 6
    assert splitting_degree(G, Budget(max_degree=6)) == 6
    with pytest.raises(BudgetError, match="exceeds degree 5"):
        splitting_degree(G, Budget(max_degree=5))
    # over F_4 the cap counts F_2-degrees: k = 3 needs degree 6
    E = lin(F4, [1, 1, 0, 1, 1])
    assert splitting_degree(E, Budget(max_degree=6)) == 3
    with pytest.raises(BudgetError):
        splitting_degree(E, Budget(max_degree=5))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_lin_rmod_inverts_compose(data, d):
    F = make_field(d)
    elem = st.integers(0, F.order - 1)
    S = lin(F, data.draw(st.lists(elem, max_size=5))
            + [data.draw(st.integers(1, F.order - 1))])
    Q = lin(F, data.draw(st.lists(elem, max_size=6)))
    rem = lin(F, data.draw(st.lists(elem, max_size=S.h)))
    assert lin_rmod(lin_add(lin_compose(Q, S), rem), S) == rem


def test_lin_rmod_by_zero():
    with pytest.raises(ZeroDivisionError):
        lin_rmod(lin(F4, [1, 1]), lin(F4, []))


def ordinary_splitting_degree(R, max_degree):
    """Oracle: Frobenius iterated modulo R as an ordinary polynomial of degree 2^h."""
    F = R.field
    f = [0] * ((1 << R.h) + 1)
    for i, a in enumerate(R.coeffs):
        f[1 << i] = a
    x = pmod(F, [0, 1], f)
    t = x
    for k in range(1, max_degree // F.degree + 1):
        for _ in range(F.degree):
            t = pmod(F, psqr(F, t), f)
        if ptrim(list(t)) == x:
            return k
    return None


def test_splitting_degree_matches_ordinary_oracle():
    rng = random.Random(41)
    verdicts = set()
    for _ in range(150):
        d = rng.randrange(1, 6)
        F = make_field(d)
        h = rng.randrange(0, 6 if d <= 2 else 5)
        coeffs = [rng.randrange(1, F.order)]
        coeffs += [rng.randrange(F.order) for _ in range(h - 1)]
        if h:
            coeffs.append(rng.randrange(1, F.order))
        R = lin(F, coeffs)
        max_degree = rng.choice([d, 4 * d, 12, 64])
        expected = ordinary_splitting_degree(R, max_degree)
        if expected is None:
            with pytest.raises(BudgetError):
                splitting_degree(R, Budget(max_degree=max_degree))
        else:
            assert splitting_degree(R, Budget(max_degree=max_degree)) == expected
        verdicts.add(expected is None)
    assert verdicts == {True, False}


def test_as_reduce():
    assert as_dict(as_reduce(sparse(F2, {6: 1}))) == {3: 1}
    # squared monomial with exponent 2^e+1 reduces to a coefficient twist
    c = 13
    f = sparse(F16, {2 * ((1 << 2) + 1): F16.sqr(c)})
    assert as_dict(as_reduce(f)) == {(1 << 2) + 1: c}
    # the glued right side reduces to a single degree-5 term
    a = ALPHA
    T = sparse(F16, {40: F16.pow(a, 6), 20: 1, 10: F16.pow(a, 12), 5: F16.pow(a, 9)})
    r = as_reduce(T)
    expected = (F16.pow(a, 9) ^ F16.frobenius(F16.pow(a, 6), -3)
                ^ 1 ^ F16.frobenius(F16.pow(a, 12), -1))
    assert as_dict(r) == {5: expected}
    # even exponents merge into odd ones, where they cancel
    assert as_dict(as_reduce(sparse(F2, {12: 1, 6: 1, 5: 1}))) == {5: 1}
    assert as_dict(as_reduce(sparse(F2, {6: 1, 3: 1}))) == {}


def test_as_reduce_properties():
    rng = random.Random(21)
    for _ in range(60):
        f = sparse(F16, {rng.randrange(1, 50): rng.randrange(1, 16)
                         for _ in range(rng.randrange(1, 6))})
        r = as_reduce(f)
        assert as_reduce(r).terms == r.terms                 # idempotent
        assert all(e == 0 or e % 2 == 1 for e, _ in r.terms)
        # invariance under adding h^2 + h (constant-free h)
        h = sparse(F16, {rng.randrange(1, 30): rng.randrange(1, 16)
                         for _ in range(rng.randrange(1, 4))})
        shifted = sparse_add(f, sparse_add(sparse_twist(h, 1), h))
        assert as_reduce(shifted).terms == r.terms


def test_as_genus():
    assert as_genus(sparse(F2, {3: 1})) == 1
    assert as_genus(sparse(F2, {5: 1})) == 2
    assert as_genus(sparse(F2, {6: 1})) == 1
    assert as_genus(sparse(F2, {1: 1})) == 0                 # rational
    with pytest.raises(ValueError):
        as_genus(sparse(F2, {}))
    with pytest.raises(ValueError):
        as_genus(sparse_add(sparse(F4, {6: 1}), sparse(F4, {3: 1})))  # x^6+x^3 = p(x^3)
    # x^2 + x + 1 reduces to 1: w^2 + w = c splits over the closure, and
    # counting refuses such a right-hand side too
    for terms in ({2: 1, 1: 1, 0: 1}, {0: 1}, {4: 1, 1: 1, 0: 3}):
        f = sparse(F4, terms)
        assert as_reduce(f).degree == 0, terms
        with pytest.raises(ValueError):
            as_genus(f)
        with pytest.raises(ValueError):
            count_artin_schreier(f, 1)


def test_as_genus_invariances():
    rng = random.Random(31)
    for _ in range(50):
        f = sparse(F4, {rng.randrange(1, 40): rng.randrange(1, 4)
                        for _ in range(rng.randrange(1, 5))})
        try:
            g = as_genus(f)
        except ValueError:
            continue
        assert as_genus(sparse_twist(f, 1)) == g
        h = sparse(F4, {rng.randrange(1, 20): rng.randrange(1, 4)})
        assert as_genus(sparse_add(f, sparse_add(sparse_twist(h, 1), h))) == g


@pytest.mark.parametrize("F", [F2, F4])
@pytest.mark.parametrize("h", [1, 2, 3])
def test_hyperelliptic_genus_pattern(F, h):
    # exhaustive: genus of y^2+y = x R(x) is 2^(h-1) whenever deg_2 R = h
    count = 0
    for mask in range(F.order ** h):
        coeffs = []
        m = mask
        for _ in range(h):
            coeffs.append(m % F.order)
            m //= F.order
        for top in range(1, F.order):
            R = lin(F, coeffs + [top])
            assert as_genus(times_x(R)) == 1 << (h - 1)
            count += 1
    assert count == (F.order - 1) * F.order ** h


def test_definition_field():
    emb = embedding_into(F4, F64)
    f = sparse(F64, {3: emb(2), 5: 1})
    small = definition_field(f, 2)
    assert small.field is F4
    assert as_dict(small) == {3: 2, 5: 1}
    g = sparse(F64, {3: 2})          # the F_64 generator needs full degree
    assert definition_field(g, 6) is g


def test_definition_field_keeps_the_callers_bound():
    # a piece over F_2^130 defined over F_2^65 descended under the default
    # bound of 64, whatever bound the caller passed, and was refused
    budget = Budget(200, 200)
    F = make_field(130, budget)
    sub = make_field(65, budget)
    f = sparse(F, {3: embedding_into(sub, F)(sub.generator), 1: 1})
    assert definition_field(f, 65, budget).field.degree == 65


def test_sparse_span_on_hand_made_bases():
    # the column walk against one sparse_add per member, on reduced bases
    # (odd exponents and a constant) whose sums cancel in every way
    F8 = make_field(3)
    bases = [
        # the x^5 column sums to zero at mask 0b11, and x^1 appears only there
        [sparse(F8, {5: 3, 3: 1}), sparse(F8, {5: 3, 1: 2})],
        # x^7 cancels at mask 0b011: that sum, 2x^5 + x^3, has genus 2, not 3
        [sparse(F8, {7: 1, 3: 1}), sparse(F8, {7: 1, 5: 2}), sparse(F8, {9: 4})],
        # constant terms, one of them a whole basis polynomial
        [sparse(F8, {3: 1, 0: 1}), sparse(F8, {0: 1}), sparse(F8, {5: 6, 0: 5})],
    ]
    for basis in bases:
        rows = sparse_span(basis)
        assert rows == [f.terms for f in span_oracle(basis, F8)], basis
        for r in rows:
            if r and r[0][0]:
                assert (r[0][0] - 1) // 2 == as_genus(sparse(F8, r)), r
    assert sparse_span(bases[0])[3] == ((3, 1), (1, 2))
    assert sparse_span(bases[1])[3] == ((5, 2), (3, 1))
    assert sparse_span(bases[2])[2] == ((0, 1),)
    assert sparse_span([]) == [()]
