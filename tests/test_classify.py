import random

import pytest

from sscurves.classify import (covers_isomorphic, curves_isomorphic, e_poly,
                               radical, scaling_orbit)
from sscurves.field import embedding_into, make_field
from sscurves.limits import Budget
from sscurves.linops import lin, lin_eval, times_x
from sscurves.quotient import QuotientCurve
from sscurves.zeta import CountSeries, count_series, lpoly_from_counts

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)


def verify_witness(R, R2, w):
    emb = embedding_into(R.field, w.field)
    F = w.field
    for i in range(1, max(len(R.coeffs), len(R2.coeffs))):
        lhs = emb(R2.coeff(i))
        rhs = F.mul(emb(R.coeff(i)), F.pow(w.rho, (1 << i) + 1))
        assert lhs == rhs, i


def test_e_poly():
    assert e_poly(lin(F2, [0, 1])).coeffs == (1, 0, 1)      # x^2 -> x^4 + x
    assert e_poly(lin(F2, [1, 1])).coeffs == (1, 0, 1)      # x^2+x -> same E
    with pytest.raises(ValueError):
        e_poly(lin(F2, [1]))                                # 2-degree 0
    # 2-degree doubles: deg E = 2h, separable
    R = lin(F16, [3, 0, 7])
    E = e_poly(R)
    assert E.h == 4 and E.coeff(0) != 0


def test_radical():
    assert len(radical(lin(F2, [0, 1])).basis) == 2
    assert radical(lin(F2, [0, 1])).ambient is F4
    assert len(radical(lin(F2, [1, 1])).basis) == 2
    assert len(radical(lin(F2, [0, 0, 1])).basis) == 4      # x^4: E = x^16+x
    # dimension 2h for separable E, h <= 3
    rng = random.Random(41)
    for h in (1, 2, 3):
        for _ in range(5):
            R = lin(F4, [rng.randrange(4) for _ in range(h)] + [rng.randrange(1, 4)])
            rad = radical(R, max_degree=64)
            assert len(rad.basis) == 2 * h, (h, R.coeffs)
            E = e_poly(R).map_field(embedding_into(F4, rad.ambient))
            assert all(lin_eval(E, b) == 0 for b in rad.basis)


def test_scaling_orbit():
    R = lin(F16, [3, 5, 7])
    assert scaling_orbit(R, 1).coeffs == R.coeffs
    assert scaling_orbit(lin(F16, [0, 0, 1]), 2).coeffs == (0, 0, F16.pow(2, 5))
    orb = scaling_orbit(R, 9)
    assert scaling_orbit(orb, F16.inv(9)).coeffs == R.coeffs
    w = curves_isomorphic(R, orb)
    assert w is not None
    verify_witness(R, orb, w)


def test_curves_isomorphic_reflexive_symmetric():
    rng = random.Random(1001)
    for _ in range(100):
        F = (F4, F8, F16)[rng.randrange(3)]
        h = rng.randrange(1, 4)
        R = lin(F, [rng.randrange(F.order) for _ in range(h)]
                + [rng.randrange(1, F.order)])
        w = curves_isomorphic(R, R)
        assert w is not None
        verify_witness(R, R, w)
        rho = rng.randrange(1, F.order)
        R2 = scaling_orbit(R, rho)
        w12 = curves_isomorphic(R, R2)
        w21 = curves_isomorphic(R2, R)
        assert w12 is not None and w21 is not None
        verify_witness(R, R2, w12)
        verify_witness(R2, R, w21)


def test_curves_isomorphic_monomials():
    # (x^4, c x^4): a witness with rho^5 = c always exists over the closure
    for c in range(1, 16):
        R, R2 = lin(F16, [0, 0, 1]), lin(F16, [0, 0, c])
        w = curves_isomorphic(R, R2)
        assert w is not None
        emb = embedding_into(F16, w.field)
        assert w.field.pow(w.rho, 5) == emb(c)
        verify_witness(R, R2, w)


def test_curves_isomorphic_order5_obstruction():
    g5 = F16.pow(2, 3)                     # order 5
    assert F16.pow(g5, 5) == 1 and g5 != 1
    w = curves_isomorphic(lin(F16, [0, 1, 1]), lin(F16, [0, 1, g5]))
    assert w is None


def test_curves_isomorphic_ignores_a0():
    R = lin(F16, [7, 1, 1])
    R2 = lin(F16, [2, 1, 1])
    w = curves_isomorphic(R, R2)
    assert w is not None


def test_curves_isomorphic_support_mismatch():
    assert curves_isomorphic(lin(F16, [0, 1, 1]), lin(F16, [0, 0, 1])) is None
    assert curves_isomorphic(lin(F16, [0, 1]), lin(F16, [0, 0, 1])) is None


def test_curves_isomorphic_h1_mode():
    w = curves_isomorphic(lin(F4, [0, 1]), lin(F4, [0, 2]))
    assert w is not None and w.mode == "as-covers"
    w = curves_isomorphic(lin(F4, [0, 0, 1]), lin(F4, [0, 0, 2]))
    assert w is not None and w.mode == "curves"


def test_lpoly_invariance_for_isomorphic_pair():
    R, R2 = lin(F4, [0, 0, 1]), lin(F4, [0, 0, 2])
    w = curves_isomorphic(R, R2)
    emb = embedding_into(F4, w.field)
    lps = []
    for RR in (R, R2):
        rhs = times_x(RR.map_field(emb))
        series = count_series(QuotientCurve(0, rhs, 2), 2, Budget(log2_points=18))
        lps.append(lpoly_from_counts(CountSeries(series.q, series.counts[:2], 2)))
    assert lps[0] == lps[1]


def test_covers_isomorphic():
    L = [lin(F16, [0, 1])]
    w = covers_isomorphic(L, L)
    assert w is not None and w.rho == 1
    w = covers_isomorphic(L, [lin(F16, [0, 6])])
    assert w is not None
    emb = embedding_into(F16, w.field)
    assert w.field.pow(w.rho, 3) == emb(6)
    # whole-space rescale has a witness
    g = 2
    L2 = [lin(F16, [0, 1]), lin(F16, [0, g, 1])]
    moved = [scaling_orbit(R, 5) for R in L2]
    assert covers_isomorphic(L2, moved) is not None
    # rescaling only the x^4 part by an order-5 element breaks it
    g5 = F16.pow(2, 3)
    target = [lin(F16, [0, 1]), lin(F16, [0, g, g5])]
    assert covers_isomorphic(L2, target) is None


def test_covers_dimension_mismatch():
    assert covers_isomorphic([lin(F16, [0, 1])],
                             [lin(F16, [0, 1]), lin(F16, [0, 0, 1])]) is None
    # equal dimensions, top 2-degrees 1 and 2
    assert covers_isomorphic([lin(F16, [0, 1])],
                             [lin(F16, [0, 0, 1])]) is None
