"""Linearized-polynomial and L-polynomial helpers used only by the tests."""

from sscurves.classify import IsoWitness, _binomial_roots, _pack, scaling_orbit
from sscurves.field import _echelonize, f2_span
from sscurves.limits import DEFAULT_BUDGET
from sscurves.linops import lin, lin_add


def lin_compose(R, S):
    """R(S(x))."""
    if R.field != S.field:
        raise ValueError("field mismatch")
    F = R.field
    if R.is_zero() or S.is_zero():
        return lin(F, [])
    out = [0] * (len(R.coeffs) + len(S.coeffs) - 1)
    for i, a in enumerate(R.coeffs):
        if not a:
            continue
        for j, b in enumerate(S.coeffs):
            if b:
                out[i + j] ^= F.mul(a, F.frobenius(b, i))
    return lin(F, out)


def covers_isomorphic_by_span(L, L2, budget=DEFAULT_BUDGET):
    """``classify.covers_isomorphic`` on valid bases, by the whole span of L2.

    Every member of span(L2) of the top 2-degree gives a ratio of top
    coefficients, each tried once in mask order, each split priced alone:
    2^len(L2) polynomials, kept as an oracle for the pivot walk.
    """
    F = L[0].field
    hmax = max(R.h for R in L)
    if max(R.h for R in L2) != hmax or len(L) != len(L2):
        return None
    src = max(L, key=lambda R: (R.h, R.coeffs))
    d = (1 << hmax) + 1
    seen = set()
    for tgt in f2_span(L2, lin(F, []), lin_add)[1:]:
        if tgt.h != hmax:
            continue
        c = F.div(tgt.coeffs[-1], src.coeffs[-1])
        if c in seen:
            continue
        seen.add(c)
        ext, emb, roots = _binomial_roots(F, c, d, budget)
        span2 = _echelonize([_pack([emb(a) for a in R.coeffs], ext.degree)
                             for R in L2])
        for rho in roots:
            moved = [scaling_orbit(R.map_field(emb), rho) for R in L]
            span1 = _echelonize([_pack(R.coeffs, ext.degree) for R in moved])
            if span1 == span2:
                return IsoWitness(rho, ext, "covers")
    return None


def check_functional_equation(L):
    """c_(2g-i) = q^(g-i) c_i for every i <= g."""
    g = L.genus
    return all(L.coeffs[2 * g - i] == L.q ** (g - i) * L.coeffs[i]
               for i in range(g + 1))
