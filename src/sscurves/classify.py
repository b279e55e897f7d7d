"""Isomorphism tests for the hyperelliptic family and its covers.

Two curves y^2 + y = x R(x) and y^2 + y = x R'(x) with R, R' of the same
2-degree h >= 2 are isomorphic over the closure exactly when some rho != 0
satisfies a_i' = a_i rho^(2^i + 1) for i = 1..h (the x^2-coefficient a_0 is
free).  The decision is finite: rho is pinned down, up to the 2^(i0)+1 roots
of one binomial equation, by the lowest supported index i0, and each
candidate is checked exactly in an explicitly constructed splitting field.
For h = 1 the same relation classifies the curves as Artin-Schreier covers
of the line, and the verdict is labelled accordingly.
"""

from collections import namedtuple

from .field import _echelonize, extend_and_embed, f2_span, poly_roots
from .linops import lin, lin_add, lin_kernel, splitting_degree
from .limits import DEFAULT_MAX_DEGREE, CapacityError


class IsoWitness(namedtuple("IsoWitness", "rho field mode")):
    """A scaling witness rho (x -> rho x) in a stated extension field; mode
    is "curves", "as-covers" or "covers"."""

    __slots__ = ()


class RadicalBasis(namedtuple("RadicalBasis", "ambient basis")):
    """F_2-basis of the root space of the invariant polynomial of R."""

    __slots__ = ()


def e_poly(R):
    """The invariant linearized polynomial R(x)^(2^h) + sum (a_i x)^(2^(h-i)).

    Its 2-degree is 2h and its root space (the radical) controls
    isomorphisms of the covers y^2 + y = x R(x).
    """
    h = R.h
    if not h:
        raise ValueError("R must have 2-degree >= 1")
    F = R.field
    out = [0] * (2 * h + 1)
    for i, a in enumerate(R.coeffs):
        if a:
            out[h + i] ^= F.frobenius(a, h)
            out[h - i] ^= F.frobenius(a, h - i)
    return lin(F, out)


def radical(R, max_degree=DEFAULT_MAX_DEGREE):
    """Kernel of e_poly(R) in its splitting field."""
    E = e_poly(R)
    k = splitting_degree(E, max_degree=max_degree)
    ext, emb = extend_and_embed(R.field, k, max_degree=max_degree)
    return RadicalBasis(ext, tuple(lin_kernel(E.map_field(emb))))


def scaling_orbit(R, rho):
    """Coefficient rescaling a_i -> a_i rho^(2^i + 1), i.e. x R(x) -> rho x R(rho x)."""
    if rho == 0:
        raise ValueError("rho must be nonzero")
    F = R.field
    return lin(F, [F.mul(a, F.pow(rho, (1 << i) + 1))
                   for i, a in enumerate(R.coeffs)])


def _binomial_roots(F, c, d, max_degree):
    """All roots of X^d = c (c != 0) in the smallest extension containing them.

    Returns (ext, embedding of F, sorted roots).  The extension degree runs
    up the multiples of F.degree until the d-th roots of unity are present
    and c is a d-th power there.
    """
    for k in range(1, max_degree // F.degree + 1):
        if (F.order ** k - 1) % d:
            continue
        ext, emb = extend_and_embed(F, k, max_degree=max_degree)
        c_ext = emb(c)
        if ext.pow(c_ext, (ext.order - 1) // d) != 1:
            continue
        coeffs = [c_ext] + [0] * (d - 1) + [1]
        roots = poly_roots(ext, coeffs)
        assert roots is not None and len(roots) == d
        return ext, emb, roots
    raise CapacityError("splitting field of X^%d = c exceeds degree %d"
                        % (d, max_degree))


def curves_isomorphic(R, R2, max_degree=DEFAULT_MAX_DEGREE):
    """Witness for an isomorphism of the covers of R and R2, or None.

    Both must live over a common field and have 2-degree at least 1
    (ValueError otherwise); unequal 2-degrees give None.  The supports
    above index 0 must coincide; the lowest supported index then confines
    rho to finitely many candidates, each checked against every remaining
    coefficient relation.
    """
    if R.field != R2.field:
        raise ValueError("coefficient fields differ")
    if not (R.h and R2.h):
        raise ValueError("R must have 2-degree >= 1")
    h = R.h
    if h != R2.h:
        return None
    support = [i for i in R.support() if i >= 1]
    if support != [i for i in R2.support() if i >= 1]:
        return None
    F = R.field
    i0 = support[0]
    d = (1 << i0) + 1
    target = F.div(R2.coeff(i0), R.coeff(i0))
    ext, emb, roots = _binomial_roots(F, target, d, max_degree)
    mode = "as-covers" if h == 1 else "curves"
    for rho in roots:
        if all(emb(R2.coeff(i)) ==
               ext.mul(emb(R.coeff(i)), ext.pow(rho, (1 << i) + 1))
               for i in support[1:]):
            return IsoWitness(rho, ext, mode)
    return None


def _pack(R_coeffs, width):
    acc = 0
    for i, a in enumerate(R_coeffs):
        acc |= a << (i * width)
    return acc


def covers_isomorphic(L, L2, max_degree=DEFAULT_MAX_DEGREE):
    """Witness rho transforming span(L) onto span(L2) under x -> rho x, or None.

    L and L2 are F_2-bases of spaces of linearized polynomials (the R parts
    of covers x R(x)).  Candidates for rho come from matching a maximal-
    degree element of L against each same-degree element of span(L2); every
    candidate is verified by exact span comparison over the extension field.
    Raises ValueError for an empty basis, a zero element, or bases whose
    elements all have 2-degree 0 (X^2 = c has no distinct roots to try).
    """
    if not L or not L2:
        raise ValueError("empty basis")
    F = L[0].field
    if any(R.field != F for R in list(L) + list(L2)):
        raise ValueError("coefficient fields differ")
    if any(R.is_zero() for R in list(L) + list(L2)):
        raise ValueError("zero polynomial in a basis")
    hmax = max(R.h for R in L)
    if max(R.h for R in L2) != hmax:
        return None
    if hmax == 0:
        raise ValueError("bases need an element of 2-degree at least 1")
    if len(L) != len(L2):
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
        ext, emb, roots = _binomial_roots(F, c, d, max_degree)
        span2 = _echelonize([_pack([emb(a) for a in R.coeffs], ext.degree)
                       for R in L2])
        for rho in roots:
            moved = [scaling_orbit(R.map_field(emb), rho) for R in L]
            span1 = _echelonize([_pack(R.coeffs, ext.degree) for R in moved])
            if span1 == span2:
                return IsoWitness(rho, ext, "covers")
    return None
