"""2-linearized polynomials, sparse polynomials, and Artin-Schreier reduction.

A 2-linearized (additive) polynomial sum a_i x^(2^i) is F_2-linear as a map
on any binary field; these are the building blocks of every curve produced
here.  The matrix of such a map (the images of the basis gamma^i, for
kernels and quadratic forms) comes from power chains: R(gamma^i) is
sum a_s (gamma^(2^s))^i, one run of N products per nonzero coefficient.
Under composition the linearized polynomials over F_(2^d) form a ring with
right division (``lin_rmod``), so questions about their roots are answered
on their h + 1 coefficients, never on ordinary polynomials of degree 2^h:
common roots are the roots of a right gcd, and all roots of R lie in
F_(q^k) exactly when R right-divides x^(q^k) + x.
Sparse polynomials hold the right-hand sides of the curve equations, whose
degrees get large (x^288 and beyond) while their term counts stay tiny.
"""

from collections import namedtuple
from operator import xor

from .field import F2LinearMap, embedding_into, f2_span, make_field
from .limits import DEFAULT_MAX_DEGREE, CapacityError


class LinPoly(namedtuple("LinPoly", "field coeffs")):
    """sum a_i x^(2^i) with coeffs[i] = a_i; canonical (no trailing zeros)."""

    __slots__ = ()

    def __new__(cls, field, coeffs):
        if coeffs and coeffs[-1] == 0:
            raise ValueError("non-canonical linearized polynomial")
        return tuple.__new__(cls, (field, coeffs))

    @property
    def h(self):
        """2-degree: the largest i with a_i != 0 (None for the zero polynomial)."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        return self.coeffs[i] if i < len(self.coeffs) else 0

    def support(self):
        return [i for i, a in enumerate(self.coeffs) if a]

    def map_field(self, embedding):
        return lin(embedding.ext, [embedding(a) for a in self.coeffs])


def lin(field, coeffs):
    """Build a LinPoly, trimming trailing zero coefficients."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return LinPoly(field, tuple(coeffs))


def lin_monomial(field, i):
    """x^(2^i)."""
    return lin(field, [0] * i + [1])


def lin_eval(R, x):
    """R(x); additive in x."""
    F = R.field
    acc = 0
    t = x
    for a in R.coeffs:
        if a:
            acc ^= F.mul(a, t)
        t = F.sqr(t)
    return acc


def lin_images(R):
    """[R(gamma^i) for i < N]: the images of the basis of R's field.

    (gamma^i)^(2^s) = (gamma^(2^s))^i, so R(gamma^i) = sum_s a_s g_s^i with
    g_s = gamma^(2^s): each nonzero a_s costs one chain of N products,
    where evaluating at each basis vector in turn would square N times.
    """
    F = R.field
    images = [0] * F.degree
    g = F.generator
    for a in R.coeffs:
        if a:
            for i in range(F.degree):
                images[i] ^= a
                a = F.mul(a, g)
        g = F.sqr(g)
    return images


def lin_add(R, S):
    if R.field != S.field:
        raise ValueError("field mismatch")
    n = max(len(R.coeffs), len(S.coeffs))
    return lin(R.field, [R.coeff(i) ^ S.coeff(i) for i in range(n)])


def lin_scale(c, R):
    F = R.field
    return lin(F, [F.mul(c, a) for a in R.coeffs])


def lin_twist(R, k):
    """(R(x))^(2^k) as a linearized polynomial: coefficients a_i^(2^k) at x^(2^(i+k))."""
    if k < 0:
        raise ValueError("twist exponent must be nonnegative")
    F = R.field
    return lin(F, [0] * k + [F.frobenius(a, k) for a in R.coeffs])


def lin_rmod(R, S):
    """The right remainder of R by nonzero S: R = Q(S(x)) + rem, rem.h < S.h.

    The top term c x^(2^m) of R, m >= h = S.h, cancels against
    b (S(x))^(2^j) with j = m - h and b = c / s_h^(2^j): the twist of S by j
    scaled by b.  Roots of S are roots of R - rem.
    """
    if R.field != S.field:
        raise ValueError("field mismatch")
    if S.is_zero():
        raise ZeroDivisionError("right division by the zero polynomial")
    F = R.field
    h = S.h
    inv_top = F.inv(S.coeffs[-1])
    r = list(R.coeffs)
    while len(r) > h:
        j = len(r) - 1 - h
        b = F.mul(r.pop(), F.frobenius(inv_top, j))
        for i, s in enumerate(S.coeffs[:-1]):
            if s:
                r[i + j] ^= F.mul(b, F.frobenius(s, j))
        while r and r[-1] == 0:
            r.pop()
    return LinPoly(F, tuple(r))


def lin_kernel(R):
    """Canonical F_2-basis of the roots of R in R's own field."""
    if R.is_zero():
        raise ValueError("kernel of the zero polynomial")
    return F2LinearMap(lin_images(R)).kernel_basis()


def splitting_degree(R, max_degree=DEFAULT_MAX_DEGREE):
    """Least k such that all roots of R lie in the degree-k extension of its field.

    Requires a separable input (a_0 != 0).  With q the order of R's field,
    the roots lie in F_(q^k) exactly when R right-divides x^(q^k) + x, that
    is when x^(q^k) leaves the remainder x.  Squaring the remainder of
    x^(2^i) (a twist) and reducing it again gives that of x^(2^(i+1)), so the
    work is h + 1 coefficients per step, capped at max_degree // d steps.
    """
    if R.is_zero():
        raise ValueError("zero polynomial has no splitting field")
    if R.coeff(0) == 0:
        raise ValueError("inseparable (a_0 = 0): roots are not distinct")
    F = R.field
    x = lin_rmod(lin_monomial(F, 0), R)
    t = x
    for k in range(1, max_degree // F.degree + 1):
        for _ in range(F.degree):
            t = lin_rmod(lin_twist(t, 1), R)
        if t == x:
            return k
    raise CapacityError(
        "splitting field of 2-degree-%d polynomial exceeds degree %d"
        % (R.h, max_degree))


class SparsePoly(namedtuple("SparsePoly", "field terms")):
    """Ordinary polynomial over field as terms ((exp, coeff), ...), with
    coeff != 0 and exponents strictly decreasing."""

    __slots__ = ()

    def is_zero(self):
        return not self.terms

    @property
    def degree(self):
        return self.terms[0][0] if self.terms else -1

    def map_field(self, embedding):
        return sparse(embedding.ext, {e: embedding(c) for e, c in self.terms})


def sparse(field, terms):
    """Build a SparsePoly from an {exp: coeff} mapping or (exp, coeff) pairs."""
    if not isinstance(terms, dict):
        acc = {}
        for e, c in terms:
            acc[e] = acc.get(e, 0) ^ c
        terms = acc
    cleaned = sorted(((e, c) for e, c in terms.items() if c), reverse=True)
    for e, _ in cleaned:
        if e < 0:
            raise ValueError("negative exponent")
    return SparsePoly(field, tuple(cleaned))


def sparse_span(basis):
    """The terms of the 2^w F_2-combinations of the sparse polynomials basis,
    indexed by mask as ``f2_span``'s list is, walked one exponent at a time:
    the column at e, highest e first, is the f2_span of the basis
    coefficients at e under xor, so row mask gathers its nonzero entries in
    decreasing order, the canonical terms of its sum, with no sum built."""
    coeffs = [dict(f.terms) for f in basis]
    rows = [()] * (1 << len(basis))
    for e in sorted({e for t in coeffs for e in t}, reverse=True):
        column = f2_span([t.get(e, 0) for t in coeffs], 0, xor)
        rows = [r + ((e, c),) if c else r for r, c in zip(rows, column)]
    return rows


def sparse_twist(f, k):
    """f^(2^k): exponents doubled k times, coefficients raised accordingly."""
    F = f.field
    return sparse(F, {e << k: F.frobenius(c, k) for e, c in f.terms})


def times_x(R):
    """x * R(x) as a sparse polynomial: terms a_i x^(2^i + 1)."""
    return sparse(R.field, {(1 << i) + 1: a
                            for i, a in enumerate(R.coeffs) if a})


def as_reduce(f):
    """Canonical representative of f modulo the image of h -> h^2 + h.

    Repeatedly replaces c x^(2e), e > 0, by sqrt(c) x^e and merges terms.
    The result has only odd exponents (plus possibly a constant), which makes
    equivalence of right-hand sides decidable by syntactic equality.
    """
    F = f.field
    acc = dict(f.terms)
    pending = [e for e in acc if e > 0 and e % 2 == 0]
    while pending:
        e = pending.pop()
        c = acc.pop(e)
        while e % 2 == 0:
            e >>= 1
            c = F.sqrt(c)
        acc[e] = acc.get(e, 0) ^ c
    return sparse(F, acc)


def as_genus(f):
    """Genus of the smooth complete curve y^2 + y = f for a polynomial f.

    The reduced form has odd degree d (one totally ramified place at
    infinity), giving genus (d-1)/2.  A constant reduced form c is rejected:
    the cover splits, as y^2 + y = c has two roots over the closure.
    """
    if f.is_zero():
        raise ValueError("zero right-hand side: cover is reducible")
    r = as_reduce(f)
    if r.is_zero():
        raise ValueError("right-hand side in the Artin-Schreier image: cover is reducible")
    if not r.degree:
        raise ValueError("constant reduced right-hand side: cover is reducible")
    return (r.degree - 1) // 2


def check_weight(terms):
    """ValueError at the first exponent of binary weight 3 or more.

    Tr(c x^e) is an F_2-quadratic form in x exactly when e has binary weight
    at most 2, and every count is a character sum of such forms.
    """
    for e, _ in terms:
        if e.bit_count() > 2:
            raise ValueError("exponent %d has binary weight %d; only weights "
                             "up to 2 are counted" % (e, e.bit_count()))


def definition_field(f, d):
    """Re-express f over F_2^d, d the degree of the smallest subfield
    containing its coefficients.

    Returns an equivalent SparsePoly over the canonical field of degree d,
    or f itself when d is the degree of its own field.
    """
    F = f.field
    if d == F.degree:
        return f
    sub = make_field(d)
    emb = embedding_into(sub, F)
    out = {}
    for e, c in f.terms:
        pre = emb.preimage(c)
        assert pre is not None, "coefficient fixed by Frobenius^d must descend"
        out[e] = pre
    return sparse(sub, out)
