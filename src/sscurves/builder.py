"""Synthesis of supersingular curves of prescribed genus in characteristic 2.

Two constructions, both driven by the block decomposition of the genus g:

* ``build_components`` -- a fibre product of Artin-Schreier curves
  y_j^2 + y_j = f_j over F_{2^m} (m the widest block), with one batch of
  components gamma^j x^(2^(u_i)+1) per block.

* ``build_prime_field`` -- a single equation S(y) = sum (x R_k(x))^(2^(k-1))
  over F_2, where S comes from the tower G_i = G_{i-1}^(2^(r_i+1)) + G_{i-1}
  and the R_k regroup the two-variable sum of G_{i-1}(alpha) x^(2^(u_i)+1)
  by powers alpha^(2^j).

For a single block the fibre product can also be glued into one equation
over F_{2^m} (``glue_single_block``).
"""

from collections import namedtuple
from functools import cached_property

from .field import _echelonize, make_field
from .limits import DEFAULT_MAX_DEGREE
from .linops import (SparsePoly, as_reduce, check_weight, lin, lin_add,
                     lin_monomial, lin_rmod, lin_twist, sparse, sparse_span,
                     sparse_twist, times_x)
from .quotient import column_poly, dual_equation


class FibreProductSpec(namedtuple("FibreProductSpec", "field components")):
    """Fibre product of the covers y_j^2 + y_j = f_j over one base field,
    the components being the SparsePoly right-hand sides f_1..f_k.

    Its rank and strata, computed once, are those of the F_2-span of the f_j
    modulo constants (``span_strata``).  The rank is below the weight exactly
    when some combination reduces to a constant: the product is then not a
    geometrically irreducible curve.
    """

    @property
    def weight(self):
        return len(self.components)

    @cached_property
    def rank(self):
        return len(_span_leads(self.components))

    @cached_property
    def strata(self):
        return span_strata(self.components)


class CurveSpec(namedtuple("CurveSpec", "field S R_list")):
    """Single-equation curve S(y) = x R_1 + (x R_2)^2 + ... + (x R_n)^(2^(n-1)).

    S is monic of 2-degree n with A_0 != 0; R_list holds the n LinPolys R_k,
    zeros allowed, not all zero.  Its strata are those of its quotients,
    computed once (``equation_strata``).
    """

    @property
    def n(self):
        return self.S.h

    @cached_property
    def strata(self):
        return equation_strata(self)

    def derived_T(self):
        """The right-hand side sum (x R_k)^(2^(k-1)) as one sparse polynomial."""
        return sparse(self.field, [t for k, R in enumerate(self.R_list)
                                   for t in sparse_twist(times_x(R), k).terms])

    def validate(self):
        if self.S.coeff(0) == 0:
            raise ValueError("S must have a nonzero coefficient of y")
        if self.S.coeffs[-1] != 1:
            raise ValueError("S must be monic")
        if len(self.R_list) != self.n:
            raise ValueError("expected %d twist slots" % self.n)
        if all(R.is_zero() for R in self.R_list):
            raise ValueError("all R_k vanish")
        return self


class GenusCertificate(namedtuple("GenusCertificate", "strata total")):
    """Per-stratum genus bookkeeping: (member count, genus of each member)."""

    __slots__ = ()


def stratum_rows(strata):
    """(member count, member genus) per stratum of ((u_i, dim_i), ...).

    Stratum i has 2^(dim_0 + ... + dim_(i-1)) * (2^dim_i - 1) members, each
    of genus 2^(u_i - 1), or 0 when u_i = 0.
    """
    rows = []
    prefix = 0
    for u, dim in strata:
        rows.append(((1 << prefix) * ((1 << dim) - 1), (1 << u) >> 1))
        prefix += dim
    return tuple(rows)


def stratum_certificate(d):
    """Certificate from block arithmetic alone; the strata sum back to g.

    Block i gives the stratum (u_i, r_i + 1).
    """
    rows = stratum_rows(d.strata)
    total = sum(c * g for c, g in rows)
    assert total == d.g
    return GenusCertificate(rows, total)


def build_components(d, max_degree=DEFAULT_MAX_DEGREE):
    """Fibre-product components for the decomposition d, over F_{2^m}.

    Block i contributes gamma^j x^(2^(u_i)+1) for j = 0..r_i; the powers
    gamma^0..gamma^(r_i) are F_2-independent because r_i < m.  An m beyond
    max_degree raises CapacityError.
    """
    F = make_field(d.m, max_degree)
    gamma = F.generator
    components = []
    for (s, r), u in zip(d.blocks, d.u):
        e = (1 << u) + 1
        c = 1
        for _ in range(r + 1):
            components.append(sparse(F, {e: c}))
            c = F.mul(c, gamma)
    return FibreProductSpec(F, tuple(components))


def _span_leads(components):
    # as_reduce is F_2-linear, so the reduced components span every reduced
    # combination.  Packed with each exponent's bits above every smaller
    # one's, a combination's reduced degree is the largest leading exponent
    # among the echelon basis vectors it uses.
    reduced = [[(e, c) for e, c in as_reduce(f).terms if e]
               for f in components]
    exps = sorted({e for terms in reduced for e, _ in terms})
    n = components[0].field.degree if components else 1
    slot = {e: i * n for i, e in enumerate(exps)}
    return [exps[(v.bit_length() - 1) // n]
            for v in _echelonize([sum(c << slot[e] for e, c in terms)
                                  for terms in reduced])]


def span_strata(components):
    """Strata ((u, dim), ...) of the F_2-span of fibre-product components.

    The dim basis vectors of the span modulo constants that lead with
    x^(2^u + 1), or with x for u = 0 (x^2 reduces to x), are the stratum
    (u, dim), in ascending u.  A leading exponent of another form raises
    ValueError, and so, after it, does a component exponent of binary
    weight 3 or more, which no count takes (``check_weight``); the dims sum
    to less than the weight when some combination reduces to a constant.
    """
    dims = {}
    for d in _span_leads(components):
        if (d - 1) & (d - 2):
            raise ValueError("component degree %d is not of the form 2^u + 1"
                             % d)
        u = (d >> 1).bit_length()
        dims[u] = dims.get(u, 0) + 1
    for f in components:
        check_weight(f.terms)
    return tuple(sorted(dims.items()))


def equation_strata(c):
    """Strata ((u, dim), ...) of the quotients of a single equation c.

    The quotient of alpha has genus 2^(h - 1) (0 for h = 0), h the 2-degree
    of R_alpha = sum_k alpha^(2^(n-k)) R_k.  Its coefficient at x^(2^e) is
    the column polynomial P_e(alpha) (``quotient.column_poly``), so the
    alphas with h <= u are the roots of the right gcd of the dual equation
    and the P_e, e > u.  One Euclid chain by right division takes the
    columns from the highest e down; the gcd's 2-degree drops by dim at the
    stratum (u, dim).  The dims sum to n exactly when c is irreducible.
    """
    g = dual_equation(c)
    strata = []
    for e in reversed(range(max(len(R.coeffs) for R in c.R_list))):
        h = g.h
        p = column_poly(c, e)
        while not p.is_zero():
            g, p = p, lin_rmod(g, p)
        if g.h < h:
            strata.append((e, h - g.h))
    return tuple(reversed(strata))


def fibre_combinations(spec):
    """The 2^w - 1 nonzero F_2-combinations of the components: (mask, sum)."""
    rows = sparse_span(spec.components)
    return [(m, SparsePoly(spec.field, rows[m])) for m in range(1, len(rows))]


def certificate(spec):
    """Genus certificate of a fibre product, from the strata of its span.

    Raises AssertionError when the span has rank below the weight: some
    combination then reduces to a constant, and the product is not a
    geometrically irreducible curve.
    """
    rows = stratum_rows(spec.strata)
    if spec.rank < spec.weight:
        raise AssertionError("components are F_2-dependent modulo constants")
    return GenusCertificate(rows, sum(c * g for c, g in rows))


def glue_single_block(spec):
    """Collapse a one-block fibre product into a single equation over F_{2^m}.

    With y = sum gamma^j y_j one gets S(y) = y^(2^m) + y and a right side
    T = sum_j gamma^j Tr(gamma^j x^(2^u + 1)) with Tr(z) = z + z^2 + ... +
    z^(2^(m-1)).  Grouped by l, T = sum_l c_l x^(2^l (2^u + 1)) with
    c_l = sum_j gamma^(j (2^l + 1)), so R_(l+1) = c_l^(2^-l) x^(2^u).
    """
    if len(spec.strata) != 1:
        raise ValueError("gluing is defined for single-block products only")
    F = spec.field
    m = F.degree
    u, dim = spec.strata[0]
    if dim != m:
        raise ValueError("field degree must equal the block width")
    R_list = []
    for l in range(m):
        step = F.pow(F.generator, (1 << l) + 1)
        c, v = 0, 1
        for _ in range(m):
            c ^= v
            v = F.mul(v, step)
        R_list.append(lin(F, [0] * u + [F.frobenius(c, -l)]))
    S = lin(F, [1] + [0] * (m - 1) + [1])
    return CurveSpec(F, S, tuple(R_list)).validate()


def build_prime_field(d):
    """Single-equation curve of genus d.g over the prime field F_2.

    G_0 = x and G_i = G_{i-1}^(2^(r_i+1)) + G_{i-1}; the left side is
    S = G_t.  R_{w-j} collects the monomials x^(2^(u_i)+1) whose coefficient
    in G_{i-1} contains alpha^(2^j), so that the two-variable identity
    sum_i G_{i-1}(alpha) x^(2^(u_i)+1) = sum_j x R_{w-j}(x) alpha^(2^j) holds.
    """
    F = make_field(1)
    w = d.w
    G = [lin_monomial(F, 0)]  # G_0 = x
    for _, r in d.blocks:
        G.append(lin_add(lin_twist(G[-1], r + 1), G[-1]))
    S = G[-1]
    R_coeffs = [[0] * (u + 1) for u in [max(d.u)] * w]
    for i, u in enumerate(d.u, start=1):
        for j in G[i - 1].support():
            R_coeffs[w - j - 1][u] ^= 1
    R_list = tuple(lin(F, c) for c in R_coeffs)
    return CurveSpec(F, S, R_list).validate()


def to_standard_form(T, n):
    """Recover R_1..R_n from a raw right side T = sum (x R_k)^(2^(k-1)).

    A term c x^(2^a (2^e + 1)) belongs to R_{a+1}, which picks up the
    coefficient c^(2^-a) at position 2^e.  Exponents whose odd part is not
    of the form 2^e + 1, or with 2-adic valuation >= n, are not representable.
    """
    F = T.field
    coeffs = [dict() for _ in range(n)]
    for exp, c in T.terms:
        if exp <= 0:
            raise ValueError("exponent %d not representable" % exp)
        a = (exp & -exp).bit_length() - 1
        odd = exp >> a
        e = (odd - 1).bit_length() - 1
        if odd < 3 or (odd - 1) & (odd - 2) or a >= n:
            raise ValueError("exponent %d not representable as 2^a(2^e+1) with a < %d"
                             % (exp, n))
        coeffs[a][e] = F.frobenius(c, -a)
    out = []
    for cmap in coeffs:
        size = max(cmap) + 1 if cmap else 0
        vec = [0] * size
        for e, c in cmap.items():
            vec[e] = c
        out.append(lin(F, vec))
    return out
