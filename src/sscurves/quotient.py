"""Degree-2 quotients of a single-equation curve and its jacobian pieces.

For C : S(y) = T(x), S = sum_i A_i y^(2^i) of 2-degree n, the index-2
subgroups of the translations y -> y + sigma, S(sigma) = 0, give the
quotients w^2 + w = beta T, beta nonzero in the kernel of the trace adjoint
S*(beta) = sum_i (A_i beta)^(2^-i).  With beta = alpha^(2^(n-1)), the
alphas are the roots of the dual equation, whose coefficient at a^(2^i) is
A_(n-i)^(2^(i+1-n)) (its 2^(n-1)-th power is S*(beta)^(2^n)), and beta T is
Artin-Schreier equivalent to sum_k alpha^(2^(n-k)) x R_k(x).  The jacobian
of C splits up to isogeny into the jacobians of these quotients.  The curve
is irreducible exactly when no nonzero alpha kills that right-hand side.
It and its Artin-Schreier reduction are F_2-linear in alpha, so the
quotients' right-hand sides form the F_2-span of the n quotients of a
basis, just as a fibre product's combinations span its components.
"""

from collections import namedtuple
from operator import xor

from .field import extend_and_embed, f2_span
from .linops import (SparsePoly, as_genus, as_reduce, lin, lin_add, lin_eval,
                     lin_kernel, lin_scale, lin_twist, sparse_span,
                     splitting_degree, times_x)
from .limits import DEFAULT_BUDGET


class AlphaSpace(namedtuple("AlphaSpace", "ambient basis embedding equation")):
    """The F_2-space of quotient parameters, inside a splitting extension.

    basis is its canonical F_2-basis, of dimension n; embedding maps the
    curve's coefficient field into ambient; equation is the dual linearized
    equation, over ambient.
    """

    __slots__ = ()

    @property
    def dim(self):
        return len(self.basis)

    def members(self):
        """All 2^n - 1 nonzero elements, in mask order of basis coordinates."""
        return f2_span(self.basis, 0, xor)[1:]

    def contains(self, alpha):
        return lin_eval(self.equation, alpha) == 0


class SplitData(namedtuple("SplitData", "B beta")):
    """A splitting S = B^2 + beta B with B monic of 2-degree n-1."""

    __slots__ = ()


class QuotientCurve(namedtuple("QuotientCurve", "alpha rhs genus")):
    """w^2 + w = rhs, the quotient attached to one alpha; rhs is reduced."""

    __slots__ = ()

    @property
    def field(self):
        return self.rhs.field


def dual_equation(c):
    """The linearized equation of the alpha space of c (see the module doc)."""
    F = c.field
    n = c.n
    return lin(F, [F.frobenius(c.S.coeff(n - i), i + 1 - n)
                   for i in range(n + 1)])


def column_poly(c, e):
    """P_e(alpha) = sum_k c_(k,e) alpha^(2^(n-k)): R_alpha's x^(2^e) coefficient."""
    return lin(c.field, [R.coeff(e) for R in reversed(c.R_list)])


def solve_alpha_space(c, budget=DEFAULT_BUDGET):
    """Kernel of the dual equation of c, in its splitting extension."""
    c.validate()
    eq = dual_equation(c)
    k = splitting_degree(eq, budget)
    ext, emb = extend_and_embed(c.field, k, budget)
    eq_ext = eq.map_field(emb)
    basis = lin_kernel(eq_ext)
    assert len(basis) == c.n, "separable dual equation must split completely"
    return AlphaSpace(ext, tuple(basis), emb, eq_ext)


def split(S, beta):
    """Solve S = B^2 + beta B for monic B of 2-degree n-1.

    Comparing coefficients gives B_0 = A_0/beta and
    B_i = (A_i + B_{i-1}^2)/beta, with the final compatibility condition
    B_{n-2}^2 + beta = A_{n-1}.  It succeeds exactly when
    beta = 1/alpha^(2^(n-2)) for a nonzero alpha in the alpha space of S.
    Over F_2 that space is closed under squaring, so the admissible betas
    are the 1/alpha.
    """
    if beta == 0:
        raise ValueError("beta must be nonzero")
    F = S.field
    n = S.h
    if S.coeffs[-1] != 1:
        raise ValueError("S must be monic")
    if n < 1:
        raise ValueError("S must have positive 2-degree")
    inv_beta = F.inv(beta)
    if n == 1:
        if beta != S.coeff(0):
            raise ValueError("beta is not admissible for this S")
        B = lin(F, [1])
    else:
        coeffs = [0] * (n - 1) + [1]
        coeffs[0] = F.mul(S.coeff(0), inv_beta)
        for i in range(1, n - 1):
            coeffs[i] = F.mul(S.coeff(i) ^ F.sqr(coeffs[i - 1]), inv_beta)
        if F.sqr(coeffs[n - 2]) ^ beta != S.coeff(n - 1):
            raise ValueError("beta is not admissible for this S")
        B = lin(F, coeffs)
    data = SplitData(B, beta)
    assert lin_add(lin_twist(B, 1), lin_scale(beta, B)).coeffs == S.coeffs
    return data


def combined_rhs_poly(c, alpha, space):
    """The linearized polynomial R_alpha = sum_k alpha^(2^(n-k)) R_k over the ambient."""
    width = max(len(R.coeffs) for R in c.R_list)
    return lin(space.ambient,
               [lin_eval(column_poly(c, e).map_field(space.embedding), alpha)
                for e in range(width)])


def quotient_curve(c, alpha, space):
    """The quotient w^2 + w = sum_k alpha^(2^(n-k)) x R_k attached to alpha."""
    if alpha == 0 or not space.contains(alpha):
        raise ValueError("alpha must be a nonzero member of the alpha space")
    rhs = as_reduce(times_x(combined_rhs_poly(c, alpha, space)))
    return QuotientCurve(alpha, rhs, as_genus(rhs))


def is_irreducible(c):
    """Whether no nonzero alpha in the alpha space kills all the R_k.

    A vanishing R_alpha exhibits a trivial quotient; otherwise the strata
    of c (``builder.equation_strata``) count all n dimensions of alphas.
    """
    c.validate()
    return sum(dim for _, dim in c.strata) == c.n


def quotient_rows(c, budget=DEFAULT_BUDGET):
    """(ambient, [(alpha, genus, terms), ...]) in the order of members().

    Only the n basis quotients are built; the rest are sums of theirs
    (``sparse_span``).  Reduction is F_2-linear (c x^(2e) -> sqrt(c) x^e
    term by term), so the reduced right-hand side of alpha + beta is the
    sum of those of alpha and beta, and a sum of reduced polynomials (odd
    exponents and a constant) is already reduced, so each genus is read off
    its degree d as (d - 1)/2.  The genera sum to the genus of c.
    """
    if not is_irreducible(c):
        raise ValueError("curve is reducible: decomposition undefined")
    space = solve_alpha_space(c, budget)
    rows = sparse_span([quotient_curve(c, a, space).rhs for a in space.basis])
    return space.ambient, [(alpha, (t[0][0] - 1) // 2, t)
                           for alpha, t in zip(space.members(), rows[1:])]


def decomposition(c, budget=DEFAULT_BUDGET):
    """Quotient curves for every nonzero alpha, in the order of members()."""
    F, rows = quotient_rows(c, budget)
    # The right-hand sides are made before the curves, so a caller that keeps
    # them and drops the curves (zeta._pieces) frees whole allocator pools.
    rhs = [SparsePoly(F, t) for _, _, t in rows]
    return [QuotientCurve(alpha, f, genus)
            for (alpha, genus, _), f in zip(rows, rhs)]
