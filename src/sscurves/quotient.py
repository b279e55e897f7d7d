"""Degree-2 quotients of a single-equation curve and its jacobian pieces.

For C : S(y) = T(x) with S 2-linearized of 2-degree n, the index-2 subgroups
of the translation group {y -> y + sigma : S(sigma) = 0} are parametrized by
the nonzero solutions alpha of the linearized dual equation

    A_0^(2^(n-1)) a^(2^n) + A_1^(2^(n-2)) a^(2^(n-1)) + ... + A_{n-1} a^2 + a = 0.

Each alpha yields a quotient curve w^2 + w = sum_k alpha^(2^(n-k)) x R_k(x),
and the jacobian of C splits up to isogeny into the jacobians of these
quotients.  The curve is irreducible exactly when no nonzero alpha kills the
combined right-hand side.
"""

from dataclasses import dataclass

from .field import BinaryField, FieldEmbedding, _xor_rows, extend_and_embed
from .linops import (LinPoly, SparsePoly, as_genus, as_reduce, lin, lin_add,
                     lin_eval, lin_kernel, lin_scale, lin_twist,
                     splitting_degree, times_x)
from .limits import DEFAULT_MAX_DEGREE


@dataclass(frozen=True)
class AlphaSpace:
    """The F_2-space of quotient parameters, inside a splitting extension."""

    ambient: BinaryField
    basis: tuple               # canonical F_2-basis, dimension n
    embedding: FieldEmbedding  # curve coefficient field -> ambient
    equation: LinPoly          # the dual linearized equation, over ambient

    @property
    def dim(self):
        return len(self.basis)

    def members(self):
        """All 2^n - 1 nonzero elements, lexicographic in basis coordinates."""
        for mask in range(1, 1 << self.dim):
            yield _xor_rows(self.basis, mask)

    def contains(self, alpha):
        return lin_eval(self.equation, alpha) == 0


@dataclass(frozen=True)
class SplitData:
    """A splitting S = B^2 + beta B with B monic of 2-degree n-1."""

    B: LinPoly
    beta: int


@dataclass(frozen=True)
class QuotientCurve:
    """w^2 + w = rhs, the quotient attached to one alpha; rhs is reduced."""

    alpha: int
    rhs: SparsePoly
    genus: int


def dual_equation(c):
    """The linearized equation satisfied by the quotient parameters of c."""
    F = c.field
    n = c.n
    coeffs = [1] * (n + 1)
    for i in range(1, n + 1):
        coeffs[i] = F.frobenius(c.S.coeff(n - i), i - 1)
    return lin(F, coeffs)


def solve_alpha_space(c, max_degree=DEFAULT_MAX_DEGREE):
    """Kernel of the dual equation of c, in its splitting extension."""
    c.validate()
    eq = dual_equation(c)
    k = splitting_degree(eq, max_degree=max_degree)
    ext, emb = extend_and_embed(c.field, k, max_degree=max_degree)
    eq_ext = eq.map_field(emb)
    basis = lin_kernel(eq_ext, ext)
    assert len(basis) == c.n, "separable dual equation must split completely"
    return AlphaSpace(ext, tuple(basis), emb, eq_ext)


def split(S, beta):
    """Solve S = B^2 + beta B for monic B of 2-degree n-1.

    Comparing coefficients gives B_0 = A_0/beta and
    B_i = (A_i + B_{i-1}^2)/beta, with the final compatibility condition
    B_{n-2}^2 + beta = A_{n-1}.  It succeeds exactly when 1/beta is a
    nonzero member of the alpha space of S.
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
    amb = space.ambient
    n = c.n
    acc = lin(amb, [])
    for k, R in enumerate(c.R_list, start=1):
        if R.is_zero():
            continue
        coef = amb.frobenius(alpha, n - k)
        acc = lin_add(acc, lin_scale(coef, R.map_field(space.embedding)))
    return acc


def quotient_curve(c, alpha, space=None, max_degree=DEFAULT_MAX_DEGREE):
    """The quotient w^2 + w = sum_k alpha^(2^(n-k)) x R_k attached to alpha."""
    if space is None:
        space = solve_alpha_space(c, max_degree=max_degree)
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


def decomposition(c, max_degree=DEFAULT_MAX_DEGREE):
    """Quotient curves for every nonzero alpha, in deterministic order.

    The genera of the list sum to the genus of c.
    """
    if not is_irreducible(c):
        raise ValueError("curve is reducible: decomposition undefined")
    space = solve_alpha_space(c, max_degree=max_degree)
    return [quotient_curve(c, alpha, space) for alpha in space.members()]
