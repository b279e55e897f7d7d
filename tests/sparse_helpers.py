"""Sparse-polynomial helpers used only by the tests."""

from sscurves.field import f2_span
from sscurves.linops import SparsePoly, sparse
from sscurves.quotient import QuotientCurve, quotient_curve, solve_alpha_space


def as_dict(f):
    """The {exponent: coefficient} mapping of a SparsePoly."""
    return dict(f.terms)


def sparse_scale(c, f):
    """c * f for a field element c."""
    F = f.field
    return sparse(F, {e: F.mul(c, a) for e, a in f.terms})


def sparse_add(f, g):
    """f + g, built directly: the terms of both are already canonical, so
    only the cancelled ones are dropped."""
    F = f.field
    if g.field is not F and g.field != F:
        raise ValueError("field mismatch")
    acc = dict(f.terms)
    for e, c in g.terms:
        acc[e] = acc.get(e, 0) ^ c
    return SparsePoly(F, tuple(sorted([t for t in acc.items() if t[1]],
                                      reverse=True)))


def span_oracle(basis, F):
    """The 2^w sums of the sparse polynomials basis over F, indexed by mask,
    one sparse_add per member: the reference for linops.sparse_span."""
    return f2_span(basis, sparse(F, {}), sparse_add)


def combinations_oracle(spec):
    """builder.fibre_combinations by the reference walk."""
    return list(enumerate(span_oracle(spec.components, spec.field)))[1:]


def decomposition_oracle(c):
    """quotient.decomposition by the reference walk: the sums of the basis
    quotients, each genus read off its degree."""
    space = solve_alpha_space(c)
    rhs = span_oracle([quotient_curve(c, a, space).rhs for a in space.basis],
                      space.ambient)[1:]
    return [QuotientCurve(alpha, f, (f.degree - 1) // 2)
            for alpha, f in zip(space.members(), rhs)]
