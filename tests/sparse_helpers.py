"""Sparse-polynomial helpers used only by the tests."""

from sscurves.linops import sparse


def as_dict(f):
    """The {exponent: coefficient} mapping of a SparsePoly."""
    return dict(f.terms)


def sparse_scale(c, f):
    """c * f for a field element c."""
    F = f.field
    return sparse(F, {e: F.mul(c, a) for e, a in f.terms})
