"""The one Budget that bounds every expensive operation in the library.

Field construction, splitting-field searches and point counts are bounded
so that a bad input fails fast instead of grinding, and an exceeded bound
raises BudgetError.  ``max_degree`` bounds the degree of the ambient
fields a computation builds, and a point count over F_2^n runs only when
n is within both ``log2_points`` and ``max_degree``.  The defaults are
sized for desk-scale experiments; the command line driver builds its
Budget from the --budget-log2 and --max-degree flags.
"""

from collections import namedtuple

# Largest ambient field degree constructed by default.
DEFAULT_MAX_DEGREE = 64

# log2 of the order of the largest field a single point count may run over.
DEFAULT_LOG2_POINTS = 24


class BudgetError(RuntimeError):
    """A requested field, splitting field or point count exceeds a bound."""


class Budget(namedtuple("Budget", "log2_points max_degree",
                        defaults=(DEFAULT_LOG2_POINTS, DEFAULT_MAX_DEGREE))):
    """Resource bounds for verification runs."""

    __slots__ = ()

    def check_degree(self, n):
        if n > self.max_degree:
            raise BudgetError("field degree %d exceeds bound %d"
                              % (n, self.max_degree))

    def check_points(self, degree):
        if not self.fits_points(degree):
            raise BudgetError(
                "count field F_2^%d exceeds the budget 2^%d or the degree "
                "bound %d" % (degree, self.log2_points, self.max_degree))

    def fits_points(self, degree):
        """Whether a point count may run over F_2^degree."""
        return degree <= min(self.log2_points, self.max_degree)


DEFAULT_BUDGET = Budget()
