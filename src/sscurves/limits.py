"""Capacity and point-count budgets shared across the library.

All expensive operations (field construction, splitting-field searches,
point counting) are bounded so that a bad input fails fast instead of
grinding.  ``max_degree`` bounds the degree of the ambient fields a
computation builds, and a point count over F_2^n runs only when n is
within both ``log2_points`` and ``max_degree``.  The defaults are sized
for desk-scale experiments; a call can pass other bounds, and the command
line driver takes them from its --budget-log2 and --max-degree flags.
"""

from collections import namedtuple

# Largest ambient field degree constructed by default.
DEFAULT_MAX_DEGREE = 64

# log2 of the order of the largest field a single point count may run over.
DEFAULT_LOG2_POINTS = 24


class CapacityError(RuntimeError):
    """A requested field or splitting field exceeds the degree bound."""


class BudgetError(RuntimeError):
    """A requested point count exceeds the budget."""


class Budget(namedtuple("Budget", "log2_points max_degree",
                        defaults=(DEFAULT_LOG2_POINTS, DEFAULT_MAX_DEGREE))):
    """Resource bounds for verification runs."""

    __slots__ = ()

    def check_points(self, degree):
        if not self.fits_points(degree):
            raise BudgetError(
                "count field F_2^%d exceeds the budget 2^%d or the degree "
                "bound %d" % (degree, self.log2_points, self.max_degree))

    def fits_points(self, degree):
        """Whether a point count may run over F_2^degree."""
        return degree <= min(self.log2_points, self.max_degree)


DEFAULT_BUDGET = Budget()
