"""Capacity and enumeration budgets shared across the library.

All expensive operations (field construction, splitting-field searches,
point counting) are bounded so that a bad input fails fast instead of
grinding.  The defaults are sized for desk-scale experiments and can be
overridden per call or through the environment (see the command line
driver).
"""

from dataclasses import dataclass

# Largest ambient field degree constructed by default.
DEFAULT_MAX_DEGREE = 64

# log2 of the order of the largest field a single point count may run over.
DEFAULT_LOG2_POINTS = 24


class CapacityError(RuntimeError):
    """A requested field or splitting field exceeds the degree bound."""


class BudgetError(RuntimeError):
    """A requested enumeration exceeds the point budget."""


@dataclass(frozen=True)
class Budget:
    """Resource bounds for verification runs."""

    log2_points: int = DEFAULT_LOG2_POINTS
    max_degree: int = DEFAULT_MAX_DEGREE

    def check_points(self, log2_count):
        if log2_count > self.log2_points:
            raise BudgetError(
                "enumeration of 2^%d points exceeds budget 2^%d"
                % (log2_count, self.log2_points)
            )

    def fits_points(self, log2_count):
        return log2_count <= self.log2_points


DEFAULT_BUDGET = Budget()
