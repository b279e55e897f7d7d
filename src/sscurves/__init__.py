"""Supersingular curves of any given genus in characteristic 2.

Constructs explicit defining equations of supersingular curves over F_2 and
over F_{2^m} for every positive genus, decomposes their jacobians into
quotient pieces, and verifies genus, irreducibility, and supersingularity
numerically at desk scale (exact point counts, Newton identities, Newton
polygons).
"""

__version__ = "0.1.0"

from .decomp import GenusDecomposition, decompose, moduli_lower_bound
from .field import BinaryField, FieldEmbedding, make_field
from .linops import LinPoly, SparsePoly, lin
from .builder import (CurveSpec, FibreProductSpec, GenusCertificate,
                      build_components, build_prime_field, certificate,
                      glue_single_block)
from .quotient import (AlphaSpace, QuotientCurve, SplitData, decomposition,
                       solve_alpha_space)
from .zeta import (CountSeries, LPoly, NPReport, count_points,
                   powersum_additivity_check, verify_supersingular)
from .classify import (IsoWitness, RadicalBasis, curves_isomorphic, e_poly,
                       radical, scaling_orbit)
from .limits import Budget, BudgetError, CapacityError
