"""Supersingular curves of any given genus in characteristic 2.

Constructs explicit defining equations of supersingular curves over F_2 and
over F_{2^m} for every positive genus, decomposes their jacobians into
quotient pieces, and verifies genus, irreducibility, and supersingularity
numerically at desk scale (exact point counts, Newton identities, Newton
polygons).
"""

__version__ = "0.1.0"

from .decomp import GenusDecomposition, decompose, moduli_lower_bound
from .field import (BinaryField, FieldEmbedding, embedding_into,
                    extend_and_embed, make_field)
from .linops import (LinPoly, SparsePoly, as_genus, as_reduce, lin,
                     lin_add, lin_eval, lin_kernel, lin_twist, sparse,
                     splitting_degree, times_x)
from .builder import (CurveSpec, FibreProductSpec, GenusCertificate,
                      build_components, build_prime_field, certificate,
                      glue_single_block, stratum_certificate)
from .quotient import (AlphaSpace, QuotientCurve, SplitData, decomposition,
                       is_irreducible, quotient_curve, solve_alpha_space,
                       split)
from .zeta import (CountSeries, LPoly, NPReport, count_artin_schreier,
                   count_points, count_series, lpoly_from_counts,
                   newton_polygon, powersum_additivity_check,
                   verify_supersingular)
from .classify import (IsoWitness, RadicalBasis, covers_isomorphic,
                       curves_isomorphic, e_poly, radical, scaling_orbit)
from .limits import Budget, BudgetError, CapacityError
