"""Library refusals that no command reaches: each call raises one exception
type with one message."""

from unittest import mock

import pytest

from sscurves import gf2x, jsonio
from sscurves.builder import FibreProductSpec, glue_single_block, to_standard_form
from sscurves.classify import covers_isomorphic, curves_isomorphic, scaling_orbit
from sscurves.field import make_field, pdivmod
from sscurves.limits import Budget, BudgetError
from sscurves.linops import (lin, lin_add, lin_kernel, lin_rmod, lin_twist,
                             sparse, splitting_degree)
from sscurves.quotient import split
from sscurves.zeta import (CountSeries, count_artin_schreier, count_points,
                           lpoly_from_counts)

F2 = make_field(1)
F4 = make_field(2)
F16 = make_field(4)


def factor_with_few_rho_steps():
    # 2^59 - 1 = 179,951 * 3,203,431,780,337: both primes are past trial
    # division, and rho needs about 530 steps for the smaller one
    with mock.patch.object(gf2x, "_RHO_MAX_STEPS", 64):
        gf2x.factorize((1 << 59) - 1)


@pytest.mark.parametrize("call, exc, message", [
    (lambda: F16.inv(0), ZeroDivisionError, "inverse of zero field element"),
    (lambda: F16.pow(0, -1), ZeroDivisionError, "negative power of zero"),
    (lambda: pdivmod(F16, [1, 1], []), ZeroDivisionError,
     "division by zero polynomial"),
    (lambda: gf2x.mod(0b101, 0), ZeroDivisionError,
     "division by zero polynomial"),
    (lambda: gf2x.smallest_irreducible(0), ValueError,
     "degree must be positive"),
    (factor_with_few_rho_steps, BudgetError,
     "cannot factor 576460752303423487 within 64 rho steps"),
    (lambda: lin_add(lin(F2, [1]), lin(F4, [1])), ValueError,
     "field mismatch"),
    (lambda: lin_rmod(lin(F2, [1]), lin(F4, [1])), ValueError,
     "field mismatch"),
    (lambda: lin_twist(lin(F2, [1]), -1), ValueError,
     "twist exponent must be nonnegative"),
    (lambda: lin_kernel(lin(F2, [])), ValueError,
     "kernel of the zero polynomial"),
    (lambda: splitting_degree(lin(F2, [])), ValueError,
     "zero polynomial has no splitting field"),
    (lambda: sparse(F2, {-1: 1}), ValueError, "negative exponent"),
    (lambda: split(lin(F4, [1, 2]), 1), ValueError, "S must be monic"),
    (lambda: split(lin(F4, [1]), 1), ValueError,
     "S must have positive 2-degree"),
    # one stratum (1, 1) over F_16, whose degree is 4
    (lambda: glue_single_block(FibreProductSpec(F16, (sparse(F16, {3: 1}),))),
     ValueError, "field degree must equal the block width"),
    (lambda: to_standard_form(sparse(F2, {0: 1}), 1), ValueError,
     "exponent 0 not representable"),
    (lambda: scaling_orbit(lin(F16, [0, 1]), 0), ValueError,
     "rho must be nonzero"),
    # 3 is no fifth power in F_16, and F_256 is past the bound
    (lambda: curves_isomorphic(lin(F16, [0, 0, 1]), lin(F16, [0, 0, 3]),
                               Budget(max_degree=4)),
     BudgetError, "splitting field of X^5 = c exceeds degree 4"),
    (lambda: curves_isomorphic(lin(F2, [0, 1]), lin(F4, [0, 1])), ValueError,
     "coefficient fields differ"),
    (lambda: curves_isomorphic(lin(F16, [1]), lin(F16, [1])), ValueError,
     "R must have 2-degree >= 1"),
    (lambda: curves_isomorphic(lin(F16, []), lin(F16, [0, 1])), ValueError,
     "R must have 2-degree >= 1"),
    (lambda: covers_isomorphic([lin(F2, [0, 1])], [lin(F4, [0, 1])]),
     ValueError, "coefficient fields differ"),
    (lambda: covers_isomorphic([], []), ValueError, "empty basis"),
    # the refusals come before the lengths are compared
    pytest.param(lambda: covers_isomorphic([], [lin(F16, [0, 1])]),
                 ValueError, "empty basis", id="covers-empty-first"),
    pytest.param(lambda: covers_isomorphic([lin(F16, [0, 1])], []),
                 ValueError, "empty basis", id="covers-empty-second"),
    pytest.param(lambda: covers_isomorphic(
                     [lin(F16, [0])], [lin(F16, [0, 1]), lin(F16, [1, 0, 1])]),
                 ValueError, "zero polynomial in a basis",
                 id="covers-zero-unequal-lengths"),
    pytest.param(lambda: covers_isomorphic(
                     [lin(F2, [0, 1])], [lin(F4, [0, 1]), lin(F4, [1, 0, 1])]),
                 ValueError, "coefficient fields differ",
                 id="covers-fields-unequal-lengths"),
    # span(x, x) is span(x): this printed "not isomorphic" and exited 0
    pytest.param(lambda: covers_isomorphic(
                     [lin(F16, [0, 1]), lin(F16, [0, 1])], [lin(F16, [0, 1])]),
                 ValueError, "basis elements are F_2-dependent",
                 id="covers-dependent-unequal-lengths"),
    (lambda: jsonio.curve_to_json(object(), {"g": 1}), TypeError,
     "cannot serialize 'object'"),
    (lambda: lpoly_from_counts(CountSeries(2, (3,), 2)), ValueError,
     "need counts over the first 2 extensions"),
    # Tr x^7 is no quadratic form; a fibre product built in the library,
    # not loaded, reaches the count
    pytest.param(lambda: count_artin_schreier(sparse(F2, {7: 1}), 1),
                 ValueError, "exponent 7 has binary weight 3; only weights "
                 "up to 2 are counted", id="weight-three-rhs"),
    pytest.param(lambda: count_points(
                     FibreProductSpec(F2, (sparse(F2, {9: 1, 7: 1}),)), 1),
                 ValueError, "exponent 7 has binary weight 3; only weights "
                 "up to 2 are counted", id="weight-three-fibre-product"),
])
def test_library_refusals(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert (type(info.value), str(info.value)) == (exc, message)
