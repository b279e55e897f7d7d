"""Plain-text rendering of equations, with exponents in decreasing order.

Coefficients print as powers of the field generator ("a", "a^6") when the
element lies in the generator's multiplicative orbit, falling back to hex
otherwise; the generator of the prime field is 1 so prime-field equations
carry no coefficient prefixes at all.

The exponent of a coefficient c is its least discrete logarithm e to base
a, found without walking the field.  Fields of degree at most 20 read it
off the field's log table, which holds the logs to base a (None outside
the orbit of a).  Larger fields run Pohlig-Hellman over the factorization
of ord(a) (cached on the field), with baby-step giant-step for the digit
at each prime.  The baby-step table of a prime depends on the prime alone,
so a table of at most _MAX_CACHED_STEPS = 2^16 steps (p <= 2^32, every
prime of ord(a) at degrees up to 64 that is not beyond the next bound) is
built once and kept on the field for its lifetime (about 5 MB at
p = 2^31 - 1, 7.5 MB at the cap); a larger one is rebuilt for each
coefficient.  A prime that would need more than _MAX_BABY_STEPS = 2^20
baby steps (p > 2^40, which among degrees up to 64 happens at 49, 59 and
61) has only digits below _SHORT_WALK = 2^12 found, by walking its powers;
any other exponent there raises BudgetError (exit code 3) instead of
grinding.
"""

from math import isqrt

from .limits import BudgetError
from .linops import times_x

# Baby-step giant-step keeps at most this many baby steps per prime.
_MAX_BABY_STEPS = 1 << 20

# Baby-step tables up to this size are kept on the field between calls.
_MAX_CACHED_STEPS = 1 << 16

# Digits at a prime beyond the baby-step bound are only looked for below
# this, which still finds the small exponents (a^j, j < 64) that builders emit.
_SHORT_WALK = 1 << 12


def coeff_text(F, c):
    """Prefix for a coefficient: '' for 1, 'a^e*' style otherwise."""
    if c == 1:
        return ""
    e = _dlog(F, c)
    if e is None:
        return "0x%x*" % c
    return ("a*" if e == 1 else "a^%d*" % e)


def _dlog(F, c):
    """Least e >= 0 with a^e = c for the generator a, or None if c is not in <a>."""
    if c == 0:
        return None
    if F.ensure_tables():
        return F.tables[1][c]
    return _pohlig_hellman(F, c)


def _pohlig_hellman(F, c):
    order, factors = F.generator_order()
    if F.pow(c, order) != 1:
        return None
    e, modulus = 0, 1
    for p, k in factors:
        pk = p ** k
        g = F.pow(F.generator, order // pk)     # order p^k
        h = F.pow(c, order // pk)
        gamma = F.pow(g, pk // p)               # order p
        t = 0
        for i in range(k):
            # (h g^-t)^(p^(k-1-i)) = gamma^(digit i of log_g h in base p)
            r = F.pow(F.mul(h, F.pow(g, -t)), p ** (k - 1 - i))
            t += _bsgs(F, gamma, r, p) * p ** i
        e += modulus * ((t - e) * pow(modulus, -1, pk) % pk)
        modulus *= pk
    return e


def _bsgs(F, gamma, h, p):
    """t in [0, p) with gamma^t = h, for gamma = a^(ord(a)/p) of order p."""
    m = isqrt(p - 1) + 1        # m^2 >= p
    if m > _MAX_BABY_STEPS:
        v = 1
        for t in range(_SHORT_WALK):
            if v == h:
                return t
            v = F.mul(v, gamma)
        raise BudgetError("discrete log in F_2^%d needs %d baby steps for "
                          "the prime %d" % (F.degree, m, p))
    cached = F._baby_steps.get(p)
    if cached is None:
        baby = {}
        v = 1
        for j in range(m):
            baby[v] = j
            v = F.mul(v, gamma)
        cached = (baby, F.pow(gamma, -m))
        if m <= _MAX_CACHED_STEPS:
            F._baby_steps[p] = cached
    baby, giant = cached
    for i in range(m):
        j = baby.get(h)
        if j is not None:
            return i * m + j
        h = F.mul(h, giant)
    raise AssertionError("h is not a power of gamma")


def _terms_text(F, terms, var):
    """'c*v^e+...' for (e, c) terms over F, in the order given; '0' for none."""
    parts = []
    for e, c in terms:
        cs = coeff_text(F, c)
        if e == 0:
            parts.append(cs[:-1] if cs else "1")
        elif e == 1:
            parts.append(cs + var)
        else:
            parts.append("%s%s^%d" % (cs, var, e))
    return "+".join(parts) or "0"


def sparse_text(f):
    return _terms_text(f.field, f.terms, "x")


def linpoly_text(R, var="y"):
    terms = [(1 << i, a) for i, a in enumerate(R.coeffs) if a]
    return _terms_text(R.field, reversed(terms), var)


def equation_text(curve):
    """'S(y) = T(x)' for a single-equation curve."""
    return "%s = %s" % (linpoly_text(curve.S), sparse_text(curve.derived_T()))


def xr_table(curve):
    """Lines 'xR_k = ...' for the twist slots of a single-equation curve."""
    lines = []
    for k, R in enumerate(curve.R_list, start=1):
        lines.append("xR_%d = %s" % (k, sparse_text(times_x(R))))
    return lines


def component_lines(spec):
    """Lines 'y_j^2+y_j = f_j' for a fibre product."""
    return ["y_%d^2+y_%d = %s" % (j, j, sparse_text(f))
            for j, f in enumerate(spec.components)]
