"""Polynomial arithmetic over GF(2) with int-packed coefficients.

A polynomial sum b_i x^i is stored as the integer sum b_i 2^i, so addition
is xor and multiplication by x is a left shift.  This keeps the hot loops
(irreducibility tests of field moduli) inside CPython's bignum layer where
they run on machine words.

Moduli are tested by Ben-Or's test: f of degree n is irreducible iff
gcd(x^(2^i) - x, f) = 1 for every i <= n/2, since x^(2^i) - x is the
product of the irreducibles of degree dividing i and a reducible f has a
factor of degree at most n/2.  Most candidates fail after a few squarings.

The module also factors integers (``factorize``), for the orders 2^n - 1
of multiplicative groups.
"""

from itertools import count
from math import gcd as gcd_int

from .limits import BudgetError

# Squaring spreads the bits of a byte: bit i -> bit 2i.
_SPREAD = [sum(1 << (2 * i) for i in range(8) if b >> i & 1) for b in range(256)]


def degree(a):
    """Degree of a, with degree(0) == -1."""
    return a.bit_length() - 1


def mul(a, b):
    """Product of polynomials a and b."""
    if a < b:
        a, b = b, a
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def sqr(a):
    """Square of a (bit spreading; cross terms vanish in characteristic 2)."""
    r = 0
    shift = 0
    while a:
        r |= _SPREAD[a & 0xFF] << shift
        a >>= 8
        shift += 16
    return r


def mod(a, m):
    """Remainder of a modulo nonzero m."""
    if m == 0:
        raise ZeroDivisionError("division by zero polynomial")
    dm = degree(m)
    da = degree(a)
    while da >= dm:
        a ^= m << (da - dm)
        da = degree(a)
    return a


def gcd(a, b):
    """Greatest common divisor (monic by construction over GF(2))."""
    while b:
        a, b = b, mod(a, b)
    return a


def sqrmod(a, m):
    return mod(sqr(a), m)


# Trial division runs up to this bound before Pollard's rho takes over.
_TRIAL_BOUND = 1 << 10

# Miller-Rabin bases: a deterministic primality test below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# Pollard's rho gives up after this many steps.  It finds a prime p in about
# 1.25 sqrt(p) steps, so a factor still hidden by then is most likely beyond
# 2^38, where a discrete log by baby-step giant-step would not finish either.
_RHO_MAX_STEPS = 1 << 20


def factorize(n):
    """Prime factorization of n >= 1 as a sorted list of (p, k) pairs.

    Trial division removes the small primes; what remains is split by
    Pollard's rho down to Miller-Rabin primes.  Raises BudgetError when rho
    exceeds its step bound.
    """
    out = {}
    p = 2
    while p < _TRIAL_BOUND and p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _rho(m)
            stack += [d, m // d]
    return sorted(out.items())


def _is_prime(n):
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        y = pow(a, d, n)
        if y == 1 or y == n - 1:
            continue
        for _ in range(s - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def _rho(n):
    """A proper factor of the odd composite n (Floyd cycle finding)."""
    steps = 0
    for c in count(1):
        x = y = 2
        d = 1
        while d == 1:
            steps += 1
            if steps > _RHO_MAX_STEPS:
                raise BudgetError("cannot factor %d within %d rho steps"
                                  % (n, _RHO_MAX_STEPS))
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd_int(x - y, n)
        if d != n:
            return d


def is_irreducible(f):
    """Ben-Or's irreducibility test for f over GF(2) (see the module doc)."""
    n = degree(f)
    if n <= 0:
        return False
    t = mod(2, f)
    for _ in range(n // 2):
        t = sqrmod(t, f)
        if gcd(t ^ 2, f) != 1:
            return False
    return True


def smallest_irreducible(n):
    """The monic irreducible of degree n whose bit pattern is smallest.

    For n == 1 this is the polynomial x itself.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    if n == 1:
        return 0b10
    for f in range((1 << n) + 1, 1 << (n + 1), 2):
        if is_irreducible(f):
            return f
    raise AssertionError("unreachable: irreducibles exist in every degree")


def frobenius_order(f, cap):
    """Least k <= cap with x^(2^k) == x (mod f), or None.

    For squarefree f this is the lcm of the degrees of its irreducible
    factors, i.e. the degree of its splitting field over GF(2).
    """
    x = mod(2, f)
    t = x
    for k in range(1, cap + 1):
        t = sqrmod(t, f)
        if t == x:
            return k
    return None
