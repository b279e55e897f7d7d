import random

import pytest

from sscurves import gf2x


def brute_irreducible(f):
    """Oracle: trial division by every lower-degree polynomial."""
    n = gf2x.degree(f)
    if n <= 0:
        return False
    for d in range(2, 1 << n):
        if gf2x.degree(d) < n and gf2x.mod(f, d) == 0:
            return False
    return True


def test_mul_mod_divmod():
    # a = q b + r with deg r < deg b leaves r modulo b
    rng = random.Random(7)
    for _ in range(200):
        q = rng.getrandbits(10)
        b = rng.getrandbits(20) | 1 << 20
        r = rng.getrandbits(20)
        a = gf2x.mul(q, b) ^ r
        assert gf2x.mod(a, b) == r


def test_sqr_matches_mul():
    rng = random.Random(8)
    for _ in range(200):
        a = rng.getrandbits(50)
        assert gf2x.sqr(a) == gf2x.mul(a, a)


def test_gcd_divides_both():
    rng = random.Random(9)
    for _ in range(100):
        a = rng.getrandbits(24)
        b = rng.getrandbits(24)
        if not a or not b:
            continue
        g = gf2x.gcd(a, b)
        assert gf2x.mod(a, g) == 0 and gf2x.mod(b, g) == 0


def rabin_irreducible(f):
    """Oracle: Rabin's test.  f of degree n >= 1 is irreducible iff
    x^(2^n) = x mod f and gcd(x^(2^(n/p)) - x, f) = 1 for every prime p | n."""
    n = gf2x.degree(f)
    powers = [gf2x.mod(2, f)]           # x^(2^k) mod f, k = 0..n
    for _ in range(n):
        powers.append(gf2x.sqrmod(powers[-1], f))
    return n >= 1 and powers[n] == powers[0] and all(
        gf2x.gcd(powers[n // p] ^ 2, f) == 1 for p, _ in gf2x.factorize(n))


@pytest.mark.parametrize("n", range(1, 11))
def test_irreducibility_against_oracle(n):
    for f in range(1 << n, 1 << (n + 1)):
        assert gf2x.is_irreducible(f) == brute_irreducible(f), bin(f)


def test_smallest_irreducible_values():
    assert gf2x.smallest_irreducible(1) == 0b10          # x
    assert gf2x.smallest_irreducible(2) == 0b111         # x^2+x+1
    assert gf2x.smallest_irreducible(3) == 0b1011        # x^3+x+1
    assert gf2x.smallest_irreducible(4) == 0b10011       # x^4+x+1
    assert gf2x.smallest_irreducible(6) == 0b1000011     # x^6+x+1


@pytest.mark.parametrize("n", range(1, 13))
def test_smallest_irreducible_is_minimal(n):
    f = gf2x.smallest_irreducible(n)
    assert gf2x.degree(f) == n and gf2x.is_irreducible(f)
    for g in range(1 << n, f):
        assert not gf2x.is_irreducible(g)


def test_smallest_irreducible_against_rabin():
    # the moduli of every field up to degree 130, as Rabin's test chose
    # them; above degree 1 an even f is divisible by x
    assert gf2x.smallest_irreducible(1) == 0b10
    for n in range(2, 131):
        f = next(f for f in range((1 << n) + 1, 1 << (n + 1), 2)
                 if rabin_irreducible(f))
        assert gf2x.smallest_irreducible(n) == f, n


def test_frobenius_order():
    assert gf2x.frobenius_order(0b110, 8) == 1            # x^2+x: roots {0,1}
    assert gf2x.frobenius_order(0b10010, 8) == 2          # x^4+x: roots F_4
    f = (1 << 16) | (1 << 8) | (1 << 2) | (1 << 1)        # x^16+x^8+x^2+x
    assert gf2x.frobenius_order(f, 16) == 6
    assert gf2x.frobenius_order(f, 5) is None


def trial_factorize(n):
    """Oracle: trial division by every integer up to sqrt(n)."""
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return sorted(out.items())


def test_factorize_against_trial_division():
    rng = random.Random(11)
    for n in list(range(1, 300)) + [rng.randrange(1, 1 << 36)
                                     for _ in range(50)]:
        assert gf2x.factorize(n) == trial_factorize(n), n
    for n in range(1, 41):
        assert gf2x.factorize((1 << n) - 1) == trial_factorize((1 << n) - 1)


def test_factorize_large_multiplicative_orders():
    assert gf2x.factorize((1 << 61) - 1) == [((1 << 61) - 1, 1)]
    assert gf2x.factorize((1 << 62) - 1) == [
        (3, 1), (715827883, 1), (2147483647, 1)]
    assert gf2x.factorize((1 << 64) - 1) == [
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1),
        (6700417, 1)]
    assert gf2x.factorize(1093 ** 2 * 3511 ** 3 * 1000003) == [
        (1093, 2), (3511, 3), (1000003, 1)]
