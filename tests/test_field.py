import random

import pytest
from hypothesis import example, given, settings, strategies as st

from sscurves import gf2x
from sscurves.field import (BinaryField, F2LinearMap, _trace_split,
                            _xor_rows, embedding_into, extend_and_embed, f2_linear_solve,
                            make_field, poly_roots, psqr)
from sscurves.limits import CapacityError

SMALL = settings(max_examples=150, deadline=None)

F2 = make_field(1)
F4 = make_field(2)
F16 = make_field(4)
ALPHA = 2


def peval(F, c, x):
    """Horner evaluation of the little-endian coefficient list c at x."""
    acc = 0
    for coef in reversed(c):
        acc = F.mul(acc, x) ^ coef
    return acc


def test_make_field_canonical_moduli():
    assert F16.modulus == 0b10011            # x^4+x+1
    assert F4.modulus == 0b111
    assert make_field(6).modulus == 0b1000011
    assert make_field(1).modulus == 0b10
    assert make_field(4) is F16              # cached, deterministic


def test_make_field_capacity():
    with pytest.raises(CapacityError):
        make_field(100, max_degree=64)
    with pytest.raises(ValueError):
        make_field(0)


@pytest.mark.parametrize("F", [F2, F4, F16, make_field(5)])
def test_field_axioms_random(F):
    rng = random.Random(F.degree)
    for _ in range(150):
        a, b, c = (rng.randrange(F.order) for _ in range(3))
        assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
        assert F.mul(a, b ^ c) == F.mul(a, b) ^ F.mul(a, c)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.mul(a, 1) == a
        if a:
            assert F.mul(a, F.inv(a)) == 1


def test_pow_and_sqrt():
    assert F16.pow(ALPHA, 4) == 0b0011               # alpha^4 = alpha + 1
    assert F16.mul(ALPHA, F16.pow(ALPHA, 3)) == 0b0011
    assert F16.pow(ALPHA, 9) == 0b1010               # alpha^9 = alpha^3 + alpha
    assert F16.pow(ALPHA, -1) == F16.inv(ALPHA)
    assert F16.pow(ALPHA, 10**30) == F16.pow(ALPHA, 10**30 % 15)
    assert F16.pow(0, 5) == 0 and F16.pow(0, 0) == 1
    for e in range(16):
        assert F16.sqr(F16.sqrt(e)) == e
        assert F16.sqrt(F16.sqr(e)) == e


def test_frobenius():
    assert F16.frobenius(ALPHA, 4) == ALPHA
    assert F16.frobenius(ALPHA, -1) == F16.pow(ALPHA, 8)
    assert F16.frobenius(0, 3) == 0
    rng = random.Random(3)
    for _ in range(100):
        a, b = rng.randrange(16), rng.randrange(16)
        k = rng.randrange(-8, 9)
        assert F16.frobenius(a ^ b, k) == F16.frobenius(a, k) ^ F16.frobenius(b, k)
        assert F16.frobenius(F16.mul(a, b), k) == \
            F16.mul(F16.frobenius(a, k), F16.frobenius(b, k))


def test_trace():
    assert F4.trace(2) == 1                  # gamma + gamma^2 = 1
    assert F16.trace(ALPHA) == 0
    assert F16.trace(0) == 0
    # trace is F_2-linear and onto
    for F in (F2, F4, F16):
        assert any(F.trace(e) == 1 for e in F.elements())
        rng = random.Random(F.degree)
        for _ in range(50):
            a, b = rng.randrange(F.order), rng.randrange(F.order)
            assert F.trace(a ^ b) == F.trace(a) ^ F.trace(b)


def conjugate_sum(F, a):
    acc = t = a
    for _ in range(F.degree - 1):
        t = F.sqr(t)
        acc ^= t
    return acc


@pytest.mark.parametrize("n", range(1, 65))
def test_trace_is_the_sum_of_conjugates(n):
    # the trace-dual rows come from the modulus by Newton's identities;
    # trace and Tr(a b) read them, and must agree with the definition
    F = make_field(n)
    rng = random.Random(n)
    dual = F.trace_dual()
    for _ in range(8):
        a, b = rng.randrange(F.order), rng.randrange(F.order)
        assert F.trace(a) == conjugate_sum(F, a)
        ab = (b & _xor_rows(dual, a)).bit_count() & 1
        assert ab == conjugate_sum(F, F.mul(a, b))


@pytest.mark.parametrize("F", [F2, F4, F16])
def test_artin_schreier_solution_counts(F):
    # y^2+y = c has 2 solutions iff trace(c) = 0, else none
    for c in F.elements():
        sols = [y for y in F.elements() if F.sqr(y) ^ y == c]
        assert len(sols) == (2 if F.trace(c) == 0 else 0)


def test_f2_linear_solve():
    # x -> x^2 + x on F_4: kernel {0,1}, solvable iff trace 0
    images = [F4.sqr(1 << i) ^ (1 << i) for i in range(2)]
    kernel, sol = f2_linear_solve(images, 0)
    assert kernel == [1]
    for target in F4.elements():
        kernel, sol = f2_linear_solve(images, target)
        if F4.trace(target) == 0:
            assert sol is not None and F4.sqr(sol) ^ sol == target
        else:
            assert sol is None
    # identity map: trivial kernel, unique solutions
    kernel, sol = f2_linear_solve([1 << i for i in range(4)], 0b1011)
    assert kernel == [] and sol == 0b1011
    # x -> x^4 + x on F_16: kernel is the copy of F_4 (dimension 2)
    images = [F16.pow(1 << i, 4) ^ (1 << i) for i in range(4)]
    kernel, _ = f2_linear_solve(images, 0)
    assert len(kernel) == 2
    members = {0}
    for b in kernel:
        members |= {m ^ b for m in members}
    assert members == {e for e in F16.elements() if F16.pow(e, 4) == e}


def test_f2_linear_map_membership():
    images = [F16.sqr(1 << i) ^ (1 << i) for i in range(4)]
    lm = F2LinearMap(images)
    assert lm.kernel_basis() == [1]
    for t in F16.elements():
        assert (lm.solve(t) is not None) == (F16.trace(t) == 0)


def test_embeddings():
    ext, emb = extend_and_embed(F4, 2)
    assert ext is F16
    g = emb(2)
    assert F16.mul(g, g) ^ g ^ 1 == 0        # image satisfies gamma^2+gamma+1
    rng = random.Random(5)
    for _ in range(100):
        a, b = rng.randrange(4), rng.randrange(4)
        assert emb(F4.mul(a, b)) == F16.mul(emb(a), emb(b))
        assert emb(a ^ b) == emb(a) ^ emb(b)
    assert emb(0) == 0 and emb(1) == 1
    # subfield membership: image is exactly the fixed field of Frobenius^2
    image = {emb(a) for a in F4.elements()}
    assert image == {e for e in F16.elements() if F16.frobenius(e, 2) == e}
    # preimage inverts
    for a in F4.elements():
        assert emb.preimage(emb(a)) == a
    assert emb.preimage(ALPHA) is None       # alpha generates all of F_16


def test_prime_field_embedding():
    ext, emb = extend_and_embed(F2, 2)
    assert ext is F4 and emb(0) == 0 and emb(1) == 1


def test_identity_embedding_is_cached():
    # a k = 1 count asks for the identity each time; it is built once
    rng = random.Random(20)
    for F, sample in ((F16, F16.elements()),
                      (make_field(20), rng.sample(range(1 << 20), 200))):
        ext, emb = extend_and_embed(F, 1)
        assert ext is F
        assert extend_and_embed(F, 1)[1] is emb
        assert embedding_into(F, F) is emb
        for a in sample:
            assert emb(a) == a and emb.preimage(a) == a


def test_embedding_requires_divisibility():
    with pytest.raises(ValueError):
        embedding_into(F4, make_field(5))


@pytest.mark.parametrize("F", [F4, F16, make_field(6), make_field(13)])
def test_poly_roots_deterministic(F):
    rng = random.Random(F.degree + 17)
    for _ in range(20):
        roots = sorted(rng.sample(range(F.order), rng.randrange(1, 5)))
        coeffs = [1]
        for r in roots:  # multiply by (x + r)
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] ^= c
                nxt[i] ^= F.mul(c, r)
            coeffs = nxt
        assert poly_roots(F, coeffs) == roots
        assert poly_roots(F, coeffs) == roots  # repeated call identical


def test_poly_roots_rejects_non_split():
    # x^2 + x + 1 has no roots in F_2
    assert poly_roots(F2, [1, 1, 1]) is None
    # repeated roots rejected: (x-1)^2 = x^2 + 1 over F_4
    assert poly_roots(F4, [1, 0, 1]) is None


# -- squaring tables and embedding roots against the direct routes -----------


@SMALL
@given(st.data(), st.integers(1, 64))
def test_sqr_matches_polynomial_route(data, n):
    # inputs run up to twice the degree plus a byte: unreduced ones have
    # bits inside the last table and beyond every table
    F = make_field(n)
    a = data.draw(st.integers(0, (1 << (2 * n + 8)) - 1))
    assert F.sqr(a) == gf2x.mod(gf2x.sqr(a), F.modulus)
    b = data.draw(st.integers(0, F.order - 1))
    assert F.sqr(b) == gf2x.mod(gf2x.sqr(b), F.modulus)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64])
def test_sqr_on_every_basis_bit(n):
    F = make_field(n)
    for i in range(2 * n + 9):
        assert F.sqr(1 << i) == gf2x.mod(1 << (2 * i), F.modulus)
        assert psqr(F, [0] * i + [1]) == [0] * (2 * i) + [1]
    assert psqr(F, []) == []


@SMALL
@given(st.data(), st.integers(1, 64), st.integers(-130, 130))
def test_frobenius_round_trip(data, n, k):
    F = make_field(n)
    a = data.draw(st.integers(0, F.order - 1))
    assert F.frobenius(F.frobenius(a, k), -k) == a


@st.composite
def field_polys(draw):
    """(n, coefficients): a random polynomial over F_2^n, or a product of
    random linear factors (some repeated)."""
    n = draw(st.integers(1, 8))
    F = make_field(n)
    elem = st.integers(0, F.order - 1)
    if draw(st.booleans()):
        coeffs = draw(st.lists(elem, min_size=1, max_size=7))
    else:
        coeffs = [draw(st.integers(1, F.order - 1))]
        for r in draw(st.lists(elem, max_size=6)):
            nxt = [0] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                nxt[i + 1] ^= c
                nxt[i] ^= F.mul(c, r)
            coeffs = nxt
    return n, coeffs


@SMALL
@given(field_polys())
@example((1, [0, 1]))           # x
@example((2, [0, 1, 1]))        # x (x + 1)
@example((2, [0, 0, 1]))        # x^2: a double root 0
@example((2, [0, 0, 1, 1]))     # x^2 (x + 1)
@example((4, [7]))              # a nonzero constant
@example((4, [3, 5]))           # 5x + 3, not monic
def test_poly_roots_match_scan(case):
    # against the roots found by scanning every element
    n, coeffs = case
    F = make_field(n)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return
    found = [x for x in range(F.order) if peval(F, coeffs, x) == 0]
    deg = len(coeffs) - 1
    assert poly_roots(F, coeffs) == (found if len(found) == deg else None)


def scan_smallest_root(base, ext):
    """Oracle: the least element of ext that is a root of base's modulus."""
    coeffs = [(base.modulus >> i) & 1 for i in range(base.degree + 1)]
    return min(x for x in ext.elements() if peval(ext, coeffs, x) == 0)


@pytest.mark.parametrize("n", range(2, 13))
def test_embedding_image_is_smallest_root(n):
    # the prime field's modulus is x, so its generator 1 is no root of it
    ext = make_field(n)
    for d in range(2, n + 1):
        if n % d == 0:
            base = make_field(d)
            emb = embedding_into(base, ext)
            assert emb(base.generator) == scan_smallest_root(base, ext)


@pytest.mark.parametrize("d, n", [(2, 4), (3, 6), (4, 8), (2, 8), (3, 9)])
def test_embedding_of_every_modulus(d, n):
    ext = make_field(n)
    for f in range(1 << d, 1 << (d + 1)):
        if gf2x.is_irreducible(f):
            base = BinaryField(d, f)
            g = embedding_into(base, ext)(base.generator)
            assert g == scan_smallest_root(base, ext)


def trace_split_root(base, ext):
    """Oracle: the least root of base's modulus from a full trace split in ext."""
    roots = []
    _trace_split(ext, [(base.modulus >> i) & 1
                       for i in range(base.degree + 1)], 1, roots)
    return min(roots)


@pytest.mark.parametrize("d", range(2, 13))
def test_embedding_root_matches_trace_split(d):
    base = make_field(d)
    for n in range(d, 49, d):
        ext = make_field(n)
        root = embedding_into(base, ext)(base.generator)
        assert root == trace_split_root(base, ext), (d, n)


@pytest.mark.parametrize("d", (4, 6))
def test_embedding_of_every_modulus_is_a_homomorphism(d):
    rng = random.Random(d)
    for f in range(1 << d, 1 << (d + 1)):
        if not gf2x.is_irreducible(f):
            continue
        base = BinaryField(d, f)
        for n in (d, 2 * d, 3 * d):     # n = d: a non-canonical modulus
            ext = make_field(n)
            emb = embedding_into(base, ext)
            assert emb(base.generator) == trace_split_root(base, ext)
            for _ in range(20):
                a, b = rng.randrange(base.order), rng.randrange(base.order)
                assert emb(base.mul(a, b)) == ext.mul(emb(a), emb(b))
                assert emb(a ^ b) == emb(a) ^ emb(b)
