"""Explicit binary fields F_{2^N} and exact F_2-linear algebra on them.

Elements are plain ints: bit i is the coefficient of gamma^i, where gamma
is the residue class of the variable modulo a fixed irreducible polynomial.
0 and 1 are the additive and multiplicative identities and addition is xor,
so no wrapper objects are needed; the field object carries the operations.

Every computation picks one ambient field large enough for its task (these
fields stand in for the algebraic closure at finite level).  Construction
is deterministic: degree N always gets the irreducible modulus with the
smallest bit pattern, so serialized artifacts are reproducible.

Multiplication is shift-and-add with one reduction step per bit, at every
degree.  Squaring is F_2-linear, so ``sqr`` reads one 256-entry table per
input byte (ceil(N/8) tables, built once per field by xor from the basis
squares x^(2i) mod the modulus) and xors the looked-up rows; Frobenius
powers, square roots, traces and powers all square this way.  Roots of a
polynomial that splits into distinct roots are found by trace splitting
at every field order.  The embedding of a degree-d subfield sends its
generator to the smallest root of its modulus in the extension, found by
splitting the modulus at degree d in the subfield that a relative trace
generates, not in the extension.

Fields of degree at most 20 build a table of logs to base x on request
(``ensure_tables``, read through ``tables``), in one walk over the powers
of x; they are the discrete logs that ``render`` prints, and no
arithmetic here reads them.
"""

from itertools import accumulate, chain
from operator import xor

from . import gf2x
from .limits import DEFAULT_MAX_DEGREE, CapacityError

# Fields at or below this degree get a log table on first use.
_TABLE_MAX_DEGREE = 20


class BinaryField:
    """Arithmetic in F_{2^N} = GF(2)[x]/(modulus), elements as bit vectors."""

    __slots__ = ("degree", "modulus", "order", "_trace_dual",
                 "_sqr_tables", "_log", "_generator_order",
                 "_baby_steps")

    def __init__(self, degree, modulus):
        if gf2x.degree(modulus) != degree:
            raise ValueError("modulus degree mismatch")
        if not gf2x.is_irreducible(modulus):
            raise ValueError("modulus is not irreducible")
        self.degree = degree
        self.modulus = modulus
        self.order = 1 << degree
        self._trace_dual = None
        self._sqr_tables = None
        self._log = None
        self._generator_order = None
        self._baby_steps = {}       # render's discrete-log tables, by prime

    def __eq__(self, other):
        return (isinstance(other, BinaryField)
                and self.degree == other.degree
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.degree, self.modulus))

    def __repr__(self):
        return "BinaryField(degree=%d, modulus=0x%x)" % (self.degree, self.modulus)

    @property
    def generator(self):
        """The residue class of x (1 for the prime field, where x reduces to 0)."""
        return 2 if self.degree > 1 else 1

    def elements(self):
        return range(self.order)

    # -- ring operations ---------------------------------------------------

    def mul(self, a, b):
        m, top = self.modulus, self.order
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= m
        return r

    def sqr(self, a):
        """a^2: the xor of one squaring-table row per byte of a.

        Bits beyond the tables (an unreduced input) take the polynomial
        route, squaring and reducing modulo the modulus.
        """
        tables = self._sqr_tables
        if tables is None:
            # bit i squares to x^(2i) mod the modulus
            images, v = [], 1
            for _ in range(8 * -(-self.degree // 8)):
                images.append(v)
                v = gf2x.mod(v << 2, self.modulus)
            tables = self._sqr_tables = byte_tables(images)
        r = 0
        for t in tables:
            r ^= t[a & 0xFF]
            a >>= 8
        if a:
            r ^= gf2x.mod(gf2x.sqr(a << (8 * len(tables))), self.modulus)
        return r

    def inv(self, a):
        """Inverse of nonzero a (binary extended Euclid on the bit vectors)."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if a == 1:
            return 1
        t1, t2 = 0, 1
        r1, r2 = self.modulus, a
        r1l, r2l = self.degree + 1, a.bit_length()
        while r2:
            q = r1l - r2l
            r1 ^= r2 << q
            t1 ^= t2 << q
            r1l = r1.bit_length()
            if r1 < r2:
                t1, t2 = t2, t1
                r1, r2 = r2, r1
                r1l, r2l = r2l, r1l
        return t1

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        """a^e with the exponent reduced mod 2^N - 1 for nonzero a.

        Arbitrary-precision (and negative) exponents are fine for a != 0.
        """
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise ZeroDivisionError("negative power of zero")
            return 0
        e %= self.order - 1 if self.order > 2 else 1
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.sqr(a)
            e >>= 1
        return r

    def frobenius(self, a, k):
        """a^(2^k) for any integer k; negative k applies the inverse map."""
        for _ in range(k % self.degree):
            a = self.sqr(a)
        return a

    def sqrt(self, a):
        return self.frobenius(a, self.degree - 1)

    def trace(self, a):
        """Absolute trace to F_2: sum of a^(2^i) for i < N, landing in {0,1};
        the parity of popcount(a & m) for the first row m of trace_dual."""
        return (a & self.trace_dual()[0]).bit_count() & 1

    def trace_dual(self):
        """Bitmask rows d_k = {j : Tr(gamma^k gamma^j) = 1} of the trace form.

        Tr(a b) is the parity of popcount(b & m) with m the xor of d_k over
        the bits k of a.  The matrix is Hankel: Tr(gamma^(k+j)) depends on
        k + j only, so one trace sequence of length 2N - 1 fills it.  The
        conjugates of gamma are the roots of the modulus, so Tr(gamma^i) is
        their i-th power sum, and Newton's identities over F_2 give it from
        the modulus alone: p_0 = N mod 2 and, with e_j the coefficient of
        x^(N-j), p_i = sum_(0<j<i, j<=N) e_j p_(i-j), plus i e_i for i <= N.
        """
        dual = self._trace_dual
        if dual is None:
            n, m = self.degree, self.modulus
            p = [n & 1]
            for i in range(1, 2 * n - 1):
                s = i & (m >> (n - i)) & 1 if i <= n else 0
                for j in range(1, min(i, n + 1)):
                    s ^= (m >> (n - j)) & p[i - j]
                p.append(s)
            seq = sum(b << i for i, b in enumerate(p))
            full = self.order - 1
            dual = [(seq >> k) & full for k in range(n)]
            self._trace_dual = dual
        return dual

    # -- discrete log table ------------------------------------------------

    def ensure_tables(self):
        """Build the log table of x in a small field; True when built.

        log[c] is the least e with x^e = c, or None for c outside <x>.  The
        walk steps from 1 through the powers of x until it is back at 1.
        Callers test ``_log`` first: a second call builds the table again.
        """
        if self.degree > _TABLE_MAX_DEGREE:
            return False
        log = [None] * self.order
        mul, x = self.mul, self.generator
        v, e = 1, 0
        while log[v] is None:
            log[v] = e
            v, e = mul(v, x), e + 1
        self._log = log
        return True

    @property
    def tables(self):
        """(log,), with log None until ``ensure_tables`` builds it."""
        return (self._log,)

    def generator_order(self):
        """(ord(x), ((p, k), ...)): the order of x and its factorization."""
        cached = self._generator_order
        if cached is None:
            order = self.order - 1
            factors = []
            for p, k in gf2x.factorize(order):
                while k and self.pow(self.generator, order // p) == 1:
                    order //= p
                    k -= 1
                if k:
                    factors.append((p, k))
            cached = self._generator_order = (order, tuple(factors))
        return cached


def byte_tables(images):
    """Lookup tables of the F_2-linear map sending bit i to images[i].

    With len(images) a multiple of 8, table k has 256 rows, row b the xor
    of images[8k + i] over the bits i of b: one lookup per input byte.
    """
    return [f2_span(images[k:k + 8], 0, xor)
            for k in range(0, len(images), 8)]


def f2_span(basis, zero, add):
    """The 2^w F_2-combinations of basis, as a list indexed by mask.

    Entry mask is the sum of basis[i] over the set bits i of mask, at one
    add apiece: the entries with top bit i are those below 2^i plus basis[i].
    Any F_2-space with a zero and an addition will do: field elements, and
    the linearized and sparse polynomials of ``linops``.
    """
    span = [zero]
    for b in basis:
        span += [add(s, b) for s in span]
    return span


def _xor_rows(rows, z):
    """The xor of rows[k] over the set bits k of z."""
    acc = 0
    k = 0
    while z:
        if z & 1:
            acc ^= rows[k]
        z >>= 1
        k += 1
    return acc


_FIELD_CACHE = {}


def make_field(n, max_degree=DEFAULT_MAX_DEGREE):
    """The canonical F_{2^n}: smallest-pattern irreducible modulus of degree n."""
    if n < 1:
        raise ValueError("field degree must be positive")
    if n > max_degree:
        raise CapacityError("field degree %d exceeds bound %d" % (n, max_degree))
    f = _FIELD_CACHE.get(n)
    if f is None:
        f = BinaryField(n, gf2x.smallest_irreducible(n))
        _FIELD_CACHE[n] = f
    return f


# -- F_2-linear algebra ------------------------------------------------------


class F2LinearMap:
    """Echelonized form of an F_2-linear map on a field, given basis images.

    images[i] is the image of the basis bit 1 << i.  The graph of the map,
    spanned by images[i] << dim | 1 << i, is held in reduced echelon form:
    the rows with a zero top part are the kernel, and every other row pairs
    an image (top part) with a preimage (low part).  Because field elements
    are bit vectors, preimage masks are themselves field elements.
    """

    def __init__(self, images):
        self.dim = dim = len(images)
        rows = _echelonize([v << dim | 1 << i for i, v in enumerate(images)])
        self._kernel = [r for r in rows if not r >> dim]
        self.rows = [r for r in rows if r >> dim]

    def kernel_basis(self):
        """Canonical (echelon, ascending) basis of the kernel."""
        return list(self._kernel)

    def solve(self, target):
        """One preimage of target, or None if target is outside the image."""
        dim = self.dim
        t = target << dim
        for r in self.rows:
            if t ^ r < t:       # the top bit of r is set in t
                t ^= r
        return None if t >> dim else t


def _echelonize(vecs):
    basis = []
    for v in vecs:
        for b in basis:
            if v ^ b < v:
                v ^= b
        if v:
            basis = [b ^ v if b ^ v < b else b for b in basis]
            basis.append(v)
    return sorted(basis)


def f2_linear_solve(images, target):
    """Kernel basis and one solution of the linear map given by basis images.

    Returns (kernel_basis, solution-or-None); the solution count is
    2^len(kernel_basis) whenever a solution exists.
    """
    lm = F2LinearMap(images)
    return lm.kernel_basis(), lm.solve(target)


# -- polynomials with coefficients in a binary field --------------------------
#
# Little-endian coefficient lists: just enough for splitting-degree searches
# and deterministic root finding.  Degrees stay small here; the heavy
# GF(2)-only work lives in gf2x on packed ints.


def ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def pdivmod(F, a, b):
    b = ptrim(list(b))
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    a = ptrim(list(a))
    dm = len(b) - 1
    q = [0] * max(len(a) - dm, 0)
    inv_top = F.inv(b[-1])
    mul = F.mul
    while a and len(a) - 1 >= dm:
        c = mul(a[-1], inv_top)
        shift = len(a) - 1 - dm
        q[shift] = c
        for j, bj in enumerate(b):
            if bj:
                a[shift + j] ^= mul(c, bj)
        ptrim(a)
    return ptrim(q), a


def pmod(F, a, b):
    return pdivmod(F, a, b)[1]


def pgcd(F, a, b):
    a, b = ptrim(list(a)), ptrim(list(b))
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


def pmonic(F, a):
    if not a or a[-1] == 1:
        return list(a)
    inv_top = F.inv(a[-1])
    return [F.mul(c, inv_top) for c in a]


def psqr(F, a):
    out = [0] * (2 * len(a) - 1)
    for i, c in enumerate(a):
        if c:
            out[2 * i] = F.sqr(c)
    return ptrim(out)


def poly_roots(F, coeffs):
    """All roots in F of a polynomial that splits into distinct roots there.

    Returns None when the polynomial does not split completely (or has a
    repeated root), which the test x^q = x mod f decides.  Deterministic:
    the roots come from trace-map splitting with multipliers running
    through the successive powers 1, g, g^2, ... of the field generator.
    """
    coeffs = ptrim(list(coeffs))
    if len(coeffs) <= 1:
        return []
    f = pmonic(F, coeffs)
    x = t = pmod(F, [0, 1], f)
    for _ in range(F.degree):
        t = pmod(F, psqr(F, t), f)
    if t != x:
        return None
    roots = []
    _trace_split(F, f, 1, roots)
    return sorted(roots)


def _trace_split(F, f, v, out):
    # f monic, squarefree, fully split over F
    if len(f) == 2:
        out.append(f[0])
        return
    while True:
        t = _trace_poly_mod(F, f, v)
        v = F.mul(v, F.generator)
        g = pgcd(F, t, f)
        if 0 < len(g) - 1 < len(f) - 1:
            break
    other, rem = pdivmod(F, f, g)
    assert not rem
    _trace_split(F, g, v, out)
    _trace_split(F, pmonic(F, other), v, out)


def _trace_poly_mod(F, f, v):
    # sum over i < N of (v x)^(2^i), reduced mod f
    t = pmod(F, [0, v], f)
    acc = [0] * (len(f) - 1)
    for i, c in enumerate(t):
        acc[i] = c
    for _ in range(F.degree - 1):
        t = pmod(F, psqr(F, t), f)
        for i, c in enumerate(t):
            acc[i] ^= c
    return ptrim(acc)


# -- embeddings ----------------------------------------------------------------


class FieldEmbedding:
    """Field homomorphism of a base field into an extension, fixing F_2."""

    __slots__ = ("base", "ext", "_powers", "_solver")

    def __init__(self, base, ext, generator_image):
        self.base = base
        self.ext = ext
        self._powers = [1]
        for _ in range(base.degree - 1):
            self._powers.append(ext.mul(self._powers[-1], generator_image))
        self._solver = None

    def __call__(self, e):
        if self.base is self.ext:
            return e
        return _xor_rows(self._powers, e)

    def preimage(self, e):
        """The base-field element mapping to e, or None if e is outside."""
        if self._solver is None:
            self._solver = F2LinearMap(
                [self(1 << i) for i in range(self.base.degree)])
        return self._solver.solve(e)


_EMBED_CACHE = {}


def embedding_into(base, ext):
    """Deterministic embedding of base into ext.

    base.degree must divide ext.degree; the base generator goes to the
    smallest root of the base modulus in ext (``_least_root``).
    """
    if ext.degree % base.degree:
        raise ValueError("no embedding: %d does not divide %d"
                         % (base.degree, ext.degree))
    key = (base.degree, base.modulus, ext.degree, ext.modulus)
    emb = _EMBED_CACHE.get(key)
    if emb is None:
        # the least root of a modulus in its own field is x itself
        root = (base.generator if base == ext or base.degree == 1
                else _least_root(base, ext))
        emb = _EMBED_CACHE[key] = FieldEmbedding(base, ext, root)
    return emb


def _least_root(base, ext):
    """The least root in ext of the irreducible base modulus f, of degree d.

    The trace z = Tr_(ext/F_2^d)(w) is onto the degree-d subfield, so some
    w (the basis, then all of ext in integer order) gives z with d distinct
    conjugates.  Their product m_z is z's minimal polynomial over F_2; f
    splits in F_2[y]/m_z, and its root s there is the root s(z) in ext,
    whose d conjugates are all the roots of f in ext.
    """
    d, n = base.degree, ext.degree
    for w in chain((1 << i for i in range(n)), range(1, ext.order)):
        z = t = w
        for _ in range(n // d - 1):
            t = ext.frobenius(t, d)
            z ^= t
        conj = _conjugates(ext, z, d)
        if len(set(conj)) == d:
            break
    mz = [1]
    for c in conj:          # mz * (y + c)
        mz = [a ^ ext.mul(c, b) for a, b in zip([0] + mz, mz + [0])]
    assert all(c in (0, 1) for c in mz)
    sub = BinaryField(d, sum(c << i for i, c in enumerate(mz)))
    f = [(base.modulus >> i) & 1 for i in range(d + 1)]
    s = poly_roots(sub, f)[0]
    r = min(_conjugates(ext, FieldEmbedding(sub, ext, z)(s), d))
    value = 0
    for c in reversed(f):
        value = ext.mul(value, r) ^ c
    assert value == 0
    return r


def _conjugates(F, a, d):
    """a, a^2, ..., a^(2^(d-1))."""
    return list(accumulate(range(d - 1), lambda c, _: F.sqr(c), initial=a))


def extend_and_embed(base, k, max_degree=DEFAULT_MAX_DEGREE):
    """The canonical degree-k extension of base together with the embedding."""
    ext = base if k == 1 else make_field(base.degree * k, max_degree=max_degree)
    return ext, embedding_into(base, ext)
