"""Exact point counting, L-polynomials, Newton polygons, supersingularity.

``count_points`` turns a curve into one count: a CurveSpec or a
FibreProductSpec is checked for irreducibility, then its field size
against the budget, and then becomes right-hand sides f_j with 2^w points
over x when all Tr f_j(x) vanish (a fibre product's components, or beta T
over a basis of the kernel of the trace adjoint of S in S(y) = T(x));
``count_artin_schreier`` counts one right-hand side.  Every right-hand
side built here is a sum of terms c x^e whose exponents have binary weight
at most 2 (x R(x) with R linearized, and its twists), so Q(x) = Tr f(x) is
an F_2-quadratic form on the field.  A point count is a character sum of
such forms: sum_x (-1)^Q(x) is 0 when Q is not constant on the radical W
of its bilinear form, and (-1)^Arf(Q) 2^((N + dim W)/2) otherwise.
Symplectic reduction finds W and the Arf sign exactly from O(N^2) field
operations, without visiting the 2^N field elements, and a count sums the
forms of the F_2-span of the f_j.  With Tr f(x) = Tr(x H(x)) + linear,
H linearized, the form's matrix A is read off H's basis images, one power
chain per coefficient (``lin_images``), through the cached trace-dual
matrix; its bilinear rows are A + A^T.  Coefficients reach the extension
through embeddings whose root is found in a subfield
(``field.embedding_into``), and squarings read per-field byte tables.
This is the only route: an exponent of binary weight 3 or more, which
only a hand-written curve file could hold, is refused with ValueError, and
a fibre-product file holding one is refused at load
(``builder.span_strata``).

L-polynomial coefficients come from the counted power sums through the
Newton identities and the functional equation, in exact integer
arithmetic; floating point never enters.  The supersingularity verdict is
the Newton-polygon criterion: every slope equals 1/2 (in q-adic units),
decided exactly on 2-adic valuations.

The supersingularity ladder checks one list of entries: the curve itself
when its counts fit the budget, else its quotient pieces over their fields
of definition, else, past the splitting field's capacity, its strata.  One
route function picks each entry's check from its genus and field alone:
rational, counted, or, past the budget, certified without a recount, sound
for every piece by the weight contract above (w^2 + w = x R(x)).  A false
entry names its failed checks.  Pieces are keyed once into a table of
Frobenius classes: a right-hand side and its coefficient-wise conjugates
have the same counts at every k, since x -> x^2 carries the points of one
onto the other, so only a class's first member is checked, and power-sum
additivity weighs each class by its member count, reading the ladder's
counts of it.  Keying also gives d, the degree of a piece's field of
definition (the chain's length), and a piece is descended to F_2^d only to
be counted.
"""

from collections import namedtuple
from fractions import Fraction

from .builder import (CurveSpec, FibreProductSpec, fibre_combinations,
                      stratum_rows)
from .field import _xor_rows, extend_and_embed
from .linops import (as_genus, as_reduce, check_weight, definition_field, lin,
                     lin_images, lin_kernel)
from .limits import DEFAULT_BUDGET, BudgetError
from .quotient import QuotientCurve, decomposition, dual_equation, is_irreducible


class InconsistentCounts(ValueError):
    """Counts violate the Weil bound or the Newton identities' integrality."""


class AdditivityError(ValueError):
    """The additivity check could not run: an error, not a verdict."""


class CountSeries(namedtuple("CountSeries", "q counts genus")):
    """counts[k-1] = number of points over the degree-k extension of F_q."""

    __slots__ = ()

    def check_weil(self):
        qk = 1
        for k, c in enumerate(self.counts, start=1):
            qk *= self.q
            if c < 1 or (c - qk - 1) ** 2 > 4 * self.genus ** 2 * qk:
                raise InconsistentCounts(
                    "count %d over extension %d violates the Weil bound "
                    "for genus %d" % (c, k, self.genus))
        return self


class LPoly(namedtuple("LPoly", "q coeffs")):
    """Zeta numerator: c_0 + c_1 T + ... + c_{2g} T^(2g), exact integers."""

    __slots__ = ()

    @property
    def genus(self):
        return (len(self.coeffs) - 1) // 2


class NPReport(namedtuple("NPReport", "slopes supersingular")):
    """Newton-polygon slope multiset (2-adic units) and the 1/2-slope verdict."""

    __slots__ = ()


# -- point counting -----------------------------------------------------------


def count_points(curve, k, budget=DEFAULT_BUDGET):
    """Number of points of the curve over the degree-k extension of its field.

    Exactly one point at infinity is added; this needs every index-2 quotient
    of the cover to be ramified there (odd reduced right-hand sides), which
    is checked before the budget.
    """
    if isinstance(curve, QuotientCurve):
        return count_artin_schreier(curve.rhs, k, budget)
    _check_irreducible(curve)
    ext, emb = _extension(curve.field, k, budget)
    if isinstance(curve, FibreProductSpec):
        return _count(ext, [f.map_field(emb).terms for f in curve.components])
    # #{y : S(y) = t} is 2^w if Tr(beta t) = 0 on the w-dimensional kernel
    # of the trace adjoint S*(beta) = sum_i (A_i beta)^(2^-i), else 0: the
    # fibre product of the beta T over a kernel basis.  That kernel is the
    # alpha^(2^(n-1)), alpha in the kernel of the dual equation.
    terms = curve.derived_T().map_field(emb).terms
    betas = [ext.frobenius(a, curve.n - 1)
             for a in lin_kernel(dual_equation(curve).map_field(emb))]
    return _count(ext, [[(e, ext.mul(beta, t)) for e, t in terms]
                        for beta in betas])


def count_artin_schreier(rhs, k, budget=DEFAULT_BUDGET):
    """Points of w^2 + w = rhs over the degree-k extension of rhs's field."""
    reduced = as_reduce(rhs)
    if reduced.is_zero() or reduced.degree % 2 == 0:
        raise ValueError("reduced right-hand side must have odd degree "
                         "(one totally ramified place at infinity)")
    ext, emb = _extension(rhs.field, k, budget)
    return _count(ext, [rhs.map_field(emb).terms])


def _extension(F, k, budget):
    """The degree-k extension of F a count runs over, within the budget."""
    budget.check_points(F.degree * k)
    return extend_and_embed(F, k, budget)


def _check_irreducible(curve):
    if isinstance(curve, CurveSpec):
        if not is_irreducible(curve):
            raise ValueError("curve is reducible")
    elif not isinstance(curve, FibreProductSpec):
        raise TypeError("expected a CurveSpec or a FibreProductSpec, not %r"
                        % type(curve).__name__)
    elif curve.rank < curve.weight:
        raise ValueError("fibre product has a component combination with "
                         "even reduced degree")


def _count(ext, term_lists):
    """1 + sum over x of 2^w [Tr f_j(x) = 0 for j < w], f_j the term lists.

    The bracket times 2^w is the sum of (-1)^Tr f(x) over the 2^w
    F_2-combinations f of the f_j, so the count is the character sums of
    the span of their quadratic forms.
    """
    return 1 + _span_sum(ext.degree, [_quadratic_form(ext, terms)
                                      for terms in term_lists])


# -- character sums of quadratic forms on F_2^N (coordinates: bits of x) ------


def _quadratic_form(F, terms):
    """(Tr c_0, linear mask, alternating rows) of x -> Tr f(x), f = sum c x^e.

    An exponent of binary weight 3 or more raises ValueError naming it
    (``check_weight``).  Each term c x^(2^a + 2^b), a >= b, is rewritten by
    trace invariance as Tr(h x^(2^s + 1)) with h = c^(2^-b) and s = a - b;
    these gather into Tr(x H(x)) with H = sum h_s x^(2^s) linearized.  One
    power chain gives H's basis images (``lin_images``), and the trace-dual
    matrix turns them into A, A_ij = Tr(gamma^j H(gamma^i)).  Then
    Q(x) = sum x_i x_j A_ij: the alternating rows are A + A^T and A's
    diagonal joins the linear mask.  The form is F_2-linear in f: the form
    of a sum is the xor of the forms.
    """
    check_weight(terms)
    n = F.degree
    const = lam = 0
    h = [0] * n
    for e, c in terms:
        if e == 0:
            const ^= c
            continue
        b = (e & -e).bit_length() - 1
        a = e.bit_length() - 1
        c = F.frobenius(c, -b)
        if a == b:
            lam ^= c            # Tr(c x^(2^a)) = Tr(c^(2^-a) x)
        else:
            h[(a - b) % n] ^= c
    # _xor_rows(dual, z) is the mask of j with Tr(z gamma^j) = 1
    dual = F.trace_dual()
    linear = _xor_rows(dual, lam)
    rows = [_xor_rows(dual, v) for v in lin_images(lin(F, h))]   # A
    for i, r in enumerate(list(rows)):
        bit = 1 << i
        linear ^= r & bit       # x_i^2 = x_i: the diagonal is linear
        while r:                # rows = A + A^T, transposed bit by bit
            low = r & -r
            rows[low.bit_length() - 1] ^= bit
            r ^= low
    return F.trace(const), linear, rows


def _span_sum(n, forms):
    """Sum of the character sums of every F_2-combination of the forms.

    The empty combination is the zero form, whose sum is 2^n.
    """
    const, linear, rows = 0, 0, [0] * n
    total = 1 << n
    for step in range(1, 1 << len(forms)):
        c2, l2, r2 = forms[(step & -step).bit_length() - 1]
        const ^= c2
        linear ^= l2
        rows = [a ^ b for a, b in zip(rows, r2)]
        total += _char_sum(n, const, linear, rows)
    return total


def _char_sum(n, const, linear, rows):
    """Sum over x in F_2^n of (-1)^Q(x) for an explicit quadratic form.

    Q(x) = const + linear.x + sum_{i<j} rows[i]_j x_i x_j, rows symmetric with
    a zero diagonal.  A hyperbolic pair (i, j), rows[i]_j = 1, splits Q as
    (x_i + V)(x_j + U) + U V + Q', with U, V the affine forms multiplying
    x_i, x_j; summing out x_i, x_j doubles the sum and leaves Q' + U V.
    A radical coordinate's row stays zero, so one pass reaches an affine
    form: 0 unless its linear part vanishes, else (-1)^const 2^(n - pairs).
    """
    rows = list(rows)
    pairs = 0
    for i in range(n):
        r = rows[i]
        if not r:
            continue
        j = (r & -r).bit_length() - 1
        keep = ~((1 << i) | (1 << j))
        u, v = r & keep, rows[j] & keep
        ui, vj = linear >> i & 1, linear >> j & 1
        rows[i] = rows[j] = 0
        # U V adds u v^T + v u^T to the rows; the xors with bits i and j
        # clear those columns
        for m, add in ((u, v ^ (1 << i)), (v, u ^ (1 << j))):
            while m:
                low = m & -m
                rows[low.bit_length() - 1] ^= add
                m ^= low
        linear = ((linear & keep) ^ (u & v) ^ (v if ui else 0)
                  ^ (u if vj else 0))
        const ^= ui & vj
        pairs += 1
    if linear:
        return 0
    return -(1 << (n - pairs)) if const else 1 << (n - pairs)


def _class_key(rhs):
    """(key, d): the key is rhs's field and the least of its coefficient-wise
    conjugates over it; the chain of conjugates returns to rhs, and stops,
    after d squarings, d the degree of rhs's field of definition."""
    F = rhs.field
    exps, coeffs = zip(*rhs.terms)
    chain = [coeffs]
    for _ in range(F.degree):
        coeffs = tuple(map(F.sqr, coeffs))
        if coeffs == chain[0]:
            break
        chain.append(coeffs)
    return (F, tuple(zip(exps, min(chain)))), len(chain)


class _Class:
    """A Frobenius class: its first member's rhs (None: the curve), counts
    over the pieces' field, report entry without a label (its verdict is
    the entry's "supersingular"), and member count."""

    __slots__ = ("rhs", "counts", "entry", "members")

    def __init__(self, rhs, counts, entry=None, members=0):
        self.rhs, self.counts = rhs, counts
        self.entry, self.members = entry, members


def _classes(pieces):
    """Class key -> _Class of (label, rhs, genus) pieces, each keyed once."""
    classes = {}
    for _, rhs, _ in pieces:
        classes.setdefault(_class_key(rhs)[0], _Class(rhs, [])).members += 1
    return classes


def count_series(curve, genus, budget=DEFAULT_BUDGET):
    """CountSeries for k = 1..genus + 2, Weil-checked."""
    q = curve.field.order
    counts = tuple(count_points(curve, k, budget) for k in range(1, genus + 3))
    return CountSeries(q, counts, genus).check_weil()


# -- L-polynomials and Newton polygons ----------------------------------------


def lpoly_from_counts(series):
    """L-polynomial from counts over the first g extensions.

    Power sums S_k = q^k + 1 - count_k feed the Newton identities
    c_i = -(S_i + sum_{j<i} c_j S_{i-j}) / i; the upper half comes from the
    functional equation c_{2g-i} = q^(g-i) c_i.  Every division must be exact.
    """
    g = series.genus
    q = series.q
    if len(series.counts) < g:
        raise ValueError("need counts over the first %d extensions" % g)
    series.check_weil()
    p = [0] * (g + 1)
    qk = 1
    for k in range(1, g + 1):
        qk *= q
        p[k] = qk + 1 - series.counts[k - 1]
    c = [0] * (2 * g + 1)
    c[0] = 1
    for i in range(1, g + 1):
        s = p[i] + sum(c[j] * p[i - j] for j in range(1, i))
        if s % i:
            raise InconsistentCounts(
                "Newton identity division is not exact at step %d "
                "(genus hypothesis or counts are wrong)" % i)
        c[i] = -s // i
    for i in range(g):
        c[2 * g - i] = q ** (g - i) * c[i]
    return LPoly(q, tuple(c))


def power_sums(L, kmax):
    """Power sums of the inverse roots of L for k = 1..kmax."""
    tg = len(L.coeffs) - 1
    c = L.coeffs
    p = [0] * (kmax + 1)
    for i in range(1, kmax + 1):
        s = i * c[i] if i <= tg else 0
        s += sum(c[j] * p[i - j] for j in range(1, min(i, tg + 1)))
        p[i] = -s
    return p[1:]


def predicted_count(L, k):
    """Point count over the degree-k extension implied by L."""
    return L.q ** k + 1 - power_sums(L, k)[k - 1]


def _v2(n):
    return (n & -n).bit_length() - 1


def newton_polygon(L, N):
    """Lower convex hull of (i, v_2(c_i)) and the all-slopes-1/2 verdict.

    Slopes are reported in 2-adic units, so the supersingular condition is
    that every slope equals N/2; the hull then runs straight from (0, 0)
    to (2g, gN).
    """
    pts = [(i, _v2(ci)) for i, ci in enumerate(L.coeffs) if ci]
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (pt[1] - y0) <= (y1 - y0) * (pt[0] - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        slopes.extend([Fraction(y1 - y0, x1 - x0)] * (x1 - x0))
    half = Fraction(N, 2)
    return NPReport(tuple(slopes), bool(slopes) and all(s == half for s in slopes))


# -- the supersingularity ladder ----------------------------------------------


class VerificationReport:
    """The ladder's verdict on a curve of the given genus.

    supersingular is True, False or "certified".  lpoly and slopes are the
    curve's own LPoly and Newton slopes when it was counted whole, else
    None; pieces lists one entry per ladder entry, a false one with its
    "failed" checks, and checks maps the name of each check to its outcome.
    """

    __slots__ = ("genus", "supersingular", "lpoly", "slopes", "pieces",
                 "checks")

    def __init__(self, genus, supersingular, lpoly=None, slopes=None,
                 pieces=None, checks=None):
        self.genus, self.supersingular = genus, supersingular
        self.lpoly, self.slopes = lpoly, slopes
        self.pieces = [] if pieces is None else pieces
        self.checks = {} if checks is None else checks

    def __repr__(self):
        return "VerificationReport(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__)


def ladder_route(genus, d, budget):
    """How the ladder checks an entry of this genus over F_2^d: rational,
    counted when its counts up to k = genus + 2 fit the budget, else
    certified without a recount, since every piece is w^2 + w = x R(x) with
    R linearized (``check_weight``); a certified curve is checked by parts."""
    if genus == 0:
        return "rational"
    if budget.fits_points(d * (genus + 2)):
        return "numeric"
    return "certified-not-recounted"


def verify_supersingular(curve, budget=DEFAULT_BUDGET, kmax=None):
    """Decide supersingularity of a CurveSpec or FibreProductSpec along a ladder.

    The entries are the curve itself ("self") when its ``ladder_route`` is
    numeric, else its quotient pieces over their fields of definition, each
    along its own route, else (the splitting field out of capacity) its
    strata, certified.  Pieces are keyed once into a table of Frobenius
    classes (``_class_key``); each class's first member is checked, and its
    entry, verdict included, stands for every member.  With kmax the report
    adds power-sum additivity for k = 1..kmax over the same table.
    """
    genus, N = genus_and_degree(curve)
    report = VerificationReport(genus=genus, supersingular=True)
    route = ladder_route(genus, N, budget)
    split = route == "certified-not-recounted"  # checked by its pieces
    pieces = _pieces(curve, budget) if split else None
    classes = {}        # class key (None: the curve) -> _Class
    if route == "rational":
        report.checks["rational"] = True    # the zero abelian variety
    elif route == "numeric" or pieces is not None:
        for label, rhs, gp in pieces or [("self", None, genus)]:
            key, d = (None, N) if rhs is None else _class_key(rhs)
            cls = classes.get(key)
            if cls is None:
                cls = classes[key] = _ladder_class(curve, rhs, d, gp, budget,
                                                   report)
            cls.members += 1
            report.pieces.append({"label": label, **cls.entry})
        if pieces is not None:
            report.checks["piece_genus_total"] = genus == sum(
                c.members * c.entry["genus"] for c in classes.values())
        verdicts = {c.entry["supersingular"] for c in classes.values()}
        if False in verdicts:
            report.supersingular = False
        elif "certified" in verdicts:
            report.supersingular = "certified"
    else:
        for (u, _), (count, gp) in zip(curve.strata,
                                       stratum_rows(curve.strata)):
            report.pieces.append({
                "label": "stratum u=%d" % u, "count": count,
                "genus": gp, "mode": "certified-not-recounted",
                "supersingular": "certified",
            })
        report.checks["stratum_genus_total"] = (
            sum(p["count"] * p["genus"] for p in report.pieces) == genus)
        report.supersingular = "certified"
    if isinstance(curve, CurveSpec):
        report.checks["irreducible"] = True     # genus_and_degree checked
    if kmax is not None:
        try:
            if not split:   # the ladder split off no pieces
                pieces = _pieces(curve, budget)
                classes = _classes(pieces or ())
            ok = _additive(curve, pieces, kmax, budget, classes)
        except BudgetError:
            ok = "skipped (budget)"
        except ValueError as ex:
            raise AdditivityError(str(ex)) from ex
        report.checks["powersum_additivity"] = ok
    return report


def _ladder_class(curve, rhs, d, gp, budget, report):
    """The checked _Class of a first member rhs (None: the curve) defined
    over F_2^d, of genus gp (None: read off rhs); only a counted one is
    descended to F_2^d, every (M/d)-th count then over F_2^M.  A false
    counted entry lists under "failed" the checks that did not hold."""
    gp = as_genus(rhs) if gp is None else gp
    mode = ladder_route(gp, d, budget)
    entry = {"field_degree": d, "genus": gp, "mode": mode}
    counts = []
    if mode == "numeric":
        entry_curve = curve if rhs is None else QuotientCurve(
            0, definition_field(rhs, d, budget), gp)
        series = count_series(entry_curve, gp, budget)
        L = lpoly_from_counts(series)
        np_report = newton_polygon(L, d)
        pred_ok = all(predicted_count(L, k) == series.counts[k - 1]
                      for k in range(gp + 1, len(series.counts) + 1))
        entry["supersingular"] = np_report.supersingular and pred_ok
        entry["lpoly"] = list(L.coeffs)
        if not entry["supersingular"]:
            entry["failed"] = [cause for cause, ok in (
                ("newton polygon rejects supersingularity",
                 np_report.supersingular),
                ("functional_equation_predictions", pred_ok)) if not ok]
        if rhs is None:
            report.lpoly, report.slopes = L, np_report.slopes
            report.checks["weil_bounds"] = True
            report.checks["functional_equation_predictions"] = pred_ok
            report.checks["lpoly_degree"] = len(L.coeffs) - 1 == 2 * gp
        else:
            step = rhs.field.degree // d
            counts = list(series.counts[step - 1::step])
    else:
        entry["supersingular"] = True if mode == "rational" else "certified"
    return _Class(rhs, counts, entry)


def genus_and_degree(curve):
    """(genus, degree of the base field); ValueError if the curve is reducible."""
    _check_irreducible(curve)
    return (sum(c * gp for c, gp in stratum_rows(curve.strata)),
            curve.field.degree)


def _pieces(curve, budget):
    """(label, rhs, expected_genus) per jacobian piece, or None if out of capacity."""
    if isinstance(curve, FibreProductSpec):
        return [("combination 0x%x" % mask, f, None)
                for mask, f in fibre_combinations(curve)]
    try:
        pieces = decomposition(curve, budget)
    except BudgetError:
        return None
    return [("alpha=0x%x" % p.alpha, p.rhs, p.genus) for p in pieces]


def powersum_additivity_check(curve, kmax, budget=DEFAULT_BUDGET):
    """Counts of the curve match the summed counts of its quotient pieces.

    Both sides are counted over the pieces' field (the alpha-space ambient
    for single-equation curves, the base field for fibre products), for
    every k = 1..kmax:  count(C) - (Q+1)  =  sum_pieces (count(piece) - (Q+1)).
    """
    _check_irreducible(curve)
    pieces = _pieces(curve, budget)
    return _additive(curve, pieces, kmax, budget, _classes(pieces or ()))


def _additive(curve, pieces, kmax, budget, classes):
    """Additivity over pieces (None: out of capacity) and their classes:
    each _Class adds members * (count_k - (Q+1)), counting on its first
    member each k missing from its counts over the pieces' field."""
    if kmax < 1:
        raise ValueError("kmax must be at least 1")
    if pieces is None:
        raise BudgetError("quotient pieces exceed the degree bound")
    M = pieces[0][1].field.degree if pieces else curve.field.degree
    scale = M // curve.field.degree
    for k in range(1, kmax + 1):
        Q = 1 << (M * k)
        lhs = count_points(curve, scale * k, budget) - (Q + 1)
        rhs_sum = 0
        for cls in classes.values():
            if len(cls.counts) < k:
                cls.counts.append(count_artin_schreier(cls.rhs, k, budget))
            rhs_sum += cls.members * (cls.counts[k - 1] - (Q + 1))
        if lhs != rhs_sum:
            return False
    return True
