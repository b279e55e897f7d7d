import json
import os
import random
from collections import Counter

import pytest

from sscurves.builder import CurveSpec, build_prime_field, glue_single_block, \
    build_components, fibre_combinations, stratum_rows
from sscurves.decomp import decompose
from sscurves.field import (_xor_rows, embedding_into, extend_and_embed,
                            make_field, pgcd)
from sscurves.jsonio import load_curve
from sscurves.limits import CapacityError
from sscurves.linops import (as_genus, as_reduce, lin, lin_add, lin_eval,
                             lin_kernel, lin_scale, lin_twist,
                             splitting_degree)
from sscurves.quotient import (decomposition, dual_equation, is_irreducible,
                               quotient_curve, quotient_rows,
                               solve_alpha_space, split)

from sparse_helpers import (as_dict, combinations_oracle, decomposition_oracle,
                            sparse_scale)

F2 = make_field(1)
F4 = make_field(2)
F8 = make_field(3)
F16 = make_field(4)
FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def span(basis):
    out = {0}
    for b in basis:
        out |= {x ^ b for x in out}
    return out


def test_alpha_space_examples():
    # S = y^4+y over F_2: dual equation a^4 + a = 0, space is F_4
    c = build_prime_field(decompose(5))
    space = solve_alpha_space(c)
    assert space.ambient is F4 and space.dim == 2
    assert span(space.basis) == set(F4.elements())
    # S = y^16+y: space is F_16
    c = build_prime_field(decompose(30))
    space = solve_alpha_space(c)
    assert space.ambient is F16 and span(space.basis) == set(F16.elements())
    # S = y^2+y: space is {0,1}
    c = build_prime_field(decompose(1))
    space = solve_alpha_space(c)
    assert space.ambient is F2 and span(space.basis) == {0, 1}


def test_dual_equation_coefficients():
    # S = y^4 + A_1 y^2 + A_0 y over F_16 with A_0 = a, A_1 = a^2:
    # dual is A_0^2 a^4 + A_1 a^2 + a
    S = lin(F16, [2, 4, 1])
    eq = dual_equation(CurveSpec(F16, S, (lin(F16, [0, 1]), lin(F16, []))))
    assert eq.coeffs == (1, 4, F16.sqr(2))
    # the coefficient of a^(2^i) is A_(n-i)^(2^(i+1-n)).  n = 1, A_0 = a:
    # A_0^2 a^2 + a
    eq = dual_equation(CurveSpec(F16, lin(F16, [2, 1]), (lin(F16, [0, 1]),)))
    assert eq.coeffs == (1, F16.sqr(2))
    # n = 3, A_0 = a, A_1 = a^2, A_2 = a^3:
    # A_0^2 a^8 + A_1 a^4 + sqrt(A_2) a^2 + a
    S = lin(F16, [2, 4, 8, 1])
    eq = dual_equation(CurveSpec(F16, S, (lin(F16, [0, 1]),) * 3))
    assert eq.coeffs == (1, F16.sqrt(8), 4, F16.sqr(2))


def test_split_examples():
    sd = split(lin(F2, [1, 0, 1]), 1)       # y^4+y, beta=1
    assert sd.B.coeffs == (1, 1)            # B = y^2+y
    sd = split(lin(F2, [1, 1]), 1)          # y^2+y, beta=1
    assert sd.B.coeffs == (1,)
    # over F_4, beta = gamma splits y^4+y (1/gamma lies in the space F_4)
    sd = split(lin(F4, [1, 0, 1]), 2)
    assert sd.B.coeffs[-1] == 1
    with pytest.raises(ValueError):
        split(lin(F2, [1, 0, 1]), 0)


def test_split_exact_beta_correspondence():
    # split succeeds exactly for beta = 1/alpha^(2^(n-2)), alpha in A - {0}:
    # 1/alpha for S = y^4+y (A = F_4), but not for S outside F_2 with n != 2
    for S in (build_prime_field(decompose(5)).S, lin(F4, [2, 1]),
              lin(F4, [2, 3, 0, 1]), lin(F8, [3, 0, 5, 1])):
        n = S.h
        c = CurveSpec(S.field, S, (lin(S.field, [0, 1]),) * n)
        space = solve_alpha_space(c)
        F = space.ambient
        S_ext = S.map_field(space.embedding)
        expected = {F.inv(F.frobenius(a, n - 2)) for a in space.members()}
        assert (expected == {F.inv(a) for a in space.members()}) == (n == 2)
        good = set()
        for beta in range(1, F.order):
            try:
                sd = split(S_ext, beta)
            except ValueError:
                continue
            good.add(beta)
            # polynomial identity B^2 + beta B = S
            assert lin_add(lin_twist(sd.B, 1),
                           lin_scale(beta, sd.B)).coeffs == S_ext.coeffs
        assert good == expected, S


def test_split_invariance_kernel():
    # the zero set of B is a hyperplane of the zero set of S
    c = build_prime_field(decompose(30))     # S = y^16+y, A = F_16
    space = solve_alpha_space(c)
    F = space.ambient
    S_ext = c.S.map_field(space.embedding)
    for alpha in list(space.members())[:5]:
        sd = split(S_ext, F.inv(alpha))
        kerB = span(lin_kernel(sd.B))
        kerS = span(lin_kernel(S_ext))
        assert len(kerB) * 2 == len(kerS)
        assert kerB <= kerS
        assert all(lin_eval(sd.B, s) == 0 for s in kerB)


def test_quotient_examples():
    # y^4+y = x^6 (R_2 = x^2): every quotient is w^2+w = alpha x^3
    c = CurveSpec(F2, lin(F2, [1, 0, 1]), (lin(F2, []), lin(F2, [0, 1])))
    space = solve_alpha_space(c)
    for alpha in space.members():
        q = quotient_curve(c, alpha, space)
        assert as_dict(q.rhs) == {3: alpha} and q.genus == 1
    # g=30 prime field: quotients alpha x^5 of genus 2
    c = build_prime_field(decompose(30))
    space = solve_alpha_space(c)
    quots = [quotient_curve(c, a, space) for a in space.members()]
    assert len(quots) == 15
    assert all(as_dict(q.rhs) == {5: q.alpha} and q.genus == 2 for q in quots)
    # g=5: alpha = 1 gives x^3; alpha outside F_2 gives x^5 + alpha x^3
    c = build_prime_field(decompose(5))
    space = solve_alpha_space(c)
    q = quotient_curve(c, 1, space)
    assert as_dict(q.rhs) == {3: 1} and q.genus == 1
    for alpha in (2, 3):
        q = quotient_curve(c, alpha, space)
        assert as_dict(q.rhs) == {5: 1, 3: alpha} and q.genus == 2


def test_quotient_rejects_bad_alpha():
    c = build_prime_field(decompose(5))
    space = solve_alpha_space(c)
    with pytest.raises(ValueError):
        quotient_curve(c, 0, space)


def test_is_irreducible():
    for g in (1, 5, 30, 221, 1000, 4096):
        assert is_irreducible(build_prime_field(decompose(g)))
    # R_1 = R_2 = x with S = y^4+y: alpha = 1 kills the sum
    bad = CurveSpec(F2, lin(F2, [1, 0, 1]), (lin(F2, [0, 1]), lin(F2, [0, 1])))
    assert not is_irreducible(bad)
    # n = 1 with nonzero R is irreducible
    assert is_irreducible(CurveSpec(F2, lin(F2, [1, 1]), (lin(F2, [0, 1]),)))
    # glued curves over extension fields
    assert is_irreducible(glue_single_block(build_components(decompose(30))))


def ordinary_is_irreducible(c):
    """Oracle: gcd of the dual equation and the column polynomials taken as
    ordinary polynomials of degree 2^(2-degree)."""
    F, n = c.field, c.n

    def ordinary(coeffs):
        out = [0] * ((1 << max(coeffs)) + 1)
        for i, a in coeffs.items():
            out[1 << i] = a
        return out

    g = ordinary(dict(enumerate(dual_equation(c).coeffs)))
    for e in sorted({e for R in c.R_list for e in R.support()}):
        column = {n - k: R.coeff(e) for k, R in enumerate(c.R_list, start=1)
                  if R.coeff(e)}
        g = pgcd(F, g, ordinary(column))
    return len(g) == 2


def test_is_irreducible_matches_ordinary_oracle():
    rng = random.Random(51)
    verdicts = Counter()
    for _ in range(300):
        F = make_field(rng.randrange(1, 4))
        n = rng.randrange(1, 5)
        S = lin(F, [rng.randrange(1, F.order)]
                + [rng.randrange(F.order) for _ in range(n - 1)] + [1])
        # sparse R_k over few columns, so that common roots occur
        R_list = [lin(F, [rng.choice((0, 0, 1, rng.randrange(F.order)))
                          for _ in range(rng.randrange(1, 4))])
                  for _ in range(n)]
        if all(R.is_zero() for R in R_list):
            R_list[0] = lin(F, [0, 1])
        c = CurveSpec(F, S, tuple(R_list))
        expected = ordinary_is_irreducible(c)
        assert is_irreducible(c) == expected
        verdicts[expected] += 1
    assert verdicts[True] and verdicts[False], verdicts     # 290 and 10


def trace_adjoint_pieces(c):
    """Oracle: the reduced beta T, beta over the nonzero kernel of the trace
    adjoint S*(beta) = sum_i (A_i beta)^(2^-i), built from S alone:
    S*(beta)^(2^n) has the coefficient A_(n-i)^(2^i) at beta^(2^i)."""
    F, n = c.field, c.n
    adjoint = lin(F, [F.frobenius(c.S.coeff(n - i), i) for i in range(n + 1)])
    ext, emb = extend_and_embed(F, splitting_degree(adjoint))
    T = c.derived_T().map_field(emb)
    return [as_reduce(sparse_scale(beta, T))
            for beta in span(lin_kernel(adjoint.map_field(emb))) if beta]


def test_strata_match_decomposition_genera():
    # random curves over F_2..F_8, columns 0..3: a column-0 entry gives
    # quotients of genus 0 (x * a x = a x^2 reduces to x).  The irreducible
    # ones have strata, quotients and genera matching the pieces beta T of
    # the trace adjoint, and so do the reducible verdicts.
    rng = random.Random(10)
    genera = Counter()
    checked = outside_f2 = 0
    while checked < 150:
        F = make_field(rng.randrange(1, 4))
        n = rng.randrange(1, 5)
        S = lin(F, [rng.randrange(1, F.order)]
                + [rng.randrange(F.order) for _ in range(n - 1)] + [1])
        R_list = tuple(lin(F, [rng.choice((0, 1, rng.randrange(F.order)))
                               for _ in range(rng.randrange(1, 5))])
                       for _ in range(n))
        c = CurveSpec(F, S, R_list)
        if all(R.is_zero() for R in R_list):
            continue
        oracle = trace_adjoint_pieces(c)
        irreducible = all(f.degree > 0 for f in oracle)
        assert is_irreducible(c) == irreducible, c
        if not irreducible:
            continue
        pieces = decomposition(c)
        assert sorted(p.rhs.terms for p in pieces) == sorted(
            f.terms for f in oracle), c
        expected = Counter(p.genus for p in pieces)
        assert expected == Counter((f.degree - 1) // 2 if f.degree else 0
                                   for f in oracle), c
        got = Counter()
        for count, genus in stratum_rows(c.strata):
            got[genus] += count
        assert got == expected, (S, R_list)
        genera.update(expected)
        checked += 1
        outside_f2 += n != 2 and any(a > 1 for a in S.coeffs)
    assert genera[0] and genera[1] and genera[4], genera
    assert outside_f2 >= 30, outside_f2


def test_g6_fixture_quotients_match_trace_adjoint():
    # the golden quotients of the hand-written genus-6 file over F_4 (S not
    # over F_2, n = 3) are the pieces beta T of the trace adjoint
    c = load_curve(os.path.join(FIXTURES, "g6_f4.json"))
    with open(os.path.join(FIXTURES, "expected", "g6_f4.quotients.json")) as fh:
        golden = json.load(fh)
    got = sorted((p["genus"], [(t["exp"], int(t["coeff"], 16))
                               for t in p["rhs"]["terms"]]) for p in golden)
    oracle = trace_adjoint_pieces(c)
    assert got == sorted(((f.degree - 1) // 2 if f.degree else 0,
                          list(f.terms)) for f in oracle)
    assert sum(genus for genus, _ in got) == 6
    assert [(int(p["alpha"], 16), p["genus"]) for p in golden] == [
        (p.alpha, p.genus) for p in decomposition(c)]


def test_decomposition_sums():
    for g in range(1, 65):
        c = build_prime_field(decompose(g))
        pieces = decomposition(c)
        assert sum(p.genus for p in pieces) == g, g
        assert len(pieces) == (1 << c.n) - 1


def test_decomposition_is_the_per_alpha_path():
    # oracle: one quotient curve built from scratch per member of the space
    rng = random.Random(20)
    curves = [build_prime_field(decompose(g)) for g in range(1, 131)]
    spaces = [solve_alpha_space(c) for c in curves]
    while len(curves) < 330:
        F = make_field(rng.randrange(1, 7))
        n = rng.randrange(1, 5)
        S = lin(F, [rng.randrange(1, F.order)]
                + [rng.randrange(F.order) for _ in range(n - 1)] + [1])
        R_list = tuple(lin(F, [rng.choice((0, 1, rng.randrange(F.order)))
                               for _ in range(rng.randrange(1, 5))])
                       for _ in range(n))
        c = CurveSpec(F, S, R_list)
        if all(R.is_zero() for R in R_list) or not is_irreducible(c):
            continue
        try:
            spaces.append(solve_alpha_space(c))
        except CapacityError:
            continue
        curves.append(c)
    for c, space in zip(curves, spaces):
        members = space.members()
        assert members == [_xor_rows(space.basis, mask)
                           for mask in range(1, 1 << space.dim)]
        assert decomposition(c) == [quotient_curve(c, a, space)
                                    for a in members], c


def test_decomposition_members_are_reduced_with_their_genus():
    # decomposition reads each genus off the degree of an unreduced-again sum
    curves = [load_curve(os.path.join(FIXTURES, f))
              for f in sorted(os.listdir(FIXTURES)) if f.endswith(".json")]
    curves = [c for c in curves if isinstance(c, CurveSpec)]
    assert len(curves) == 5
    curves += [build_prime_field(decompose(g)) for g in (1023, 4096)]
    for c in curves:
        for p in decomposition(c):
            assert p.rhs == as_reduce(p.rhs), p.alpha
            assert p.genus == as_genus(p.rhs), p.alpha


def test_decomposition_genus221_strata():
    c = build_prime_field(decompose(221))
    pieces = decomposition(c)
    assert Counter(p.genus for p in pieces) == Counter({1: 1, 2: 14, 4: 48})
    assert sum(p.genus for p in pieces) == 221


def test_decomposition_rejects_reducible():
    bad = CurveSpec(F2, lin(F2, [1, 0, 1]), (lin(F2, [0, 1]), lin(F2, [0, 1])))
    with pytest.raises(ValueError):
        decomposition(bad)


def test_flag_strata_match_quotient_genus():
    # alpha in ker G_i - ker G_{i-1}  <=>  quotient genus 2^(u_i - 1)
    from sscurves.linops import lin_monomial
    for g in (5, 10, 221):
        d = decompose(g)
        c = build_prime_field(d)
        space = solve_alpha_space(c)
        emb = embedding_into(F2, space.ambient)
        G = [lin_monomial(F2, 0)]
        for _, r in d.blocks:
            G.append(lin_add(lin_twist(G[-1], r + 1), G[-1]))
        G_ext = [Gi.map_field(emb) for Gi in G]
        for alpha in space.members():
            level = min(i for i in range(1, len(G_ext))
                        if lin_eval(G_ext[i], alpha) == 0)
            q = quotient_curve(c, alpha, space)
            assert q.genus == 1 << (d.u[level - 1] - 1)


def test_glued_quotients_match_components():
    spec = build_components(decompose(30))
    glued = glue_single_block(spec)
    quot_rhs = {p.rhs.terms for p in decomposition(glued)}
    combos = {as_reduce(f).terms for _, f in fibre_combinations(spec)}
    assert quot_rhs == combos


def test_glued_quotient_sums_single_block_genera():
    for g in (3, 7, 12, 30):
        glued = glue_single_block(build_components(decompose(g)))
        assert sum(p.genus for p in decomposition(glued)) == g, g


def test_column_walk_matches_the_sum_walk():
    # decomposition, quotient_rows and fibre_combinations against the
    # reference walk (one sparse_add per member): every fixture, seeded
    # genera in both modes, and seeded curves whose sums cancel their top
    # exponent
    curves = [load_curve(os.path.join(FIXTURES, f))
              for f in sorted(os.listdir(FIXTURES)) if f.endswith(".json")]
    assert len(curves) == 6
    rng = random.Random(31)
    for g in rng.sample(range(2, 1100), 12):
        d = decompose(g)
        curves += [build_prime_field(d), build_components(d)]
        if d.t == 1:
            curves.append(glue_single_block(curves[-1]))
    cancelled = 0
    while cancelled < 3:
        F = make_field(rng.randrange(2, 4))
        S = lin(F, [rng.randrange(1, F.order)]
                + [rng.randrange(F.order) for _ in range(2)] + [1])
        c = CurveSpec(F, S, tuple(lin(F, [rng.randrange(F.order)
                                          for _ in range(4)])
                                  for _ in range(3)))
        if not is_irreducible(c):
            continue
        # piece mask - 1 sums the basis quotients at pieces[2^k - 1]
        tops = [p.rhs.degree for p in decomposition_oracle(c)]
        cancelled += any(tops[m - 1] < max(tops[(1 << k) - 1] for k in range(3)
                                           if m >> k & 1) for m in range(1, 8))
        curves.append(c)
    for c in curves:
        if isinstance(c, CurveSpec):
            want = decomposition_oracle(c)
            assert decomposition(c) == want, c
            F, rows = quotient_rows(c)
            assert F == want[0].field
            assert rows == [(p.alpha, p.genus, p.rhs.terms) for p in want]
            assert all(p.genus == as_genus(p.rhs) for p in want)
        else:
            assert fibre_combinations(c) == combinations_oracle(c), c

