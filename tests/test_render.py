import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from sscurves import gf2x, render
from sscurves.field import BinaryField, make_field
from sscurves.limits import BudgetError
from sscurves.render import _dlog, coeff_text

SMALL = settings(max_examples=60, deadline=None)


def scan_dlog(F, c):
    """Oracle: walk a^0, a^1, ... once around the cycle of a and stop at c."""
    v, e = 1, 0
    while v != c:
        v, e = F.mul(v, F.generator), e + 1
        if v == 1:
            return None
    return e


def irreducible_fields(n):
    return [BinaryField(n, f) for f in range(1 << n, 1 << (n + 1))
            if gf2x.is_irreducible(f)]


@pytest.mark.parametrize("n", range(1, 11))
def test_dlog_matches_scan_on_every_element(n):
    F = make_field(n)
    got = [_dlog(F, c) for c in F.elements()]
    assert got == [scan_dlog(F, c) for c in F.elements()]
    assert got[0] is None


def test_canonical_generators_that_are_not_primitive():
    # up to degree 20, x generates a proper subgroup for the canonical
    # moduli of exactly these degrees; their tables hold the powers of x
    # alone, so log(x) = 1 and elements outside <x> have no log
    proper = (8, 9, 12, 14, 16, 18)
    for n in range(1, 21):
        F = make_field(n)
        order, _ = F.generator_order()
        assert (order < F.order - 1) == (n in proper), n
    for n in proper:
        F = BinaryField(n, make_field(n).modulus)
        order, _ = F.generator_order()
        assert (F.order - 1) % order == 0
        assert F.tables == (None,)
        assert F.ensure_tables()
        log, = F.tables
        # exactly ord(x) entries are set, one for each exponent
        assert sorted(e for e in log if e is not None) == list(range(order))
        rng = random.Random(n)
        exps = [0, 1, order - 1] + [rng.randrange(order) for _ in range(20)]
        assert [log[F.pow(F.generator, e)] for e in exps] == exps, n
        inside = [F.pow(F.generator, e) for e in exps]
        drawn = [rng.randrange(1, F.order) for _ in range(20)]
        assert [_dlog(F, c) for c in inside + drawn] == [
            scan_dlog(F, c) for c in inside + drawn], n
        assert [_dlog(F, c) is None for c in drawn] == [
            F.pow(c, order) != 1 for c in drawn], n
        assert any(_dlog(F, c) is None for c in drawn), n
    F = BinaryField(21, make_field(21).modulus)
    assert not F.ensure_tables() and F.tables == (None,)
    F = make_field(8)
    outside = [c for c in F.elements() if c and _dlog(F, c) is None]
    assert len(outside) == F.order - 1 - F.generator_order()[0]
    assert all(scan_dlog(F, c) is None for c in outside)


@pytest.mark.parametrize("n", range(2, 7))
def test_dlog_matches_scan_for_every_modulus(n):
    for F in irreducible_fields(n):
        assert ([_dlog(F, c) for c in F.elements()]
                == [scan_dlog(F, c) for c in F.elements()]), F


@SMALL
@given(st.data(), st.integers(11, 16))
def test_dlog_matches_scan_drawn(data, n):
    F = make_field(n)
    c = data.draw(st.integers(0, F.order - 1))
    assert _dlog(F, c) == scan_dlog(F, c)


@SMALL
@given(st.data(), st.sampled_from([24, 32]))
def test_pohlig_hellman_round_trip(data, n):
    F = make_field(n)
    assert not F.ensure_tables()
    order, _ = F.generator_order()
    e = data.draw(st.integers(0, 4 * order))
    got = _dlog(F, F.pow(F.generator, e))
    assert got == e % order and got < order
    c = data.draw(st.integers(0, F.order - 1))
    got = _dlog(F, c)
    if F.pow(c, order) == 1:
        assert got < order and F.pow(F.generator, got) == c
    else:
        assert got is None
    assert F.tables == (None,)       # Pohlig-Hellman builds no log list


def test_terms_text_constant_terms():
    # a constant term prints its coefficient alone: a power of a, the hex
    # fallback outside <a>, or 1
    F4 = make_field(2)
    assert render.terms_text(F4, [(5, 3), (3, 1), (0, 2)], "x") == (
        "a^2*x^5+x^3+a")
    assert render.terms_text(F4, [(0, 1)], "x") == "1"
    F = make_field(8)           # x is not primitive at degree 8
    c = next(c for c in F.elements() if c and _dlog(F, c) is None)
    assert render.terms_text(F, [(1, 1), (0, c)], "x") == "x+0x%x" % c


def test_pohlig_hellman_edges():
    F = make_field(32)            # x has order (2^32 - 1) / 3
    order, _ = F.generator_order()
    assert order == (F.order - 1) // 3
    assert _dlog(F, 0) is None
    assert _dlog(F, 1) == 0 and _dlog(F, F.generator) == 1
    assert _dlog(F, F.pow(F.generator, order - 1)) == order - 1
    outside = next(c for c in range(2, 64) if F.pow(c, order) != 1)
    assert _dlog(F, outside) is None
    assert coeff_text(F, outside) == "0x%x*" % outside


def test_large_prime_factor_fails_fast():
    F = make_field(61)            # 2^61 - 1 is prime
    t0 = time.perf_counter()
    assert _dlog(F, F.pow(F.generator, 60)) == 60     # small: still found
    assert _dlog(F, 0) is None
    with pytest.raises(BudgetError):
        _dlog(F, F.pow(F.generator, 1 << 40))
    assert time.perf_counter() - t0 < 5


@pytest.mark.parametrize("n", [31, 36])
def test_cached_baby_steps_give_the_same_logs(n):
    # 2^31 - 1 is prime; 2^36 - 1 has 3^3, so one table serves three digits
    shared = make_field(n)
    order, factors = shared.generator_order()
    rng = random.Random(n)
    for _ in range(5):
        e = rng.randrange(order)
        c = shared.pow(shared.generator, e)
        fresh = BinaryField(n, shared.modulus)      # no tables cached yet
        assert _dlog(shared, c) == _dlog(fresh, c) == e
    tables = dict(shared._baby_steps)
    assert set(tables) == {p for p, _ in factors}
    assert _dlog(shared, c) == e                    # built once, then reused
    assert all(shared._baby_steps[p] is t for p, t in tables.items())


def test_large_baby_step_tables_are_not_kept(monkeypatch):
    monkeypatch.setattr(render, "_MAX_CACHED_STEPS", 1 << 10)
    F = BinaryField(31, make_field(31).modulus)     # m = 46341 > 2^10
    for e in (5, 1 << 30, 123456789):
        assert _dlog(F, F.pow(F.generator, e)) == e
    assert F._baby_steps == {}
