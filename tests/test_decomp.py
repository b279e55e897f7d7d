import random
import re

import pytest

from sscurves.decomp import decompose


def oracle_blocks(g):
    """Independent run extraction from the binary string."""
    bits = bin(g)[2:][::-1]
    return [(m.start(), len(m.group()) - 1) for m in re.finditer("1+", bits)]


def check_invariants(g, d):
    assert d.recompose() == g
    assert d.w == bin(g).count("1")
    assert d.m == max(r + 1 for _, r in d.blocks)
    for (s1, r1), (s2, _) in zip(d.blocks, d.blocks[1:]):
        assert s2 >= s1 + r1 + 2
    used = 0
    for (s, r), u in zip(d.blocks, d.u):
        assert u == s + 1 - used
        used += r + 1
    assert d.u[0] >= 1
    for u1, u2 in zip(d.u, d.u[1:]):
        assert u2 >= u1 + 1
    if g >= 2:
        assert d.moduli_bound == sum((r + 1) * u
                                     for (_, r), u in zip(d.blocks, d.u)) - 1


def test_worked_examples():
    d = decompose(30)
    assert d.blocks == ((1, 3),) and d.t == 1 and d.w == 4 and d.m == 4
    assert d.u == (2,)
    d = decompose(221)
    assert d.blocks == ((0, 0), (2, 2), (6, 1))
    assert d.w == 6 and d.u == (1, 2, 3)
    d = decompose(1)
    assert d.blocks == ((0, 0),) and d.w == 1 and d.m == 1 and d.u == (1,)


def test_invalid_input():
    with pytest.raises(ValueError):
        decompose(0)
    with pytest.raises(ValueError):
        decompose(-5)


def test_roundtrip_sweep():
    for g in range(1, 1 << 16):
        d = decompose(g)
        assert d.recompose() == g
        assert d.blocks == tuple(oracle_blocks(g))
    # spot invariants densely on a smaller range, sparsely up to 10^6
    for g in range(1, 2048):
        check_invariants(g, decompose(g))
    rng = random.Random(99)
    for _ in range(500):
        g = rng.randrange(1, 10 ** 6)
        d = decompose(g)
        check_invariants(g, d)
        assert d.blocks == tuple(oracle_blocks(g))


def test_uniqueness_against_constraints():
    # any block list meeting the gap constraint recomposes to a number whose
    # decomposition returns exactly that list
    rng = random.Random(5)
    for _ in range(300):
        blocks = []
        s = rng.randrange(0, 3)
        for _ in range(rng.randrange(1, 4)):
            r = rng.randrange(0, 4)
            blocks.append((s, r))
            s += r + 2 + rng.randrange(0, 3)
        g = sum((1 << s) * ((1 << (r + 1)) - 1) for s, r in blocks)
        assert decompose(g).blocks == tuple(blocks)


def test_moduli_bounds():
    for n in range(1, 11):
        assert decompose(1 << n).moduli_bound == n
    assert decompose(221).moduli_bound == 12
    assert decompose(2).moduli_bound == 1
    assert decompose(1).moduli_bound is None
