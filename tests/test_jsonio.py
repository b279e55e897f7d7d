import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from sscurves import jsonio
from sscurves.builder import (CurveSpec, build_components, build_prime_field,
                              glue_single_block)
from sscurves.decomp import decompose
from sscurves.field import make_field
from sscurves.linops import lin
from sscurves.quotient import decomposition, is_irreducible, quotient_rows

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

# quotes, backslashes, control characters, non-ASCII text (a lone surrogate
# and characters past the BMP included), then anything else
CHARS = st.one_of(st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t\r é€ \ud800'
                                  "\U0001f600"), st.characters())
SCALARS = st.one_of(st.text(CHARS, max_size=8),
                    st.integers(-(1 << 80), 1 << 80),
                    st.booleans(), st.none())


def nested(depth):
    """Dicts, lists and tuples nested to depth levels, empty ones included."""
    kids = SCALARS if depth == 1 else st.one_of(SCALARS, nested(depth - 1))
    return st.one_of(st.dictionaries(st.text(CHARS, max_size=6), kids,
                                     max_size=4),
                     st.lists(kids, max_size=4),
                     st.lists(kids, max_size=3).map(tuple))


def reference(doc):
    return json.dumps(doc, indent=2) + "\n"


@settings(max_examples=300, deadline=None)
@given(st.one_of(SCALARS, nested(4)))
def test_dumps_is_json_indent_2(doc):
    assert jsonio.dumps(doc) == reference(doc)


def test_dumps_matches_json_on_every_fixture():
    paths = [os.path.join(root, f) for root, _, files in os.walk(FIXTURES)
             for f in files if f.endswith(".json")]
    assert len(paths) > 20
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        assert jsonio.dumps(doc) == reference(doc), path


def test_other_leaves_and_keys_are_json_s():
    doc = {"f": [1.5, -0.0, 1e300, float("nan"), float("inf")],
           "keys": {1: "int", 2.5: "float", None: "null", False: "bool"},
           "big": [1 << 64, -(1 << 100)], "empty": [{}, [], ()]}
    assert jsonio.dumps(doc) == reference(doc)
    for bad in ({"a": [object()]}, {(1, 2): 0}, [{1, 2}]):
        with pytest.raises(TypeError) as ours:
            jsonio.dumps(bad)
        with pytest.raises(TypeError) as theirs:
            json.dumps(bad, indent=2)
        assert str(ours.value) == str(theirs.value)


def quotients_doc(pieces):
    """The quotients document as dicts, the reference for quotients_text."""
    return [{"alpha": jsonio.elem_to_json(p.alpha), "genus": p.genus,
             "rhs": jsonio.sparse_to_json(p.rhs)} for p in pieces]


def seeded_curve(seed):
    """An irreducible curve over F_4 or F_8 with three R_k over four
    columns, so that its quotients have several terms."""
    rng = random.Random(seed)
    while True:
        F = make_field(rng.randrange(2, 4))
        S = lin(F, [rng.randrange(1, F.order), rng.randrange(F.order),
                    rng.randrange(F.order), 1])
        R_list = tuple(lin(F, [rng.randrange(F.order) for _ in range(4)])
                       for _ in range(3))
        c = CurveSpec(F, S, R_list)
        if is_irreducible(c):
            return c


# the genera of the benchmark's structure workload
STRUCTURE_GENERA = (30, 63, 95, 127, 221, 255, 383, 511, 1000, 1023, 4096)


def test_quotients_text_is_dumps_of_the_document():
    curves = [jsonio.load_curve(os.path.join(FIXTURES, f))
              for f in sorted(os.listdir(FIXTURES)) if f.endswith(".json")]
    curves = [c for c in curves if isinstance(c, CurveSpec)]
    assert len(curves) == 5       # g6_f4 among them
    curves += [build_prime_field(decompose(g)) for g in STRUCTURE_GENERA]
    curves += [glue_single_block(build_components(decompose(g)))
               for g in (30, 63)]
    curves.append(seeded_curve(7))
    longest = 0
    for c in curves:
        pieces = decomposition(c)
        assert jsonio.quotients_text(quotient_rows(c)[1]) == jsonio.dumps(
            quotients_doc(pieces)), c
        longest = max(longest, max(len(p.rhs.terms) for p in pieces))
    assert longest >= 3, longest
    assert jsonio.quotients_text([]) == jsonio.dumps([]) == "[]\n"
