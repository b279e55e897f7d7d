import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from sscurves import jsonio

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
